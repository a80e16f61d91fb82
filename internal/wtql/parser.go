package wtql

import (
	"fmt"
	"strconv"
)

// Query is the parsed AST of a WTQL query.
type Query struct {
	Metric  string // SIMULATE target, e.g. "availability"
	Vary    []VaryClause
	With    []Assign
	Where   Expr // nil when absent
	OrderBy string
	Desc    bool
	Limit   int // 0 = unlimited
}

// VaryClause is one swept dimension.
type VaryClause struct {
	Param    string
	Values   []any // float64 or string
	Monotone bool
}

// Assign is one fixed parameter.
type Assign struct {
	Param string
	Value any // float64, string or bool
}

// Expr is a boolean expression over metrics and configuration values.
type Expr interface{ exprNode() }

// BinaryExpr is AND/OR.
type BinaryExpr struct {
	Op          string // "AND" | "OR"
	Left, Right Expr
}

// NotExpr negates its operand.
type NotExpr struct{ X Expr }

// CompareExpr compares an identifier against a literal.
type CompareExpr struct {
	Ident string
	Op    string // = != < <= > >=
	Value any    // float64 or string
}

func (BinaryExpr) exprNode()  {}
func (NotExpr) exprNode()     {}
func (CompareExpr) exprNode() {}

// Parse lexes and parses one WTQL query.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks  []token
	pos   int
	src   string // original query text, for line:column error positions
	depth int    // NOTs and parentheses open around the current WHERE term
}

// maxNesting bounds how deep a WHERE may nest. The parser and everything
// that walks its tree recurse once per level, and a query is outside
// input: a megabyte of "(" must be an error, not a gigabyte of stack.
const maxNesting = 200

// at renders a token offset as line:column.
func (p *parser) at(off int) string { return posAt(p.src, off) }

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("wtql: expected %s at %s, got %q", kw, p.at(t.pos), t.text)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SIMULATE"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("wtql: expected metric name after SIMULATE at %s", p.at(t.pos))
	}
	q := &Query{Metric: t.text}

	if p.acceptKeyword("VARY") {
		for {
			vc, err := p.parseVary()
			if err != nil {
				return nil, err
			}
			q.Vary = append(q.Vary, vc)
			if p.cur().kind != tokComma {
				break
			}
			p.pos++
		}
	}
	if p.acceptKeyword("WITH") {
		for {
			a, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			q.With = append(q.With, a)
			if p.cur().kind != tokComma {
				break
			}
			p.pos++
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("wtql: expected identifier after ORDER BY at %s", p.at(t.pos))
		}
		q.OrderBy = t.text
		if p.acceptKeyword("DESC") {
			q.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("wtql: expected number after LIMIT at %s", p.at(t.pos))
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("wtql: LIMIT must be a positive integer, got %q", t.text)
		}
		q.Limit = n
	}
	if p.cur().kind == tokSemicolon {
		p.pos++
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("wtql: unexpected trailing input %q at %s", p.cur().text, p.at(p.cur().pos))
	}
	return q, nil
}

func (p *parser) parseVary() (VaryClause, error) {
	t := p.next()
	if t.kind != tokIdent {
		return VaryClause{}, fmt.Errorf("wtql: expected parameter name in VARY at %s", p.at(t.pos))
	}
	vc := VaryClause{Param: t.text}
	if err := p.expectKeyword("IN"); err != nil {
		return VaryClause{}, err
	}
	if tk := p.next(); tk.kind != tokLParen {
		return VaryClause{}, fmt.Errorf("wtql: expected '(' after IN at %s", p.at(tk.pos))
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return VaryClause{}, err
		}
		vc.Values = append(vc.Values, v)
		tk := p.next()
		if tk.kind == tokRParen {
			break
		}
		if tk.kind != tokComma {
			return VaryClause{}, fmt.Errorf("wtql: expected ',' or ')' in VARY list at %s", p.at(tk.pos))
		}
	}
	if p.acceptKeyword("MONOTONE") {
		vc.Monotone = true
	}
	return vc, nil
}

func (p *parser) parseAssign() (Assign, error) {
	t := p.next()
	if t.kind != tokIdent {
		return Assign{}, fmt.Errorf("wtql: expected parameter name in WITH at %s", p.at(t.pos))
	}
	a := Assign{Param: t.text}
	op := p.next()
	if op.kind != tokOp || op.text != "=" {
		return Assign{}, fmt.Errorf("wtql: expected '=' after %s at %s", a.Param, p.at(op.pos))
	}
	v, err := p.parseValue()
	if err != nil {
		return Assign{}, err
	}
	a.Value = v
	return a, nil
}

func (p *parser) parseValue() (any, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("wtql: bad number %q at %s", t.text, p.at(t.pos))
		}
		return f, nil
	case tokString:
		return t.text, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			return true, nil
		case "FALSE":
			return false, nil
		}
	}
	return nil, fmt.Errorf("wtql: expected value at %s, got %q", p.at(t.pos), t.text)
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.depth++; p.depth > maxNesting {
		return nil, fmt.Errorf("wtql: WHERE nests deeper than %d at %s", maxNesting, p.at(p.cur().pos))
	}
	defer func() { p.depth-- }()
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return NotExpr{X: x}, nil
	}
	if p.cur().kind == tokLParen {
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if tk := p.next(); tk.kind != tokRParen {
			return nil, fmt.Errorf("wtql: expected ')' at %s", p.at(tk.pos))
		}
		return e, nil
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("wtql: expected identifier in WHERE at %s, got %q", p.at(t.pos), t.text)
	}
	op := p.next()
	if op.kind != tokOp {
		return nil, fmt.Errorf("wtql: expected comparison operator at %s", p.at(op.pos))
	}
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return CompareExpr{Ident: t.text, Op: op.text, Value: v}, nil
}
