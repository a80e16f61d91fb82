// Package wtql implements the Wind Tunnel Query Language, the declarative
// interface §4.1 of the paper calls for: design questions are posed as
// queries over the configuration space rather than as imperative
// simulation scripts, and the engine plans, prunes and parallelizes their
// execution (§4.2).
//
// Grammar (keywords case-insensitive):
//
//	query  := SIMULATE ident
//	          [ VARY vary ("," vary)* ]
//	          [ WITH assign ("," assign)* ]
//	          [ WHERE expr ]
//	          [ ORDER BY ident [ASC|DESC] ]
//	          [ LIMIT int ] [ ";" ]
//	vary   := dotted IN "(" value ("," value)* ")" [ MONOTONE ]
//	assign := dotted "=" value
//	expr   := or ; or := and (OR and)* ; and := not (AND not)*
//	not    := NOT not | "(" expr ")" | dotted cmp operand
//	cmp    := "=" | "!=" | "<" | "<=" | ">" | ">="
//
// The names VARY and WITH take — what each sets, the kind of value it
// wants, and how large it may be — are the rows of the parameter table in
// params.go; README's "Parameters" section is that table written out.
// How a query runs — trials, screening, variance reduction — is said in
// its WITH clause too, by the table's execution settings: a query is the
// only statement, and it carries everything it means.
//
// A query without VARY asks about one design: it is a one-point sweep of
// the scenario its WITH clause describes, and its table is that point's
// whole report, every metric in name order. It is how a single scenario is
// run.
//
//	SIMULATE availability WITH trials = 10 WHERE sla.availability >= 0.999
//
// Example:
//
//	SIMULATE availability
//	VARY cluster.nodes IN (10, 30),
//	     storage.replication IN (3, 5) MONOTONE,
//	     storage.placement IN ('random', 'roundrobin')
//	WITH users = 1000, trials = 20, horizon_hours = 8766
//	WHERE sla.availability >= 0.999 AND cost.total <= 250000
//	ORDER BY cost.total ASC
//	LIMIT 3;
package wtql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokLParen
	tokRParen
	tokSemicolon
	tokOp // = != < <= > >=
	tokKeyword
)

var keywords = map[string]bool{
	"SIMULATE": true, "VARY": true, "IN": true, "WITH": true,
	"WHERE": true, "ORDER": true, "BY": true, "LIMIT": true,
	"AND": true, "OR": true, "NOT": true, "ASC": true, "DESC": true,
	"MONOTONE": true, "TRUE": true, "FALSE": true,
}

// token is one lexical unit.
type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents as written
	pos  int    // byte offset; rendered as line:column in error messages
}

// posAt renders the 1-based line:column of byte offset off in src — the
// position format parse errors report. Server clients get these errors
// back as JSON, and a line:column is actionable in a multi-line query
// where a byte offset is not.
func posAt(src string, off int) string {
	line, col := 1, 1
	for i := 0; i < off && i < len(src); i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("%d:%d", line, col)
}

// lex tokenizes the input.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == ';':
			toks = append(toks, token{tokSemicolon, ";", i})
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < n && input[j] != quote {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("wtql: unterminated string at %s", posAt(input, i))
			}
			toks = append(toks, token{tokString, input[i+1 : j], i})
			i = j + 1
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("wtql: unexpected '!' at %s", posAt(input, i))
			}
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < n && input[i+1] == '=' {
				op += "="
				i++
			}
			toks = append(toks, token{tokOp, op, i})
			i++
		case isDigit(c) || (c == '-' && i+1 < n && isDigit(input[i+1])):
			j := i + 1
			for j < n && (isDigit(input[j]) || input[j] == '.' || input[j] == 'e' ||
				input[j] == 'E' || ((input[j] == '+' || input[j] == '-') &&
				(input[j-1] == 'e' || input[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case isIdentStart(c):
			j := i + 1
			for j < n && isIdentPart(input[j]) {
				j++
			}
			word := input[i:j]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{tokKeyword, upper, i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		default:
			return nil, fmt.Errorf("wtql: unexpected character %q at %s", c, posAt(input, i))
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || isLetter(c) }
func isLetter(c byte) bool     { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '.' }
