package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse turns a declarative spec string into a distribution. The
// grammar (whitespace-insensitive, case-insensitive family names):
//
//	spec     := family '(' args ')'
//	args     := [arg (',' arg)*]
//	arg      := key '=' number | number | weight '*' spec
//
// Families and their parameters (positional order in brackets):
//
//	weibull(shape, scale)                 [shape, scale]
//	lognormal(mu, sigma) | lognormal(mean=, cv=)
//	exp(mean) | exponential(mean= | rate=)
//	det(value) | deterministic(value)
//	gamma(shape, scale)
//	pareto(xm, alpha)                     (min= accepted for xm)
//	empirical(v1, v2, ...)                trace replay of listed values
//	mix(w1*spec1, w2*spec2, ...)          finite mixture
//
// Every Dist's String() is re-parseable, so specs round-trip. Specs nest
// at most maxNesting deep.
func Parse(s string) (Dist, error) {
	p := &parser{input: s}
	d, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("dist: trailing garbage at %q", p.input[p.pos:])
	}
	return d, nil
}

// maxNesting bounds how deep a spec may nest: exp(mean=1) is one level,
// mix(1*exp(mean=1)) two. A spec arrives in a query from anyone who can
// reach a daemon, and the parser recurses once a level; like WTQL's own
// bound on WHERE it is a constant, far above any mixture a model needs.
const maxNesting = 200

type parser struct {
	input string
	pos   int
	depth int // specs open at pos
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != c {
		return fmt.Errorf("dist: expected %q at offset %d in %q", string(c), p.pos, p.input)
	}
	p.pos++
	return nil
}

func (p *parser) peek() (byte, bool) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return 0, false
	}
	return p.input[p.pos], true
}

func (p *parser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
			p.pos++
		} else {
			break
		}
	}
	return strings.ToLower(p.input[start:p.pos])
}

func (p *parser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' ||
			c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, fmt.Errorf("dist: expected a number at offset %d in %q", start, p.input)
	}
	v, err := strconv.ParseFloat(p.input[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("dist: bad number %q: %w", p.input[start:p.pos], err)
	}
	return v, nil
}

// arg is one parsed argument: either key=value, a bare value, or a
// weighted sub-spec for mixtures.
type arg struct {
	key   string
	value float64
	sub   Dist // non-nil for weight*spec arguments
}

func (p *parser) parseSpec() (Dist, error) {
	if p.depth++; p.depth > maxNesting {
		return nil, fmt.Errorf("dist: spec nests deeper than %d at offset %d", maxNesting, p.pos)
	}
	defer func() { p.depth-- }()
	name := p.ident()
	if name == "" {
		return nil, fmt.Errorf("dist: expected a family name at offset %d in %q", p.pos, p.input)
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var args []arg
	if c, ok := p.peek(); ok && c != ')' {
		for {
			a, err := p.parseArg()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			c, ok := p.peek()
			if !ok {
				return nil, fmt.Errorf("dist: unterminated argument list in %q", p.input)
			}
			if c == ',' {
				p.pos++
				continue
			}
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return build(name, args)
}

func (p *parser) parseArg() (arg, error) {
	p.skipSpace()
	// key=value?
	save := p.pos
	if id := p.ident(); id != "" {
		if c, ok := p.peek(); ok && c == '=' {
			p.pos++
			v, err := p.number()
			if err != nil {
				return arg{}, err
			}
			return arg{key: id, value: v}, nil
		}
		p.pos = save // not key=..., rewind
	}
	v, err := p.number()
	if err != nil {
		return arg{}, err
	}
	// weight*spec?
	if c, ok := p.peek(); ok && c == '*' {
		p.pos++
		d, err := p.parseSpec()
		if err != nil {
			return arg{}, err
		}
		return arg{value: v, sub: d}, nil
	}
	return arg{value: v}, nil
}

// params views an argument list as name->value with positional
// fallback.
type params struct {
	family string
	args   []arg
}

// get fetches a parameter by any of its accepted names, falling back to
// the positional slot pos.
func (ps params) get(pos int, names ...string) (float64, error) {
	for _, a := range ps.args {
		for _, n := range names {
			if a.key == n {
				return a.value, nil
			}
		}
	}
	if pos < len(ps.args) && ps.args[pos].key == "" && ps.args[pos].sub == nil {
		return ps.args[pos].value, nil
	}
	return 0, fmt.Errorf("dist: %s spec missing parameter %q", ps.family, names[0])
}

// has reports whether any of the names appears as an explicit key.
func (ps params) has(names ...string) bool {
	for _, a := range ps.args {
		for _, n := range names {
			if a.key == n {
				return true
			}
		}
	}
	return false
}

func build(name string, args []arg) (Dist, error) {
	ps := params{family: name, args: args}
	for _, a := range args {
		if a.sub != nil && name != "mix" && name != "mixture" {
			return nil, fmt.Errorf("dist: weighted components are only valid inside mix(...), not %s(...)", name)
		}
	}
	switch name {
	case "weibull":
		shape, err := ps.get(0, "shape", "k")
		if err != nil {
			return nil, err
		}
		scale, err := ps.get(1, "scale", "lambda")
		if err != nil {
			return nil, err
		}
		return NewWeibull(shape, scale)
	case "lognormal", "lognorm":
		if ps.has("mean", "cv") {
			mean, err := ps.get(0, "mean")
			if err != nil {
				return nil, err
			}
			cv, err := ps.get(1, "cv")
			if err != nil {
				return nil, err
			}
			return LogNormalFromMoments(mean, cv)
		}
		mu, err := ps.get(0, "mu")
		if err != nil {
			return nil, err
		}
		sigma, err := ps.get(1, "sigma")
		if err != nil {
			return nil, err
		}
		return NewLogNormal(mu, sigma)
	case "exp", "exponential":
		if ps.has("rate") {
			rate, err := ps.get(0, "rate")
			if err != nil {
				return nil, err
			}
			if rate <= 0 || math.IsInf(1/rate, 0) {
				return nil, fmt.Errorf("dist: exponential needs rate > 0 with a finite mean, got %v", rate)
			}
			return Exponential{Rate: rate}, nil
		}
		mean, err := ps.get(0, "mean")
		if err != nil {
			return nil, err
		}
		return ExpMean(mean)
	case "det", "deterministic", "const":
		v, err := ps.get(0, "value")
		if err != nil {
			return nil, err
		}
		return NewDeterministic(v)
	case "gamma":
		shape, err := ps.get(0, "shape", "k")
		if err != nil {
			return nil, err
		}
		scale, err := ps.get(1, "scale", "theta")
		if err != nil {
			return nil, err
		}
		return NewGamma(shape, scale)
	case "pareto":
		xm, err := ps.get(0, "xm", "min")
		if err != nil {
			return nil, err
		}
		alpha, err := ps.get(1, "alpha")
		if err != nil {
			return nil, err
		}
		return NewPareto(xm, alpha)
	case "empirical":
		if len(args) == 0 {
			return nil, fmt.Errorf("dist: empirical spec needs at least one value")
		}
		vs := make([]float64, len(args))
		for i, a := range args {
			if a.key != "" || a.sub != nil {
				return nil, fmt.Errorf("dist: empirical spec takes bare values only")
			}
			vs[i] = a.value
		}
		return NewEmpirical(vs)
	case "mix", "mixture":
		if len(args) == 0 {
			return nil, fmt.Errorf("dist: mix spec needs at least one weight*spec component")
		}
		comps := make([]Component, len(args))
		for i, a := range args {
			if a.sub == nil {
				return nil, fmt.Errorf("dist: mix component %d must be weight*spec", i)
			}
			comps[i] = Component{Weight: a.value, Dist: a.sub}
		}
		return NewMixture(comps)
	default:
		return nil, fmt.Errorf("dist: unknown family %q (want weibull, lognormal, exp, det, gamma, pareto, empirical, or mix)", name)
	}
}
