package analysis

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Symbolic step costs. A //wfqlint:bounded(<cost>, <reason>) annotation
// carries, besides the human argument, a machine-readable worst-case trip
// count: an expression over named symbols (PATIENCE, MAX_SPIN, LANES, ...)
// and integer literals, combined with + and * and parentheses. The cert
// pass (cert.go) composes these bottom-up over the call graph into a
// closed-form per-operation step bound, then evaluates it numerically by
// substituting each symbol's resolved value — for the tuning knobs that is
// the cap their option clamps to (PatienceCap, MaxSpinCap).
//
// Costs are kept in expanded sum-of-products form: a polynomial mapping a
// canonical product key ("" for the constant term, "A" or "A*B" for
// symbol products, factors sorted) to a uint64 coefficient. Addition,
// multiplication and scaling — the only operations composition needs —
// are closed over this form, and rendering is canonical, so two equal
// bounds always print identically and baseline diffs are textual.

// Cost is a symbolic step count in expanded sum-of-products form.
type Cost struct {
	terms map[string]uint64
}

// zeroCost and oneCost are the additive and multiplicative identities.
func zeroCost() Cost { return Cost{terms: map[string]uint64{}} }

func constCost(n uint64) Cost {
	c := zeroCost()
	if n != 0 {
		c.terms[""] = n
	}
	return c
}

func symCost(name string) Cost {
	c := zeroCost()
	c.terms[name] = 1
	return c
}

// IsZero reports whether the cost is identically zero.
func (c Cost) IsZero() bool { return len(c.terms) == 0 }

func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

// add returns c + o.
func (c Cost) add(o Cost) Cost {
	r := zeroCost()
	for k, v := range c.terms {
		r.terms[k] = v
	}
	for k, v := range o.terms {
		r.terms[k] = satAdd(r.terms[k], v)
	}
	return r
}

// mul returns c * o, expanding the product of sums.
func (c Cost) mul(o Cost) Cost {
	r := zeroCost()
	for ka, va := range c.terms {
		for kb, vb := range o.terms {
			k := mulKeys(ka, kb)
			r.terms[k] = satAdd(r.terms[k], satMul(va, vb))
		}
	}
	return r
}

// mulKeys merges two canonical product keys into one (factors sorted).
func mulKeys(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	fs := append(strings.Split(a, "*"), strings.Split(b, "*")...)
	sort.Strings(fs)
	return strings.Join(fs, "*")
}

// Symbols returns the sorted set of symbol names the cost mentions.
func (c Cost) Symbols() []string {
	set := map[string]bool{}
	for k := range c.terms {
		if k == "" {
			continue
		}
		for _, s := range strings.Split(k, "*") {
			set[s] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// String renders the cost canonically: terms sorted by degree (descending)
// then lexically, coefficients of 1 omitted on symbolic terms.
func (c Cost) String() string {
	if len(c.terms) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(c.terms))
	for k := range c.terms {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		di, dj := keyDegree(keys[i]), keyDegree(keys[j])
		if di != dj {
			return di > dj
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" + ")
		}
		coef := c.terms[k]
		switch {
		case k == "":
			b.WriteString(strconv.FormatUint(coef, 10))
		case coef == 1:
			b.WriteString(k)
		default:
			b.WriteString(strconv.FormatUint(coef, 10))
			b.WriteString("*")
			b.WriteString(k)
		}
	}
	return b.String()
}

func keyDegree(k string) int {
	if k == "" {
		return 0
	}
	return strings.Count(k, "*") + 1
}

// Eval substitutes vals into the cost, saturating at MaxUint64. Unknown
// symbols are reported, not defaulted: a bound is only a bound when every
// symbol has a value.
func (c Cost) Eval(vals map[string]uint64) (uint64, error) {
	var total uint64
	for k, coef := range c.terms {
		term := coef
		if k != "" {
			for _, s := range strings.Split(k, "*") {
				v, ok := vals[s]
				if !ok {
					return 0, fmt.Errorf("unknown cost symbol %s", s)
				}
				term = satMul(term, v)
			}
		}
		total = satAdd(total, term)
	}
	return total, nil
}

// parseCost parses a symbolic cost expression:
//
//	expr   := term { "+" term }
//	term   := factor { "*" factor }
//	factor := INT | SYMBOL | "(" expr ")"
//
// SYMBOL is an identifier ([A-Za-z_][A-Za-z0-9_]*); whether it names a
// defined symbol is checked later (by the cert pass, against the
// configured symbol table) so the parse itself stays context-free.
func parseCost(s string) (Cost, error) {
	p := &costParser{in: s}
	c, err := p.expr()
	if err != nil {
		return Cost{}, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return Cost{}, fmt.Errorf("trailing %q in cost expression", p.in[p.pos:])
	}
	return c, nil
}

type costParser struct {
	in  string
	pos int
}

func (p *costParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *costParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

func (p *costParser) expr() (Cost, error) {
	c, err := p.term()
	if err != nil {
		return Cost{}, err
	}
	for p.peek() == '+' {
		p.pos++
		t, err := p.term()
		if err != nil {
			return Cost{}, err
		}
		c = c.add(t)
	}
	return c, nil
}

func (p *costParser) term() (Cost, error) {
	c, err := p.factor()
	if err != nil {
		return Cost{}, err
	}
	for p.peek() == '*' {
		p.pos++
		f, err := p.factor()
		if err != nil {
			return Cost{}, err
		}
		c = c.mul(f)
	}
	return c, nil
}

func (p *costParser) factor() (Cost, error) {
	ch := p.peek()
	switch {
	case ch == '(':
		p.pos++
		c, err := p.expr()
		if err != nil {
			return Cost{}, err
		}
		if p.peek() != ')' {
			return Cost{}, fmt.Errorf("missing ) in cost expression")
		}
		p.pos++
		return c, nil
	case ch >= '0' && ch <= '9':
		start := p.pos
		for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.ParseUint(p.in[start:p.pos], 10, 64)
		if err != nil {
			return Cost{}, fmt.Errorf("bad integer in cost expression: %v", err)
		}
		return constCost(n), nil
	case ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z':
		start := p.pos
		for p.pos < len(p.in) && isSymByte(p.in[p.pos]) {
			p.pos++
		}
		return symCost(p.in[start:p.pos]), nil
	case ch == 0:
		return Cost{}, fmt.Errorf("empty cost expression")
	default:
		return Cost{}, fmt.Errorf("unexpected %q in cost expression", ch)
	}
}

func isSymByte(b byte) bool {
	return b == '_' || b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}
