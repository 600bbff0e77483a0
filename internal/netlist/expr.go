package netlist

import (
	"fmt"
	"math"
	"strings"

	"acstab/internal/num"
)

// EvalExpr evaluates a scalar design-variable expression with the given
// parameter bindings. Supported: + - * / ^ parentheses, SPICE numeric
// literals with engineering suffixes, parameter names, and the functions
// sqrt, abs, exp, ln, log10, sin, cos, tan, atan, min(a,b), max(a,b),
// pow(a,b).
//
// Design variables ("Design Variables Support" in the paper's feature
// list) flow through here: netlist expressions written in terms of .param
// names are evaluated against the variable set configured on the run.
func EvalExpr(expr string, params map[string]float64) (float64, error) {
	v, _, err := evalExpr(expr, params)
	return v, err
}

// evalExpr is EvalExpr that also reports whether the expression read, or
// looked for, a design variable: one that did not has the same value in
// every scope.
func evalExpr(expr string, params map[string]float64) (float64, bool, error) {
	p := exprParser{src: expr, params: params}
	v, err := p.expr()
	if err != nil {
		return 0, p.reads, fmt.Errorf("netlist: expr %q: %w", expr, err)
	}
	p.space()
	if p.pos != len(p.src) {
		return 0, p.reads, fmt.Errorf("netlist: expr %q: trailing input at %q", expr, p.src[p.pos:])
	}
	return v, p.reads, nil
}

type exprParser struct {
	src    string
	pos    int
	params map[string]float64
	reads  bool // a parameter name was looked up
}

func (p *exprParser) space() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *exprParser) expr() (float64, error) {
	v, err := p.term()
	if err != nil {
		return 0, err
	}
	for {
		p.space()
		op := p.peek()
		if op != '+' && op != '-' {
			return v, nil
		}
		p.pos++
		r, err := p.term()
		if err != nil {
			return 0, err
		}
		if op == '+' {
			v += r
		} else {
			v -= r
		}
	}
}

func (p *exprParser) term() (float64, error) {
	v, err := p.unary()
	if err != nil {
		return 0, err
	}
	for {
		p.space()
		op := p.peek()
		if op != '*' && op != '/' {
			return v, nil
		}
		p.pos++
		r, err := p.unary()
		if err != nil {
			return 0, err
		}
		if op == '*' {
			v *= r
		} else {
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= r
		}
	}
}

func (p *exprParser) power() (float64, error) {
	// Exponentiation binds tighter than unary minus (-a^2 == -(a^2)) and is
	// right associative (2^3^2 == 2^9).
	v, err := p.primary()
	if err != nil {
		return 0, err
	}
	p.space()
	if p.peek() == '^' {
		p.pos++
		r, err := p.unary()
		if err != nil {
			return 0, err
		}
		return math.Pow(v, r), nil
	}
	return v, nil
}

func (p *exprParser) unary() (float64, error) {
	p.space()
	switch p.peek() {
	case '-':
		p.pos++
		v, err := p.unary()
		return -v, err
	case '+':
		p.pos++
		return p.unary()
	}
	return p.power()
}

func (p *exprParser) primary() (float64, error) {
	p.space()
	c := p.peek()
	switch {
	case c == '(':
		p.pos++
		v, err := p.expr()
		if err != nil {
			return 0, err
		}
		p.space()
		if p.peek() != ')' {
			return 0, fmt.Errorf("missing ')'")
		}
		p.pos++
		return v, nil
	case c >= '0' && c <= '9' || c == '.':
		return p.number()
	case isExprIdent(c):
		return p.identOrCall()
	}
	return 0, fmt.Errorf("unexpected %q", string(c))
}

func isExprIdent(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
		c >= '0' && c <= '9'
}

func (p *exprParser) number() (float64, error) {
	start := p.pos
	// Scan digits, dot, exponent, then any engineering-suffix letters.
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' || c == '.' {
			p.pos++
			continue
		}
		if (c == 'e' || c == 'E') && p.pos+1 < len(p.src) {
			n := p.src[p.pos+1]
			if n >= '0' && n <= '9' {
				p.pos++
				continue
			}
			if (n == '+' || n == '-') && p.pos+2 < len(p.src) &&
				p.src[p.pos+2] >= '0' && p.src[p.pos+2] <= '9' {
				p.pos += 2 // consume 'e' and the sign
				continue
			}
		}
		break
	}
	// Engineering suffix letters immediately following the number.
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			p.pos++
			continue
		}
		break
	}
	return num.ParseValue(p.src[start:p.pos])
}

func (p *exprParser) identOrCall() (float64, error) {
	start := p.pos
	for p.pos < len(p.src) && isExprIdent(p.src[p.pos]) {
		p.pos++
	}
	name := strings.ToLower(p.src[start:p.pos])
	p.space()
	if p.peek() != '(' {
		// Parameter or constant.
		switch name {
		case "pi":
			return math.Pi, nil
		}
		p.reads = true
		if p.params != nil {
			if v, ok := p.params[name]; ok {
				return v, nil
			}
		}
		return 0, fmt.Errorf("unknown parameter %q", name)
	}
	p.pos++ // '('
	var args []float64
	p.space()
	if p.peek() != ')' {
		for {
			a, err := p.expr()
			if err != nil {
				return 0, err
			}
			args = append(args, a)
			p.space()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
	}
	if p.peek() != ')' {
		return 0, fmt.Errorf("missing ')' in call to %q", name)
	}
	p.pos++
	one := func(f func(float64) float64) (float64, error) {
		if len(args) != 1 {
			return 0, fmt.Errorf("%s wants 1 argument", name)
		}
		return f(args[0]), nil
	}
	two := func(f func(a, b float64) float64) (float64, error) {
		if len(args) != 2 {
			return 0, fmt.Errorf("%s wants 2 arguments", name)
		}
		return f(args[0], args[1]), nil
	}
	switch name {
	case "sqrt":
		return one(math.Sqrt)
	case "abs":
		return one(math.Abs)
	case "exp":
		return one(math.Exp)
	case "ln", "log":
		return one(math.Log)
	case "log10":
		return one(math.Log10)
	case "sin":
		return one(math.Sin)
	case "cos":
		return one(math.Cos)
	case "tan":
		return one(math.Tan)
	case "atan":
		return one(math.Atan)
	case "min":
		return two(math.Min)
	case "max":
		return two(math.Max)
	case "pow":
		return two(math.Pow)
	default:
		return 0, fmt.Errorf("unknown function %q", name)
	}
}
