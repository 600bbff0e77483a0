package netlist

import "testing"

// FuzzParse feeds arbitrary text to the netlist parser, the entry point
// for untrusted decks (CLI files and farm requests alike). Parse may
// reject its input but must not panic, and neither may flattening or
// re-formatting what it accepts. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/netlist
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"rc lowpass\nR1 in out 1k\nC1 out 0 1u\nV1 in 0 DC 1 AC 1\n.end\n",
		"ctrl\nV1 in 0 1\nR1 in mid 1k\nE1 e1o 0 in 0 10\nG1 g1o 0 mid 0 1m\nF1 f1o 0 V1 5\nH1 h1o 0 V1 2k\nRm mid 0 1k\n",
		"devices\nD1 a 0 dmod\nQ1 c b e qnpn\nM1 d g s 0 nch w=10u l=1u\n.model dmod d is=1e-14\n" +
			".model qnpn npn (is=1e-16 bf=100 vaf=50)\n.model nch nmos (vto=0.7 kp=100u lambda=0.02)\n",
		"params\n.param rload=2k\n.param cval={1/(2*pi*rload*fc)} fc=1meg\nR1 out 0 {rload}\nC1 out 0 {cval}\n",
		"hier\n.subckt divider in out params: rtop=1k rbot=1k\nRt in out {rtop}\nRb out 0 {rbot}\n.ends\n" +
			"X1 a mid divider rtop=2k\nX2 mid b divider rbot=500\nV1 a 0 1\nR1 b 0 1k\n",
		"nested\n.subckt inner a b\nR1 a b 1k\n.ends\n.subckt outer x y\nX1 x m inner\nX2 m y inner\n.ends\nXtop p q outer\n",
		"sources\nV1 a 0 PULSE(0 1 1u 1n 1n 5u 10u)\nV2 b 0 SIN(0 1 1k)\nV3 c 0 PWL(0 0 1m 1 2m 0)\nI1 d 0 DC 1m AC 2 45\n",
		"t\n.nodeset v(a)=1\nR1 a 0 1k\n+ \n* comment\nR2 a 0 2k ; trailing\n",
		"t\nR1 a 0\n",
		"t\n.subckt s a\nR1 a 0 1k\n",
		"t\n.ends\n",
		"t\n.model foo\n",
		"t\nR1 a 0 {undefined_param}\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		flat, err := Flatten(c)
		if err != nil {
			return
		}
		_ = Format(flat)
	})
}

// FuzzEvalExpr feeds arbitrary text to the design-variable expression
// evaluator on its own, the path every {expr} in an untrusted deck and
// every corner override takes. It may reject its input or return a
// non-finite value, but must not panic. Run it with
//
//	go test -run '^$' -fuzz '^FuzzEvalExpr$' -fuzztime 10s ./internal/netlist
func FuzzEvalExpr(f *testing.F) {
	for _, expr := range []string{
		// TestEvalExpr
		"1+2", "a*b_x", "2^3", "2^3^2", "sqrt(16)", "min(2, 3)", "max(2, 3)",
		"pow(2, 10)", "1k + 1", "2*pi", "-a^2", "exp(0)", "ln(exp(2))",
		"log10(1000)", "abs(-5)", "atan(1)*4",
		// TestEvalExprErrors
		"", "1/0", "nosuch", "f(1)", "(1", "1+", "sqrt(1,2)",
		// robustness_test.go fragments and decks
		"a*", "x*1k", "1meg", "1e", "..", "1/(2*pi*rload*fc)",
	} {
		f.Add(expr)
	}
	params := map[string]float64{"a": 2, "b_x": 3, "x": 2, "rload": 2e3, "fc": 1e6}
	f.Fuzz(func(t *testing.T, expr string) {
		EvalExpr(expr, params) //nolint:errcheck // errors are acceptable, panics are not
	})
}
