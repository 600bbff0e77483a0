package netlist

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Circuit {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return c
}

func TestParseBasicRC(t *testing.T) {
	c := mustParse(t, `rc lowpass
R1 in out 1k
C1 out 0 1u
V1 in 0 DC 1 AC 1
.end
`)
	if c.Title != "rc lowpass" {
		t.Errorf("title = %q", c.Title)
	}
	if len(c.Elems) != 3 {
		t.Fatalf("elements = %d", len(c.Elems))
	}
	r := c.Element("R1")
	if r == nil || r.Value != 1000 || r.Nodes[0] != "in" || r.Nodes[1] != "out" {
		t.Errorf("R1 = %+v", r)
	}
	v := c.Element("v1")
	if v.Src == nil || v.Src.DC != 1 || v.Src.ACMag != 1 {
		t.Errorf("V1 src = %+v", v.Src)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseContinuationAndComments(t *testing.T) {
	c := mustParse(t, `test
* a comment line
R1 a b
+ 2.2k ; inline comment
C1 b 0 1p
`)
	if len(c.Elems) != 2 {
		t.Fatalf("elements = %d", len(c.Elems))
	}
	if c.Element("r1").Value != 2200 {
		t.Errorf("R1 = %g", c.Element("r1").Value)
	}
}

func TestParseEngineeringSuffixes(t *testing.T) {
	c := mustParse(t, `suffixes
R1 a 0 10MEG
R2 a 0 1.5k
C1 a 0 2.2uF
L1 a 0 10nH
`)
	want := map[string]float64{"r1": 10e6, "r2": 1500, "c1": 2.2e-6, "l1": 10e-9}
	for name, w := range want {
		if got := c.Element(name).Value; math.Abs(got-w) > 1e-9*w {
			t.Errorf("%s = %g, want %g", name, got, w)
		}
	}
}

func TestParseControlledSources(t *testing.T) {
	c := mustParse(t, `ctrl
V1 in 0 1
R1 in mid 1k
E1 e1o 0 in 0 10
G1 g1o 0 mid 0 1m
F1 f1o 0 V1 5
H1 h1o 0 V1 2k
R2 e1o 0 1k
R3 g1o 0 1k
R4 f1o 0 1k
R5 h1o 0 1k
Rm mid 0 1k
`)
	e := c.Element("e1")
	if e.Type != VCVS || e.Value != 10 || len(e.Nodes) != 4 {
		t.Errorf("E1 = %+v", e)
	}
	f := c.Element("f1")
	if f.Ctrl != "v1" || f.Value != 5 {
		t.Errorf("F1 = %+v", f)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseDevicesAndModels(t *testing.T) {
	c := mustParse(t, `devices
D1 a 0 dmod
Q1 c b e qnpn
M1 d g s 0 nch w=10u l=1u
.model dmod d is=1e-14
.model qnpn npn (is=1e-16 bf=100 vaf=50)
.model nch nmos (vto=0.7 kp=100u lambda=0.02)
`)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	m := c.Element("m1")
	if math.Abs(m.Param("w", 0)-10e-6) > 1e-12 || math.Abs(m.Param("l", 0)-1e-6) > 1e-12 {
		t.Errorf("M1 params = %+v", m.Params)
	}
	q := c.Models["qnpn"]
	if q.Type != "npn" || q.Param("bf", 0) != 100 {
		t.Errorf("qnpn = %+v", q)
	}
	if math.Abs(c.Models["nch"].Param("kp", 0)-100e-6) > 1e-12 {
		t.Errorf("kp = %g", c.Models["nch"].Param("kp", 0))
	}
}

func TestParseParams(t *testing.T) {
	c := mustParse(t, `params
.param rload=2k
.param cval={1/(2*pi*rload*fc)} fc=1meg
R1 out 0 {rload}
C1 out 0 {cval}
`)
	if c.Element("r1").Value != 2000 {
		t.Errorf("R1 = %g", c.Element("r1").Value)
	}
	want := 1 / (2 * math.Pi * 2000 * 1e6)
	if got := c.Element("c1").Value; math.Abs(got-want) > 1e-18 {
		t.Errorf("C1 = %g, want %g", got, want)
	}
}

func TestParamCircular(t *testing.T) {
	_, err := Parse(`circ
.param a={b} b={a}
R1 x 0 {a}
`)
	if err == nil {
		t.Fatal("expected circular param error")
	}
}

func TestParseSubcktFlatten(t *testing.T) {
	c := mustParse(t, `hier
.subckt divider in out params: rtop=1k rbot=1k
Rt in out {rtop}
Rb out 0 {rbot}
.ends
X1 a mid divider rtop=2k
X2 mid b divider rbot=500
V1 a 0 1
R1 b 0 1k
`)
	flat, err := Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Element("x1.rt") == nil || flat.Element("x2.rb") == nil {
		t.Fatalf("flatten names wrong: %v", Format(flat))
	}
	if got := flat.Element("x1.rt").Value; got != 2000 {
		t.Errorf("x1.rt = %g, want 2000 (override)", got)
	}
	if got := flat.Element("x1.rb").Value; got != 1000 {
		t.Errorf("x1.rb = %g, want 1000 (default)", got)
	}
	if got := flat.Element("x2.rb").Value; got != 500 {
		t.Errorf("x2.rb = %g, want 500", got)
	}
	// Port mapping: x1.rt connects a->mid.
	rt := flat.Element("x1.rt")
	if rt.Nodes[0] != "a" || rt.Nodes[1] != "mid" {
		t.Errorf("x1.rt nodes = %v", rt.Nodes)
	}
	if err := flat.Validate(); err != nil {
		t.Errorf("flat Validate: %v", err)
	}
}

func TestFlattenNestedSubckt(t *testing.T) {
	c := mustParse(t, `nested
.subckt inner a b
R1 a b 1k
.ends
.subckt outer x y
X1 x m inner
X2 m y inner
.ends
Xtop p q outer
V1 p 0 1
R9 q 0 1k
`)
	flat, err := Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Element("xtop.x1.r1") == nil {
		t.Fatalf("nested names missing; got:\n%s", Format(flat))
	}
	// Internal node of outer is xtop.m.
	r1 := flat.Element("xtop.x1.r1")
	if r1.Nodes[1] != "xtop.m" {
		t.Errorf("internal node = %q", r1.Nodes[1])
	}
}

func TestFlattenGroundInsideSubckt(t *testing.T) {
	c := mustParse(t, `gnd
.subckt cell a
R1 a 0 1k
.ends
X1 n1 cell
V1 n1 0 1
`)
	flat, err := Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	r := flat.Element("x1.r1")
	if r.Nodes[1] != "0" {
		t.Errorf("ground not preserved: %v", r.Nodes)
	}
}

func TestFlattenPortCountMismatch(t *testing.T) {
	c := mustParse(t, `bad
.subckt cell a b
R1 a b 1k
.ends
X1 n1 cell
`)
	if _, err := Flatten(c); err == nil {
		t.Fatal("expected port count error")
	}
}

func TestParseSources(t *testing.T) {
	c := mustParse(t, `sources
V1 a 0 PULSE(0 1 1u 1n 1n 5u 10u)
V2 b 0 SIN(0 1 1k)
V3 c 0 PWL(0 0 1m 1 2m 0)
I1 d 0 DC 1m AC 2 45
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
`)
	p, ok := c.Element("v1").Src.Tran.(PulseFunc)
	if !ok {
		t.Fatalf("V1 tran = %T", c.Element("v1").Src.Tran)
	}
	if p.V2 != 1 || math.Abs(p.TD-1e-6) > 1e-15 || math.Abs(p.PW-5e-6) > 1e-15 {
		t.Errorf("pulse = %+v", p)
	}
	if p.Eval(0) != 0 || p.Eval(2e-6) != 1 {
		t.Errorf("pulse eval wrong: %g %g", p.Eval(0), p.Eval(2e-6))
	}
	s, ok := c.Element("v2").Src.Tran.(SinFunc)
	if !ok || s.Freq != 1000 {
		t.Fatalf("V2 = %+v", s)
	}
	if math.Abs(s.Eval(0.25e-3)-1) > 1e-9 {
		t.Errorf("sin peak = %g", s.Eval(0.25e-3))
	}
	w, ok := c.Element("v3").Src.Tran.(PWLFunc)
	if !ok || len(w.T) != 3 {
		t.Fatalf("V3 = %+v", w)
	}
	if math.Abs(w.Eval(0.5e-3)-0.5) > 1e-9 {
		t.Errorf("pwl midpoint = %g", w.Eval(0.5e-3))
	}
	i := c.Element("i1").Src
	if i.DC != 1e-3 || i.ACMag != 2 || i.ACPhase != 45 {
		t.Errorf("I1 = %+v", i)
	}
}

func TestPulsePeriodic(t *testing.T) {
	p := PulseFunc{V1: 0, V2: 1, TR: 1e-9, TF: 1e-9, PW: 4e-6, PER: 10e-6}
	if p.Eval(2e-6) != 1 {
		t.Error("high during pulse")
	}
	if p.Eval(7e-6) != 0 {
		t.Error("low after pulse")
	}
	if p.Eval(12e-6) != 1 {
		t.Error("periodic repeat")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []string{
		"dup\nR1 a 0 1k\nR1 b 0 1k\n",
		"missingmodel\nD1 a 0 nosuch\n",
		"missingctrl\nF1 a 0 Vnone 2\nR1 a 0 1k\n",
	}
	for _, src := range cases {
		c, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if err := c.Validate(); err == nil {
			t.Errorf("expected validation error for %q", strings.SplitN(src, "\n", 2)[0])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"t\nR1 a 0\n",                 // missing value
		"t\nZ1 a 0 1k\n",              // unknown type
		"t\n.subckt s a\nR1 a 0 1k\n", // unterminated subckt
		"t\n.ends\n",                  // ends without subckt
		"t\n.model foo\n",             // incomplete model
		"t\n.include other.cir\n",
		"t\n.bogus\n",
		"t\nR1 a 0 {undefined_param}\n",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestNodesList(t *testing.T) {
	c := mustParse(t, `nodes
R1 b a 1k
C1 a 0 1p
V1 b 0 1
`)
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Errorf("nodes = %v", nodes)
	}
}

func TestBuilderAPI(t *testing.T) {
	c := NewCircuit("built")
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 1e-6)
	c.AddV("V1", "in", "0", SourceSpec{DC: 1, ACMag: 1})
	c.AddG("G1", "out", "0", "in", "0", 1e-3)
	c.AddQ("Q1", "c", "b", "e", "qnpn")
	c.SetModel("qnpn", "npn", map[string]float64{"is": 1e-16, "bf": 100})
	c.AddM("M1", "d", "g", "s", "0", "nch", 1e-5, 1e-6)
	c.SetModel("nch", "nmos", map[string]float64{"vto": 0.7, "kp": 1e-4})
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.Element("q1").Nodes[1] != "b" {
		t.Error("BJT node order")
	}
}

func TestZeroACSources(t *testing.T) {
	c := NewCircuit("z")
	c.AddV("V1", "a", "0", SourceSpec{DC: 1, ACMag: 1})
	c.AddI("I1", "b", "0", SourceSpec{ACMag: 2})
	c.AddV("V2", "c", "0", SourceSpec{DC: 5})
	if n := c.ZeroACSources(); n != 2 {
		t.Errorf("zeroed %d, want 2", n)
	}
	if c.Element("v1").Src.ACMag != 0 || c.Element("i1").Src.ACMag != 0 {
		t.Error("AC not zeroed")
	}
	if c.Element("v2").Src.DC != 5 {
		t.Error("DC must be preserved")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	src := `round trip
R1 in out 1000
C1 out 0 1e-06
V1 in 0 DC 1 AC 1 0
`
	c := mustParse(t, src)
	text := Format(c)
	c2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if c2.Element("r1").Value != 1000 || c2.Element("c1").Value != 1e-6 {
		t.Error("values lost in round trip")
	}
	if c2.Element("v1").Src.ACMag != 1 {
		t.Error("source lost in round trip")
	}
}

func TestEvalExpr(t *testing.T) {
	params := map[string]float64{"a": 2, "b_x": 3}
	cases := []struct {
		expr string
		want float64
	}{
		{"1+2", 3},
		{"a*b_x", 6},
		{"2^3", 8},
		{"2^3^2", 512}, // right associative
		{"sqrt(16)", 4},
		{"min(2, 3)", 2},
		{"max(2, 3)", 3},
		{"pow(2, 10)", 1024},
		{"1k + 1", 1001},
		{"2*pi", 2 * math.Pi},
		{"-a^2", -4},
		{"exp(0)", 1},
		{"ln(exp(2))", 2},
		{"log10(1000)", 3},
		{"abs(-5)", 5},
		{"atan(1)*4", math.Pi},
	}
	for _, c := range cases {
		got, err := EvalExpr(c.expr, params)
		if err != nil {
			t.Errorf("%q: %v", c.expr, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*(1+math.Abs(c.want)) {
			t.Errorf("%q = %g, want %g", c.expr, got, c.want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	for _, expr := range []string{"", "1/0", "nosuch", "f(1)", "(1", "1+", "sqrt(1,2)"} {
		if _, err := EvalExpr(expr, nil); err == nil {
			t.Errorf("%q: expected error", expr)
		}
	}
}

func TestIsGround(t *testing.T) {
	for _, g := range []string{"0", "gnd", "GND", "gnd!"} {
		if !IsGround(g) {
			t.Errorf("%q should be ground", g)
		}
	}
	if IsGround("out") {
		t.Error("out is not ground")
	}
}

func TestParseNodeset(t *testing.T) {
	c := mustParse(t, `ns
R1 a 0 1k
V1 a 0 1
.nodeset v(a)=0.9 v(b)=1.5
`)
	if c.NodeSet["a"] != 0.9 || c.NodeSet["b"] != 1.5 {
		t.Errorf("nodeset = %v", c.NodeSet)
	}
	flat, err := Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	if flat.NodeSet["a"] != 0.9 {
		t.Error("nodeset lost in flatten")
	}
	if _, err := Parse("ns\n.nodeset v(a)\n"); err == nil {
		t.Error("expected nodeset syntax error")
	}
}

// TestParamErrorsDeterministic: a card with several bad parameters names
// the same one, the first in source order, on every run, whether Parse
// (.param, element and top-level instance parameters) or Flatten (subckt
// defaults, nested instance parameters) reports it.
func TestParamErrorsDeterministic(t *testing.T) {
	cases := []struct{ src, want string }{
		{"t\n.param a={x} b={y} c={z}\nR1 n 0 1k\n", ".param a=x:"},
		{"t\n.param c={z}\n.param b={y} a={x}\nR1 n 0 1k\n", ".param c=z:"},
		{"t\nM1 d g s 0 nch w={x} l={y} ad={z}\n.model nch nmos\n", "m1 param w:"},
		{"t\n.subckt s p\nR1 p 0 1k\n.ends\nX1 n s a={x} b={y} c={z}\nR2 n 0 1\n", "x1 param a:"},
		{"t\n.subckt s p params: c={z} a={x} b={y}\nR1 p 0 1k\n.ends\nX1 n s\nR2 n 0 1\n", "subckt s param c:"},
		{"t\n.subckt s p\n.param b={y} c={z}\nR1 p 0 1k\n.ends\nX1 n s\nR2 n 0 1\n", "subckt s param b:"},
		{"t\n.subckt in p\nR1 p 0 {a+b+c}\n.ends\n.subckt out p\nXi p in b={y} c={z} a={x}\n.ends\n" +
			"X1 n out\nR2 n 0 1\n", "xi param b:"},
	}
	for _, tc := range cases {
		var first string
		for run := 0; run < 50; run++ {
			c, err := Parse(tc.src)
			if err == nil {
				_, err = Flatten(c)
			}
			if err == nil {
				t.Fatalf("%q: no error", tc.src)
			}
			msg := err.Error()
			if run == 0 {
				first = msg
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%q: error %q, want it to name %q", tc.src, msg, tc.want)
				}
			} else if msg != first {
				t.Fatalf("%q: run %d reported %q, run 0 %q", tc.src, run, msg, first)
			}
		}
	}
}

// TestParseLargeDeckAllocs bounds the bytes Parse allocates on large
// decks that hold almost no elements: one that fails on its first card
// and one of directives with a single resistor. Parse may pay for its
// line table, the element pointer table and one copy of the card text,
// a few words a line, but never storage for cards it did not parse.
func TestParseLargeDeckAllocs(t *testing.T) {
	const lines = 200_000
	const bytesPerLine = 64
	decks := []struct {
		name, src string
		fails     bool
	}{
		{"bad-first-card", "t\n" + strings.Repeat("x\n", lines), true},
		{"directives", "t\n" + strings.Repeat(".end\n", lines) + "r1 a 0 1k\n", false},
	}
	for _, d := range decks {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := Parse(d.src)
		runtime.ReadMemStats(&after)
		if (err != nil) != d.fails {
			t.Fatalf("%s: err = %v, want failure %v", d.name, err, d.fails)
		}
		if !d.fails && len(c.Elems) != 1 {
			t.Fatalf("%s: %d elements, want 1", d.name, len(c.Elems))
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d lines, %d bytes allocated (%.1f per line)", d.name, lines, alloc, float64(alloc)/lines)
		if alloc > bytesPerLine*lines {
			t.Errorf("%s: Parse allocated %d bytes for %d lines, want at most %d per line",
				d.name, alloc, lines, bytesPerLine)
		}
	}
}
