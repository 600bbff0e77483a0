package tool

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/stab"
)

// The verdict ratchet grades All Nodes reports against the exact poles of
// the linearized circuit (Sim.Poles over the sweep band; ζ = −Re s/|s|,
// fn = |s|/2π) and holds today's wrong answers in
// testdata/verdict_known_wrong.txt, one line per case. The list may only
// shrink: a case that grades wrong but is not listed fails the test, and
// so does a listed case that now grades right, or whose kinds of fault
// changed. A fix deletes (or narrows) its lines; adding a line needs a
// CHANGES.md entry saying why.
//
// Grading, per exact in-band complex pair, against the reported loop
// closest to it in fn within the pair's tolerance (verdictFnTol):
//
//   - missed: there is no such loop.
//   - sign:   the loop reports ζ of the other sign (an RHP pair reported
//     stable, or the reverse).
//   - zeta:   the loop's ζ is off by more than verdictZetaTol, relative.
//
// and per reported loop:
//
//   - phantom: no exact pair lies within that pair's tolerance of the
//     loop's fn, so nothing in the circuit backs the loop.
//
// A run that fails outright grades "error".
//
// Well-damped rule: a pair with |ζ| > verdictWellDamped is undecided
// unless its sign is wrong. Its peak is P = −1/ζ² > −2, within a factor
// of two of the −1 that two coincident real poles reach (Table 1 puts
// ζ 0.8 at −1.56), so the magnitude alone can hardly tell it from real
// poles, and the peak is so broad (about 2ζ wide in ln ω) that its vertex
// drifts with any neighbour. Such a pair is not required to be found and
// its ζ is not graded; its tolerance is the wider verdictWellDampedFnTol,
// and a loop within it is backed. A loop matched to it that reports the
// wrong sign is still wrong. Undecided pairs are logged, not listed.
const (
	verdictFnTol           = 0.02
	verdictZetaTol         = 0.05
	verdictWellDamped      = 0.7
	verdictWellDampedFnTol = 0.10
)

// verdictCase is one circuit the ratchet grades, under default and under
// adaptive options.
type verdictCase struct {
	name string
	ckt  func() *netlist.Circuit
}

func verdictCases() []verdictCase {
	var cs []verdictCase
	zetas := []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9}
	for _, z := range zetas {
		cs = append(cs, verdictCase{fmt.Sprintf("tank-z%g", z), func() *netlist.Circuit { return circuits.SecondOrder(z, 1e6) }})
	}
	for _, z := range zetas {
		cs = append(cs, verdictCase{fmt.Sprintf("rhp-tank-z%g", z), func() *netlist.Circuit { return rhpTank(z, 1e6) }})
	}
	for _, z := range []float64{0.35, 0.08, 0.02} {
		cs = append(cs, verdictCase{fmt.Sprintf("field32-z%g", z), func() *netlist.Circuit { return circuits.ResonatorField(32, 1e5, z) }})
	}
	// The Fig. 1 buffer, and with its Miller capacitor cut from 8 pF
	// towards an RHP pair at 0.1 pF.
	cs = append(cs, verdictCase{"opamp-buffer", func() *netlist.Circuit { return circuits.OpAmpBuffer(circuits.OpAmpDefaults()) }})
	for _, c1 := range []float64{2e-12, 1e-12, 0.5e-12, 0.1e-12} {
		cs = append(cs, verdictCase{fmt.Sprintf("opamp-buffer-c1-%gp", c1*1e12), func() *netlist.Circuit {
			p := circuits.OpAmpDefaults()
			p.C1 = c1
			return circuits.OpAmpBuffer(p)
		}})
	}
	return append(cs,
		verdictCase{"rhp-tank-rc", func() *netlist.Circuit { return tankRC(true) }},
		verdictCase{"tank-rc", func() *netlist.Circuit { return tankRC(false) }},
		verdictCase{"rc-ladder", func() *netlist.Circuit { return circuits.RCLadder(20) }},
		verdictCase{"loop-rc-bystanders", loopWithBystanders},
		verdictCase{"table2", circuits.FullCircuit},
		verdictCase{"bias-cell", func() *netlist.Circuit { return circuits.BiasCircuit(circuits.BiasDefaults()) }},
		verdictCase{"transistor-opamp", circuits.TransistorOpAmp},
		verdictCase{"transistor-bias", circuits.TransistorBias},
		verdictCase{"snubbed-bias-1k-10p", func() *netlist.Circuit { return circuits.SnubbedBias(1e3, 10e-12) }},
		verdictCase{"snubbed-bias-100-1n", func() *netlist.Circuit { return circuits.SnubbedBias(100, 1e-9) }},
		verdictCase{"transistor-bias-85c", func() *netlist.Circuit {
			c := circuits.TransistorBias()
			c.Temp = 85
			return c
		}},
	)
}

// rhpTank is SecondOrder's tank with its resistor replaced by the negative
// conductance of the same magnitude: the pole pair mirrors into the right
// half-plane at ζ' = −ζ with the same |Z(jω)|.
func rhpTank(zeta, fn float64) *netlist.Circuit {
	c := netlist.NewCircuit("tank with negative conductance")
	wn := 2 * math.Pi * fn
	cap := 1e-9
	l := 1 / (wn * wn * cap)
	r := math.Sqrt(l/cap) / (2 * zeta)
	c.AddG("G1", "0", "t", "t", "0", 1/r)
	c.AddL("L1", "t", "0", l)
	c.AddC("C1", "t", "0", cap)
	return c
}

// tankRC is a 1 MHz tank with an RC section on its node: with rhp, a
// negative conductance puts its pair in the right half-plane at ζ −0.25;
// without, a 318 Ω resistor damps it to about ζ 0.25.
func tankRC(rhp bool) *netlist.Circuit {
	c := netlist.NewCircuit("tank with an RC section")
	if rhp {
		c.AddG("G1", "0", "t", "t", "0", 3.1447e-3)
	} else {
		c.AddR("R1", "t", "0", 318)
	}
	c.AddL("L1", "t", "0", 25.33e-6)
	c.AddC("C1", "t", "0", 1e-9)
	c.AddR("R2", "t", "a", 1e3)
	c.AddC("C2", "a", "0", 10e-12)
	return c
}

// loopWithBystanders is a 1 MHz, ζ 0.2 two-pole loop with a five-section
// RC ladder hanging off one loop node, its real poles spread around the
// loop's frequency.
func loopWithBystanders() *netlist.Circuit {
	c := circuits.ResonatorField(1, 1e6, 0.2)
	prev := "ra000"
	for i, fp := range []float64{2e5, 5e5, 2e6, 5e6, 2e7} {
		n := fmt.Sprintf("by%d", i)
		c.AddR("RBY"+n, prev, n, 10e3)
		c.AddC("CBY"+n, n, "0", 1/(2*math.Pi*fp*10e3))
		prev = n
	}
	return c
}

// verdictMode is an option set every case runs under.
type verdictMode struct {
	name string
	opts Options
}

func verdictModes() []verdictMode {
	adaptive := DefaultOptions()
	adaptive.CoarsePointsPerDecade = 10
	return []verdictMode{{"default", DefaultOptions()}, {"adaptive", adaptive}}
}

// gradeVerdict runs one case and returns its sorted fault kinds, a
// human-readable reason for each fault and the undecided findings.
func gradeVerdict(ckt *netlist.Circuit, opts Options) (kinds []string, reasons, undecided []string) {
	ctx := context.Background()
	fail := func(err error) ([]string, []string, []string) {
		return []string{"error"}, []string{err.Error()}, nil
	}
	tl, err := New(ckt, opts)
	if err != nil {
		return fail(err)
	}
	rep, err := tl.AllNodes(ctx)
	if err != nil {
		return fail(err)
	}
	op, err := tl.ensureOP(ctx)
	if err != nil {
		return fail(err)
	}
	poles, err := tl.Sim.Poles(ctx, op, tl.Opts.FStart, tl.Opts.FStop)
	if err != nil {
		return fail(err)
	}
	pairs := analysis.ComplexPolePairs(poles, 1e-6)

	seen := map[string]bool{}
	fault := func(kind, format string, args ...any) {
		seen[kind] = true
		reasons = append(reasons, kind+": "+fmt.Sprintf(format, args...))
	}
	// near reports whether a loop at f lies within pair p's tolerance.
	near := func(f float64, p analysis.Pole) bool {
		tol := verdictFnTol
		if math.Abs(p.Zeta) > verdictWellDamped {
			tol = verdictWellDampedFnTol
		}
		return math.Abs(f-p.FreqHz) <= tol*p.FreqHz
	}
	for _, p := range pairs {
		var best *stab.Loop
		for i := range rep.Loops {
			l := &rep.Loops[i]
			if near(l.Freq, p) && (best == nil || math.Abs(math.Log(l.Freq/p.FreqHz)) < math.Abs(math.Log(best.Freq/p.FreqHz))) {
				best = l
			}
		}
		wellDamped := math.Abs(p.Zeta) > verdictWellDamped
		switch {
		case best == nil && wellDamped:
			undecided = append(undecided, fmt.Sprintf("pair %s zeta %.3g: no loop", hz(p.FreqHz), p.Zeta))
		case best == nil:
			fault("missed", "pair %s zeta %.3g has no loop within %g%%", hz(p.FreqHz), p.Zeta, 100*verdictFnTol)
		case (best.Zeta < 0) != (p.Zeta < 0):
			fault("sign", "pair %s zeta %.3g reported as loop %s zeta %.3g", hz(p.FreqHz), p.Zeta, hz(best.Freq), best.Zeta)
		case wellDamped:
			undecided = append(undecided, fmt.Sprintf("pair %s zeta %.3g: loop %s zeta %.3g", hz(p.FreqHz), p.Zeta, hz(best.Freq), best.Zeta))
		case math.Abs(best.Zeta-p.Zeta) > verdictZetaTol*math.Abs(p.Zeta):
			fault("zeta", "pair %s zeta %.3g reported %.3g (%+.0f%%)", hz(p.FreqHz), p.Zeta, best.Zeta, 100*(best.Zeta-p.Zeta)/math.Abs(p.Zeta))
		}
	}
	for _, l := range rep.Loops {
		backed := false
		for _, p := range pairs {
			backed = backed || near(l.Freq, p)
		}
		if !backed {
			fault("phantom", "loop %s zeta %.3g (%d members) has no pair behind it", hz(l.Freq), l.Zeta, len(l.Nodes))
		}
	}
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds, reasons, undecided
}

func hz(f float64) string { return fmt.Sprintf("%.4g Hz", f) }

// knownWrong reads testdata/verdict_known_wrong.txt: "case kind,kind #
// reason" lines, with blank lines and whole-line # comments skipped.
func knownWrong(t *testing.T) map[string][]string {
	f, err := os.Open("testdata/verdict_known_wrong.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("verdict_known_wrong.txt:%d: want \"case kinds # reason\", got %q", line, sc.Text())
		}
		if _, dup := out[fields[0]]; dup {
			t.Fatalf("verdict_known_wrong.txt:%d: case %s listed twice", line, fields[0])
		}
		out[fields[0]] = strings.Split(fields[1], ",")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerdictRatchet grades every case under every mode and holds the
// wrong ones to the committed known-wrong list.
func TestVerdictRatchet(t *testing.T) {
	listed := knownWrong(t)
	graded := map[string]bool{}
	for _, c := range verdictCases() {
		for _, m := range verdictModes() {
			id := c.name + "/" + m.name
			graded[id] = true
			kinds, reasons, undecided := gradeVerdict(c.ckt(), m.opts)
			for _, u := range undecided {
				t.Logf("%s: undecided (well damped): %s", id, u)
			}
			want, isListed := listed[id]
			line := fmt.Sprintf("%s %s # %s", id, strings.Join(kinds, ","), strings.Join(reasons, "; "))
			switch {
			case len(kinds) == 0 && isListed:
				t.Errorf("%s now grades right; delete its line from testdata/verdict_known_wrong.txt", id)
			case len(kinds) > 0 && !isListed:
				t.Errorf("new wrong verdict, not on the known-wrong list:\n%s", line)
			case len(kinds) > 0 && !slices.Equal(kinds, want):
				t.Errorf("%s faults changed from %s; the line is now:\n%s", id, strings.Join(want, ","), line)
			}
		}
	}
	for id := range listed {
		if !graded[id] {
			t.Errorf("testdata/verdict_known_wrong.txt lists %s, which is not a graded case", id)
		}
	}
}

// TestFieldNoiseFloor: on the 32-loop resonator field, the nodes of the
// out-of-band resonators read roundoff extrema (|P| about 5e-13) that
// used to become loops of their own (29 loops for 14 pairs at ζ 0.35, 28
// at ζ 0.08). Under the stability plot's rounding floor, All Nodes finds
// every in-band pair and reports no loop without a pair behind it: each
// pair has a loop within 2% of its fn and each loop a pair within 2%.
func TestFieldNoiseFloor(t *testing.T) {
	ctx := context.Background()
	for _, zeta := range []float64{0.35, 0.08} {
		tl, err := New(circuits.ResonatorField(32, 1e5, zeta), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tl.AllNodes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		op, err := tl.ensureOP(ctx)
		if err != nil {
			t.Fatal(err)
		}
		poles, err := tl.Sim.Poles(ctx, op, tl.Opts.FStart, tl.Opts.FStop)
		if err != nil {
			t.Fatal(err)
		}
		pairs := analysis.ComplexPolePairs(poles, 1e-6)
		if len(pairs) != 14 {
			t.Fatalf("zeta %g: %d in-band pairs, want 14", zeta, len(pairs))
		}
		within := func(f, ref float64) bool { return math.Abs(f-ref) <= verdictFnTol*ref }
		for _, p := range pairs {
			if !slices.ContainsFunc(rep.Loops, func(l stab.Loop) bool { return within(l.Freq, p.FreqHz) }) {
				t.Errorf("zeta %g: pair %s has no loop within 2%%", zeta, hz(p.FreqHz))
			}
		}
		for _, l := range rep.Loops {
			if !slices.ContainsFunc(pairs, func(p analysis.Pole) bool { return within(l.Freq, p.FreqHz) }) {
				t.Errorf("zeta %g: loop %s zeta %.3g (%d members) has no pair within 2%%", zeta, hz(l.Freq), l.Zeta, len(l.Nodes))
			}
		}
		if len(rep.Loops) != len(pairs) {
			t.Errorf("zeta %g: %d loops for %d pairs", zeta, len(rep.Loops), len(pairs))
		}
	}
}
