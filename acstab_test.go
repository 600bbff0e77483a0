package acstab_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/fstest"

	acstab "acstab"
	"acstab/internal/stab"
	"acstab/internal/wave"
)

// tank builds a parallel RLC with known zeta and natural frequency.
func tank(zeta, fn float64) *acstab.Circuit {
	c := acstab.NewCircuit("tank")
	wn := 2 * math.Pi * fn
	cap := 1e-9
	l := 1 / (wn * wn * cap)
	r := math.Sqrt(l/cap) / (2 * zeta)
	c.AddR("R1", "t", "0", r)
	c.AddL("L1", "t", "0", l)
	c.AddC("C1", "t", "0", cap)
	return c
}

func TestAnalyzeNodePublicAPI(t *testing.T) {
	nr, err := acstab.AnalyzeNodeContext(context.Background(), tank(0.25, 2e6), "t", acstab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if nr.Dominant == nil {
		t.Fatal("no dominant peak")
	}
	d := nr.Dominant
	if math.Abs(d.FreqHz-2e6) > 0.05e6 {
		t.Errorf("freq = %g", d.FreqHz)
	}
	if math.Abs(d.Zeta-0.25) > 0.02 {
		t.Errorf("zeta = %g", d.Zeta)
	}
	if d.Kind != acstab.PeakNormal {
		t.Errorf("kind = %v", d.Kind)
	}
	if nr.Impedance == nil || nr.StabilityPlot == nil {
		t.Fatal("missing waveforms")
	}
	x, y := nr.StabilityPlot.Samples()
	if len(x) != len(y) || len(x) < 100 {
		t.Errorf("plot samples: %d", len(x))
	}
	var sb strings.Builder
	if err := nr.StabilityPlot.Plot(&sb, "stability plot"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stability plot") {
		t.Error("plot title missing")
	}
}

func TestAnalyzeAllNodesAndReports(t *testing.T) {
	c := acstab.NewCircuit("two tanks")
	for i, fn := range []float64{1e6, 2e7} {
		wn := 2 * math.Pi * fn
		cap := 1e-9
		l := 1 / (wn * wn * cap)
		r := math.Sqrt(l/cap) / (2 * 0.3)
		n := []string{"a", "b"}[i]
		c.AddR("R"+n, n, "0", r)
		c.AddL("L"+n, n, "0", l)
		c.AddC("C"+n, n, "0", cap)
	}
	rep, err := acstab.AnalyzeAllNodesContext(context.Background(), c, acstab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(rep.Loops))
	}
	if rep.Loops[0].FreqHz > rep.Loops[1].FreqHz {
		t.Error("loops not sorted")
	}
	var text, csv, js, ann bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteAnnotatedNetlist(&ann); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Loop at") ||
		!strings.Contains(csv.String(), "node,loop_id") ||
		!strings.Contains(js.String(), "\"loops\"") ||
		!strings.Contains(ann.String(), "* node") {
		t.Error("report formats incomplete")
	}
}

func TestParseNetlistAndOP(t *testing.T) {
	c, err := acstab.ParseNetlist(`divider
V1 in 0 10
R1 in out 1k
R2 out 0 1k
`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["out"]-5) > 1e-9 {
		t.Errorf("v(out) = %g", op["out"])
	}
	if c.Title() != "divider" {
		t.Errorf("title = %q", c.Title())
	}
	if len(c.Nodes()) != 2 {
		t.Errorf("nodes = %v", c.Nodes())
	}
	if !strings.Contains(c.Netlist(), "r1 in out 1000") {
		t.Errorf("netlist:\n%s", c.Netlist())
	}
}

func TestACSweepAndCalc(t *testing.T) {
	c, err := acstab.ParseNetlist(`rc
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 159.155p
`)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := c.ACSweepContext(context.Background(), 1e3, 1e9, 40)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ac.GainDB("out")
	if err != nil {
		t.Fatal(err)
	}
	// fc = 1 MHz: -3 dB.
	if got := g.At(1e6); math.Abs(got-(-3.01)) > 0.05 {
		t.Errorf("gain at fc = %g dB", got)
	}
	ph, err := ac.PhaseDeg("out")
	if err != nil {
		t.Fatal(err)
	}
	if got := ph.At(1e6); math.Abs(got-(-45)) > 0.5 {
		t.Errorf("phase at fc = %g", got)
	}
	// Calculator interface.
	v, _, err := ac.Calc("at(db20(v(out)), 1e6)")
	if err != nil || math.Abs(v-(-3.01)) > 0.05 {
		t.Errorf("calc: %g %v", v, err)
	}
	if _, _, err := ac.Calc("v(nosuch)"); err == nil {
		t.Error("expected calc error")
	}
}

func TestTransientPublicAPI(t *testing.T) {
	c := acstab.NewCircuit("rc step")
	c.AddVStep("V1", "in", "0", 0, 1, 0)
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 1e-6)
	tr, err := c.TransientContext(context.Background(), 5e-3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tr.Node("out")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.At(1e-3); math.Abs(got-(1-math.Exp(-1))) > 0.01 {
		t.Errorf("v(out) at tau = %g", got)
	}
	os, err := tr.OvershootPct("out")
	if err != nil || os > 1 {
		t.Errorf("RC must not overshoot: %g %v", os, err)
	}
	v, _, err := tr.Calc("overshoot(v(out))")
	if err != nil || math.Abs(v-os) > 1e-9 {
		t.Errorf("calc overshoot: %g vs %g (%v)", v, os, err)
	}
}

func TestMarginsBaseline(t *testing.T) {
	// Integrator-with-pole loop |L| = wu/s * 1/(1+s/p2): margins
	// measurable from the public API.
	c := acstab.NewCircuit("open loop")
	c.AddVAC("V1", "in", "0", 0, 1)
	// Integrator: G into big C with huge R.
	c.AddG("GI", "0", "int", "in", "0", 1e-3)
	c.AddR("RI", "int", "0", 1e6) // DC gain 1000, dominant pole at 1 Hz
	c.AddC("CI", "int", "0", 159.155e-9)
	// Ideal buffer isolates the second pole from the integrator node.
	c.AddE("EB", "buf", "0", "int", "0", 1)
	// Second pole at 1 kHz.
	c.AddR("RP", "buf", "out", 1e3)
	c.AddC("CP", "out", "0", 159.155e-9)
	ac, err := c.ACSweepContext(context.Background(), 0.01, 1e7, 40)
	if err != nil {
		t.Fatal(err)
	}
	fc, pm, _, err := ac.Margins("out")
	if err != nil {
		t.Fatal(err)
	}
	// |L| = (wu/w) / sqrt(1+(f/1k)^2) with wu = 1 kHz: crossover where
	// x*sqrt(1+x^2)=1 (x = f/1kHz) -> x = 0.786 -> fc = 786 Hz,
	// PM = 90 - atan(0.786) = 51.8 deg.
	if math.Abs(fc-786) > 25 {
		t.Errorf("fc = %g, want ~786", fc)
	}
	if math.Abs(pm-51.8) > 2 {
		t.Errorf("pm = %g, want ~51.8", pm)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := acstab.AnalyzeNodeContext(context.Background(), tank(0.3, 1e6), "t", acstab.Options{FStart: 10, FStop: 1}); err == nil {
		t.Error("expected range error")
	}
	// Negative values are errors, as on the farm wire, not defaults.
	for _, opts := range []acstab.Options{{PointsPerDecade: -1}, {LoopTolerance: -0.1}} {
		if _, err := acstab.AnalyzeNodeContext(context.Background(), tank(0.3, 1e6), "t", opts); err == nil {
			t.Errorf("%+v: expected a bad-option error", opts)
		}
	}
	if _, err := acstab.AnalyzeNodeContext(context.Background(), tank(0.3, 1e6), "nosuch", acstab.DefaultOptions()); err == nil {
		t.Error("expected node error")
	}
	if _, err := acstab.ParseNetlist(""); err == nil {
		t.Error("expected parse error")
	}
	if _, err := (&acstab.Circuit{}).OperatingPoint(); err == nil {
		// zero-value Circuit has no netlist; the call must not panic
		t.Log("zero-value circuit accepted (unexpected but harmless)")
	}
}

func TestPolesPublicAPI(t *testing.T) {
	ps, err := tank(0.25, 2e6).PolesContext(context.Background(), 1e3, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("poles = %+v", ps)
	}
	for _, p := range ps {
		if math.Abs(p.FreqHz-2e6) > 1 || math.Abs(p.Zeta-0.25) > 1e-6 {
			t.Errorf("pole %+v", p)
		}
	}
}

func TestLoopGainPublicAPI(t *testing.T) {
	// One-pole gm loop: T(0)=2, pole at 159 kHz; crossover where
	// 2/sqrt(1+(f/fp)^2)=1 -> f = fp*sqrt(3) = 276 kHz, PM = 180-60 = 120.
	c := acstab.NewCircuit("loop")
	c.AddR("R1", "a", "0", 1e3)
	c.AddC("C1", "a", "0", 1e-9)
	c.AddG("GL", "a", "0", "a", "0", 2e-3)
	fc, pm, _, gdb, err := c.LoopGain("GL", 1e3, 1e9, 40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fc-276e3) > 8e3 {
		t.Errorf("fc = %g, want ~276k", fc)
	}
	if math.Abs(pm-120) > 1.5 {
		t.Errorf("pm = %g, want ~120", pm)
	}
	if gdb == nil {
		t.Error("missing gain waveform")
	}
	if _, _, _, _, err := c.LoopGain("R1", 1e3, 1e9, 40); err == nil {
		t.Error("non-VCCS should fail")
	}
}

func TestFacadeBuilderDevices(t *testing.T) {
	c := acstab.NewCircuit("devices")
	c.SetModel("dm", "d", map[string]float64{"is": 1e-14})
	c.SetModel("qn", "npn", map[string]float64{"is": 1e-15, "bf": 100})
	c.SetModel("nch", "nmos", map[string]float64{"vto": 0.7, "kp": 1e-4})
	c.AddVDC("VCC", "vcc", "0", 5)
	c.AddR("RB", "vcc", "b", 400e3)
	c.AddQ("Q1", "c", "b", "0", "qn")
	c.AddR("RC", "vcc", "c", 5e3)
	c.AddD("D1", "c", "dk", "dm")
	c.AddR("RD", "dk", "0", 10e3)
	c.AddM("M1", "md", "c", "0", "0", "nch", 1e-5, 1e-6)
	c.AddR("RM", "vcc", "md", 10e3)
	c.AddE("E1", "e", "0", "c", "0", 2)
	c.AddR("RE", "e", "0", 1e3)
	c.AddIDC("I1", "0", "ix", 1e-3)
	c.AddR("RI", "ix", "0", 1e3)
	c.AddL("L1", "ix", "lx", 1e-3)
	c.AddR("RL", "lx", "0", 1e3)
	c.SetTemp(50)
	op, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if op["vcc"] != 5 {
		t.Errorf("v(vcc) = %g", op["vcc"])
	}
	if op["e"] == 0 {
		t.Error("VCVS output missing")
	}
	if len(c.Nodes()) < 8 {
		t.Errorf("nodes = %v", c.Nodes())
	}
	nl := c.Netlist()
	if !strings.Contains(nl, "q1 c b 0 qn") || !strings.Contains(nl, ".model") {
		t.Errorf("netlist:\n%s", nl)
	}
	// Round trip through the parser.
	if _, err := acstab.ParseNetlist(nl); err != nil {
		t.Errorf("netlist round trip: %v", err)
	}
}

func TestWaveformStringAndSamples(t *testing.T) {
	nr, err := acstab.AnalyzeNodeContext(context.Background(), tank(0.3, 1e6), "t", acstab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := nr.Impedance.String()
	if !strings.Contains(s, "pts") {
		t.Errorf("String() = %q", s)
	}
	x, y := nr.Impedance.Samples()
	if len(x) == 0 || len(x) != len(y) {
		t.Error("samples broken")
	}
	if v := nr.Impedance.At(x[0]); v != y[0] {
		t.Errorf("At(first) = %g, want %g", v, y[0])
	}
}

// TestStabilityPlotOnDemand: the stability plot a NodeReport builds on
// first use is the one-shot stab.Plot of the node's impedance bit for bit,
// from single-node and all-nodes runs, and reading it from several
// goroutines at once builds it once.
func TestStabilityPlotOnDemand(t *testing.T) {
	ctx := context.Background()
	single, err := acstab.AnalyzeNodeContext(ctx, tank(0.25, 2e6), "t", acstab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acstab.AnalyzeAllNodesContext(ctx, tank(0.3, 1e6), acstab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var fromAll *acstab.NodeReport
	for i := range rep.Nodes {
		if rep.Nodes[i].Node == "t" {
			fromAll = &rep.Nodes[i]
		}
	}
	if fromAll == nil {
		t.Fatal("all-nodes report has no node t")
	}
	for _, nr := range []*acstab.NodeReport{single, fromAll} {
		zx, zy := nr.Impedance.Samples()
		want, err := stab.Plot(wave.NewReal("z(t)", zx, zy), stab.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		xs := make([][]float64, 4)
		ys := make([][]float64, 4)
		for g := range xs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				xs[g], ys[g] = nr.StabilityPlot.Samples()
			}(g)
		}
		wg.Wait()
		for g := range xs {
			if len(xs[g]) != len(want.X) || len(ys[g]) != len(want.Y) {
				t.Fatalf("goroutine %d: %d/%d samples, want %d", g, len(xs[g]), len(ys[g]), len(want.X))
			}
			for i := range want.X {
				if math.Float64bits(xs[g][i]) != math.Float64bits(want.X[i]) ||
					math.Float64bits(ys[g][i]) != math.Float64bits(real(want.Y[i])) {
					t.Fatalf("goroutine %d: sample %d = (%v, %v), want (%v, %v)", g, i, xs[g][i], ys[g][i], want.X[i], real(want.Y[i]))
				}
			}
		}
		if s := nr.StabilityPlot.String(); !strings.Contains(s, "stabplot(z(t))") {
			t.Errorf("String() = %q", s)
		}
	}
}

func TestSetParamFlowsIntoAnalysis(t *testing.T) {
	c, err := acstab.ParseNetlist(`param flow
.param rq=318
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 1n
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acstab.AnalyzeNodeContext(context.Background(), c, "t", acstab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c.SetParam("rq", 3180)
	b, err := acstab.AnalyzeNodeContext(context.Background(), c, "t", acstab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(b.Dominant.Value < a.Dominant.Value) {
		t.Errorf("larger R should deepen the peak: %g vs %g",
			a.Dominant.Value, b.Dominant.Value)
	}
}

func TestParseNetlistFS(t *testing.T) {
	fsys := fstest.MapFS{
		"deck.cir":  {Data: []byte("fs deck\n.include parts.inc\n")},
		"parts.inc": {Data: []byte("R1 t 0 318\nL1 t 0 25.33u\nC1 t 0 1n\n")},
	}
	c, err := acstab.ParseNetlistFS(fsys, "deck.cir")
	if err != nil {
		t.Fatal(err)
	}
	nr, err := acstab.AnalyzeNodeContext(context.Background(), c, "t", acstab.DefaultOptions())
	if err != nil || nr.Dominant == nil {
		t.Fatalf("analysis through FS deck: %v", err)
	}
	if _, err := acstab.ParseNetlistFS(fsys, "missing.cir"); err == nil {
		t.Error("missing file should fail")
	}
}
