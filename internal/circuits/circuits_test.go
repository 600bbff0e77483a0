package circuits

import (
	"context"
	"fmt"
	"math"
	"testing"

	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/stab"
	"acstab/internal/wave"
)

func sim(t *testing.T, c *netlist.Circuit) *analysis.Sim {
	t.Helper()
	flat, err := netlist.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.New(sys)
}

// impedance sweeps the driving-point impedance of one node (unit AC
// current injection, reading the same node's voltage).
func impedance(s *analysis.Sim, freqs []float64, op *mna.OpPoint, node string) (*wave.Wave, error) {
	idx, ok := s.Sys.NodeOf(node)
	if !ok || idx < 0 {
		return nil, fmt.Errorf("cannot probe node %q", node)
	}
	z, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, []int{idx})
	if err != nil {
		return nil, err
	}
	w := wave.New("z("+node+")", freqs, z[0])
	w.XUnit = "Hz"
	w.YUnit = "Ohm"
	w.LogX = true
	return w, nil
}

// nodePeak runs the stability analysis at one node and returns the
// deepest negative peak (any classification).
func nodePeak(t *testing.T, s *analysis.Sim, node string, fstart, fstop float64) *stab.Peak {
	t.Helper()
	op, err := s.OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	zw, err := impedance(s, num.LogGridPPD(fstart, fstop, 40), op, node)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stab.Analyze(zw.Mag(), stab.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var best *stab.Peak
	for i := range res.Peaks {
		p := &res.Peaks[i]
		if p.IsZero {
			continue
		}
		if best == nil || p.Value < best.Value {
			best = p
		}
	}
	return best
}

func TestFig3OpenLoopShape(t *testing.T) {
	s := sim(t, OpAmpOpenLoop(OpAmpDefaults()))
	op, err := s.OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	freqs := num.LogGridPPD(1e2, 1e9, 60)
	res, err := s.AC(context.Background(), freqs, op)
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.NodeWave("output")
	if err != nil {
		t.Fatal(err)
	}
	gain := w.DB20()
	phase := w.PhaseDeg()
	cross := gain.Cross(0)
	if len(cross) == 0 {
		t.Fatal("no 0 dB crossover")
	}
	fc := cross[0]
	// The measured output phase equals the loop's phase margin at fc (the
	// loop is non-inverted in this observation), and the loop hits -180
	// where the measured phase crosses zero.
	pm := phase.At(fc)
	var f180 float64
	if c0 := phase.Cross(0); len(c0) > 0 {
		f180 = c0[0]
	}
	t.Logf("Fig 3: fc=%.4g pm=%.3g f180=%.4g", fc, pm, f180)
	if !num.ApproxEqual(fc, 2.4e6, 0.13, 0) {
		t.Errorf("0 dB crossover = %g, want ~2.4 MHz", fc)
	}
	if pm < 15 || pm > 26 {
		t.Errorf("phase margin = %g, want ~20 degrees", pm)
	}
	if !num.ApproxEqual(f180, 3.5e6, 0.17, 0) {
		t.Errorf("180-degree frequency = %g, want ~3.5 MHz", f180)
	}
	// DC loop gain is large (the paper circuit is a precision op-amp).
	if g0 := gain.At(freqs[0]); g0 < 60 {
		t.Errorf("DC loop gain = %g dB, want > 60", g0)
	}
}

func TestFig4StabilityPeak(t *testing.T) {
	c := OpAmpBuffer(OpAmpDefaults())
	c.ZeroACSources()
	s := sim(t, c)
	p := nodePeak(t, s, "output", 1e3, 1e9)
	if p == nil {
		t.Fatal("no peak at output")
	}
	t.Logf("Fig 4: peak=%.4g at %.4g (zeta=%.4g pm=%.3g os=%.3g)",
		p.Value, p.Freq, p.Zeta, p.PhaseMarginDeg, p.OvershootPct)
	if !num.ApproxEqual(p.Freq, 3.16e6, 0.09, 0) {
		t.Errorf("peak frequency = %g, want ~3.16 MHz", p.Freq)
	}
	if p.Value < -34 || p.Value > -24 {
		t.Errorf("peak value = %g, want ~-28.9", p.Value)
	}
	if p.Type != stab.PeakNormal {
		t.Errorf("peak type = %v", p.Type)
	}
	// The paper's chain of inference: peak -> zeta ~0.19 -> PM just under
	// 20 -> overshoot ~53%.
	if p.PhaseMarginDeg < 16 || p.PhaseMarginDeg > 23 {
		t.Errorf("estimated PM = %g", p.PhaseMarginDeg)
	}
	if p.OvershootPct < 48 || p.OvershootPct > 62 {
		t.Errorf("estimated overshoot = %g", p.OvershootPct)
	}
}

func TestFig2StepOvershoot(t *testing.T) {
	s := sim(t, OpAmpBuffer(OpAmpDefaults()))
	res, err := s.Tran(context.Background(), analysis.TranSpec{TStop: 3e-6, TStep: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.NodeWave("output")
	if err != nil {
		t.Fatal(err)
	}
	os := w.OvershootPct()
	t.Logf("Fig 2: step overshoot = %.3g%%", os)
	if os < 45 || os > 65 {
		t.Errorf("overshoot = %g%%, want ~55%%", os)
	}
}

func TestFig2ConsistentWithFig4(t *testing.T) {
	// The methodology's headline consistency check: overshoot measured in
	// transient matches the overshoot inferred from the stability peak.
	c := OpAmpBuffer(OpAmpDefaults())
	c.ZeroACSources()
	s := sim(t, c)
	p := nodePeak(t, s, "output", 1e3, 1e9)
	if p == nil {
		t.Fatal("no peak")
	}
	s2 := sim(t, OpAmpBuffer(OpAmpDefaults()))
	res, err := s2.Tran(context.Background(), analysis.TranSpec{TStop: 3e-6, TStep: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := res.NodeWave("output")
	measured := w.OvershootPct()
	if math.Abs(measured-p.OvershootPct) > 8 {
		t.Errorf("transient overshoot %g%% vs stability-plot prediction %g%%",
			measured, p.OvershootPct)
	}
}

func TestBiasLoopsTable2Shape(t *testing.T) {
	s := sim(t, BiasCircuit(BiasDefaults()))
	cases := []struct {
		node       string
		fn         float64 // paper natural frequency
		minV, maxV float64 // acceptable peak band (negative values)
		fnTol      float64
	}{
		{"net81", 47.9e6, -6.5, -4.5, 0.05},
		{"net056", 47.9e6, -6.5, -4.0, 0.05},
		{"net17", 46.8e6, -1.5, -0.3, 0.15},
		{"net013", 51.3e6, -6.5, -4.0, 0.05},
		{"net75", 51.3e6, -6.5, -4.0, 0.05},
		{"net57", 50.1e6, -4.6, -1.0, 0.12},
		{"net16", 50.1e6, -1.5, -0.2, 0.15},
		{"net066", 36.3e6, -1.5, -0.6, 0.05},
	}
	for _, c := range cases {
		p := nodePeak(t, s, c.node, 1e5, 1e10)
		if p == nil {
			t.Errorf("%s: no peak", c.node)
			continue
		}
		t.Logf("%-8s peak=%.4g at %.4g MHz (%v)", c.node, p.Value, p.Freq/1e6, p.Type)
		if p.Value < c.minV || p.Value > c.maxV {
			t.Errorf("%s: peak %g outside [%g, %g]", c.node, p.Value, c.minV, c.maxV)
		}
		if !num.ApproxEqual(p.Freq, c.fn, c.fnTol, 0) {
			t.Errorf("%s: fn %g, want ~%g", c.node, p.Freq, c.fn)
		}
	}
}

func TestSecondOrderCircuitMatchesTheory(t *testing.T) {
	for _, zeta := range []float64{0.2, 0.5} {
		fn := 1e6
		s := sim(t, SecondOrder(zeta, fn))
		p := nodePeak(t, s, "t", 1e3, 1e9)
		if p == nil {
			t.Fatalf("zeta=%g: no peak", zeta)
		}
		if !num.ApproxEqual(p.Freq, fn, 0.03, 0) || !num.ApproxEqual(p.Zeta, zeta, 0.05, 0) {
			t.Errorf("zeta=%g: recovered fn=%g zeta=%g", zeta, p.Freq, p.Zeta)
		}
	}
}

func TestFullCircuitHasAllTable2Nodes(t *testing.T) {
	c := FullCircuit()
	flat, err := netlist.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range Table2Nodes() {
		if _, ok := sys.NodeOf(n); !ok {
			t.Errorf("node %q missing from full circuit", n)
		}
	}
}

func TestRCLadderAndResonatorFieldBuild(t *testing.T) {
	for _, n := range []int{5, 50} {
		s := sim(t, RCLadder(n))
		if s.Sys.NumNodes() != n+1 {
			t.Errorf("ladder %d: %d nodes", n, s.Sys.NumNodes())
		}
	}
	c := ResonatorField(4, 1e6, 0.3)
	s := sim(t, c)
	if s.Sys.NumNodes() != 8 {
		t.Errorf("field nodes = %d, want 8", s.Sys.NumNodes())
	}
	// Each resonator shows its pair at the right frequency.
	p := nodePeak(t, s, "ra000", 1e4, 1e9)
	if p == nil || !num.ApproxEqual(p.Freq, 1e6, 0.05, 0) {
		t.Errorf("resonator 0 peak: %+v", p)
	}
}
