package stab

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"acstab/internal/num"
	"acstab/internal/ratfn"
	"acstab/internal/sos"
	"acstab/internal/wave"
)

// magWave samples |tf(j2πf)| on a log grid.
func magWave(tf ratfn.TF, fstart, fstop float64, ppd int) *wave.Wave {
	fs := num.LogGridPPD(fstart, fstop, ppd)
	y := make([]float64, len(fs))
	for i, f := range fs {
		y[i] = tf.MagAt(2 * math.Pi * f)
	}
	w := wave.NewReal("mag", fs, y)
	w.LogX = true
	return w
}

func TestPlotMatchesAnalyticSecondOrder(t *testing.T) {
	// Sampled second-order magnitude: P must match the closed form.
	for _, zeta := range []float64{0.2, 0.5, 0.8} {
		fn := 1e6
		tf := ratfn.SecondOrder(zeta, 2*math.Pi*fn)
		mag := magWave(tf, 1e4, 1e8, 60)
		plot, err := Plot(mag, Options{Stencil: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 5; i < plot.Len()-5; i += 7 {
			f := plot.X[i]
			want := sos.StabilityPlot(zeta, f/fn)
			got := real(plot.Y[i])
			if math.Abs(got-want) > 0.04*(1+math.Abs(want)) {
				t.Errorf("zeta=%g f=%g: P=%g want %g", zeta, f, got, want)
			}
		}
	}
}

func TestAnalyzeRecoversZetaAndFn(t *testing.T) {
	for _, zeta := range []float64{0.1, 0.186, 0.3, 0.5, 0.7} {
		fn := 3.16e6
		tf := ratfn.SecondOrder(zeta, 2*math.Pi*fn)
		res, err := Analyze(magWave(tf, 1e3, 1e9, 40), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Dominant == nil {
			t.Fatalf("zeta=%g: no dominant peak", zeta)
		}
		d := res.Dominant
		if !num.ApproxEqual(d.Freq, fn, 0.02, 0) {
			t.Errorf("zeta=%g: fn=%g, want %g", zeta, d.Freq, fn)
		}
		// 5-point stencil at 40 ppd: worst case ~3% at zeta=0.1.
		if !num.ApproxEqual(d.Zeta, zeta, 0.05, 0) {
			t.Errorf("zeta=%g: recovered %g", zeta, d.Zeta)
		}
		if d.Type != PeakNormal {
			t.Errorf("zeta=%g: type=%v", zeta, d.Type)
		}
	}
}

func TestPaperFig4Numbers(t *testing.T) {
	// The paper's example: peak -28.9 at 3.16 MHz corresponds to
	// zeta ~ 0.186 and phase margin just under 20 degrees.
	tf := ratfn.SecondOrder(0.186, 2*math.Pi*3.16e6)
	res, err := Analyze(magWave(tf, 1e3, 1e9, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dominant
	if d == nil {
		t.Fatal("no peak")
	}
	if math.Abs(d.Value-(-28.9)) > 1.0 {
		t.Errorf("peak = %g, want ~-28.9", d.Value)
	}
	if math.Abs(d.Freq-3.16e6) > 0.05e6 {
		t.Errorf("fn = %g, want 3.16e6", d.Freq)
	}
	if d.PhaseMarginDeg < 17 || d.PhaseMarginDeg > 23 {
		t.Errorf("PM = %g, want just under 20 (paper reads 'slightly below 20')", d.PhaseMarginDeg)
	}
	if d.OvershootPct < 50 || d.OvershootPct > 60 {
		t.Errorf("overshoot = %g, want ~55", d.OvershootPct)
	}
}

func TestRealPolesRejected(t *testing.T) {
	// A chain of well-separated real poles must not produce a normal peak:
	// every extremum stays above the -0.75 threshold.
	tf := ratfn.NewTF(1, nil, []complex128{
		complex(-2*math.Pi*1e4, 0),
		complex(-2*math.Pi*3e5, 0),
		complex(-2*math.Pi*1e7, 0),
	})
	res, err := Analyze(magWave(tf, 1e2, 1e9, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dominant != nil {
		t.Errorf("real-pole system reported dominant peak %+v", *res.Dominant)
	}
	for _, p := range res.Peaks {
		if !p.IsZero && p.Type == PeakNormal {
			t.Errorf("real poles produced normal peak %+v", p)
		}
	}
}

func TestComplexZeroPositivePeak(t *testing.T) {
	// A complex zero pair produces a positive peak at its frequency.
	fz := 1e6
	zz := 0.3
	re := -zz * 2 * math.Pi * fz
	im := 2 * math.Pi * fz * math.Sqrt(1-zz*zz)
	tf := ratfn.NewTF(1, []complex128{complex(re, im), complex(re, -im)},
		[]complex128{complex(-2*math.Pi*1e8, 0), complex(-2*math.Pi*1.1e8, 0)})
	res, err := Analyze(magWave(tf, 1e3, 1e9, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var zero *Peak
	for i := range res.Peaks {
		if res.Peaks[i].IsZero && res.Peaks[i].Type == PeakNormal {
			zero = &res.Peaks[i]
		}
	}
	if zero == nil {
		t.Fatal("no positive peak for complex zero")
	}
	if !num.ApproxEqual(zero.Freq, fz, 0.03, 0) {
		t.Errorf("zero freq = %g, want %g", zero.Freq, fz)
	}
	if math.Abs(zero.Value-1/(zz*zz)) > 0.5 {
		t.Errorf("zero peak = %g, want ~%g", zero.Value, 1/(zz*zz))
	}
	if !math.IsNaN(zero.Zeta) {
		t.Error("zero peaks must not report damping")
	}
}

func TestTwoLoopsSeparated(t *testing.T) {
	// Two complex pairs at separated frequencies: both found.
	t1 := ratfn.SecondOrder(0.2, 2*math.Pi*1e5)
	t2 := ratfn.SecondOrder(0.4, 2*math.Pi*5e7)
	res, err := Analyze(magWave(t1.Mul(t2), 1e3, 1e9, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var normals []Peak
	for _, p := range res.Peaks {
		if !p.IsZero && p.Type == PeakNormal {
			normals = append(normals, p)
		}
	}
	if len(normals) != 2 {
		t.Fatalf("found %d normal peaks, want 2: %+v", len(normals), res.Peaks)
	}
	if !num.ApproxEqual(normals[0].Freq, 1e5, 0.03, 0) ||
		!num.ApproxEqual(normals[1].Freq, 5e7, 0.03, 0) {
		t.Errorf("frequencies %g %g", normals[0].Freq, normals[1].Freq)
	}
	if !num.ApproxEqual(normals[0].Zeta, 0.2, 0.05, 0) ||
		!num.ApproxEqual(normals[1].Zeta, 0.4, 0.05, 0) {
		t.Errorf("zetas %g %g", normals[0].Zeta, normals[1].Zeta)
	}
	// Dominant is the deeper (zeta=0.2) one.
	if !num.ApproxEqual(res.Dominant.Freq, 1e5, 0.03, 0) {
		t.Errorf("dominant at %g", res.Dominant.Freq)
	}
}

func TestEndOfRangeClassification(t *testing.T) {
	// Resonance just beyond the sweep's upper edge.
	tf := ratfn.SecondOrder(0.3, 2*math.Pi*9e8)
	res, err := Analyze(magWave(tf, 1e3, 1e9, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Peaks {
		if !p.IsZero && p.Type == PeakEndOfRange {
			found = true
		}
	}
	if !found {
		t.Errorf("expected end-of-range notice, peaks: %+v", res.Peaks)
	}
}

func TestMinMaxClassification(t *testing.T) {
	// Heavily damped pair (zeta=0.95 -> P ~ -1.1) is normal;
	// zeta well above 1 splits into real poles -> min/max or nothing.
	tf := ratfn.SecondOrder(1.35, 2*math.Pi*1e6)
	res, err := Analyze(magWave(tf, 1e3, 1e9, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Peaks {
		if !p.IsZero && p.Type == PeakNormal {
			t.Errorf("overdamped system produced normal peak %+v", p)
		}
	}
}

// Property: for random underdamped second-order systems the analysis
// recovers zeta and fn within tolerance.
func TestRecoveryQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		zeta := 0.1 + 0.55*r.Float64()
		fn := math.Pow(10, 4+4*r.Float64()) // 1e4..1e8
		tf := ratfn.SecondOrder(zeta, 2*math.Pi*fn)
		res, err := Analyze(magWave(tf, 1e3, 1e9, 40), DefaultOptions())
		if err != nil || res.Dominant == nil {
			return false
		}
		// Tolerance matches the measured stencil bias: ~7 % at zeta = 0.1
		// with 40 points/decade (EXPERIMENTS.md ablation A4/A5).
		return num.ApproxEqual(res.Dominant.Freq, fn, 0.03, 0) &&
			num.ApproxEqual(res.Dominant.Zeta, zeta, 0.09, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: adding well-separated real poles does not disturb the zeta
// estimate of the dominant complex pair (the method's core claim: double
// log differentiation filters real singularities).
func TestRealPoleImmunityQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		zeta := 0.1 + 0.4*r.Float64()
		fn := 1e6
		tf := ratfn.SecondOrder(zeta, 2*math.Pi*fn)
		// Sprinkle real poles/zeros at least a decade away.
		for k := 0; k < 1+r.Intn(3); k++ {
			f0 := fn * math.Pow(10, 1.2+1.5*r.Float64())
			if r.Intn(2) == 0 {
				f0 = fn / math.Pow(10, 1.2+1.5*r.Float64())
			}
			p := complex(-2*math.Pi*f0, 0)
			if r.Intn(3) == 0 {
				tf.Zeros = append(tf.Zeros, p)
			} else {
				tf.Poles = append(tf.Poles, p)
			}
		}
		res, err := Analyze(magWave(tf, 1e2, 1e10, 40), DefaultOptions())
		if err != nil || res.Dominant == nil {
			return false
		}
		return num.ApproxEqual(res.Dominant.Freq, fn, 0.05, 0) &&
			num.ApproxEqual(res.Dominant.Zeta, zeta, 0.10, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestStencil5MatchesStencil3(t *testing.T) {
	tf := ratfn.SecondOrder(0.25, 2*math.Pi*1e6)
	mag := magWave(tf, 1e3, 1e9, 40)
	r3, err := Analyze(mag, Options{Stencil: 3, MinPeakDepth: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Analyze(mag, Options{Stencil: 5, MinPeakDepth: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Dominant == nil || r5.Dominant == nil {
		t.Fatal("missing dominant peaks")
	}
	if !num.ApproxEqual(r3.Dominant.Freq, r5.Dominant.Freq, 0.02, 0) {
		t.Errorf("stencil freq mismatch: %g vs %g", r3.Dominant.Freq, r5.Dominant.Freq)
	}
	// 5-point should be at least as close to the analytic -1/zeta^2.
	want := -1 / (0.25 * 0.25)
	e3 := math.Abs(r3.Dominant.Value - want)
	e5 := math.Abs(r5.Dominant.Value - want)
	if e5 > e3*1.5 {
		t.Errorf("5-point error %g much worse than 3-point %g", e5, e3)
	}
}

func TestPlotErrors(t *testing.T) {
	short := wave.NewReal("w", []float64{1, 2, 3}, []float64{1, 1, 1})
	if _, err := Plot(short, DefaultOptions()); err == nil {
		t.Error("expected too-few-points error")
	}
	mag := magWave(ratfn.SecondOrder(0.3, 1), 1e3, 1e6, 10)
	if _, err := Plot(mag, Options{Stencil: 7}); err == nil {
		t.Error("expected unsupported stencil error")
	}
}

func TestPlotZeroMagnitudeClamped(t *testing.T) {
	x := num.LogSpace(1, 1e6, 30)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 1
	}
	y[10] = 0 // pathological sample
	w := wave.NewReal("w", x, y)
	if _, err := Plot(w, DefaultOptions()); err != nil {
		t.Errorf("zero magnitude should be clamped, got %v", err)
	}
}

func TestClusterLoopsTable2Shape(t *testing.T) {
	// Synthetic Table 2: four loops.
	mk := func(node string, f, v float64) NodePeak {
		return NodePeak{Node: node, Peak: Peak{Freq: f, Value: v, Zeta: sos.ZetaFromIndex(v)}}
	}
	peaks := []NodePeak{
		mk("output", 3.16e6, -28.88),
		mk("net052", 3.16e6, -28.88),
		mk("net136", 3.16e6, -28.88),
		mk("net138", 3.16e6, -27.52),
		mk("net99", 3.31e6, -27.09),
		mk("net066", 3.63e7, -0.948),
		mk("net81", 4.79e7, -5.33),
		mk("net17", 4.68e7, -0.504),
		mk("net056", 4.79e7, -4.61),
		mk("net013", 4.90e7, -5.06),
		mk("net57", 5.01e7, -4.49),
		mk("net16", 5.01e7, -0.252),
		mk("net75", 4.90e7, -5.07),
		mk("net019", 5.13e7, -0.233),
	}
	loops := ClusterLoops(peaks, 0.12)
	if len(loops) != 3 && len(loops) != 4 {
		t.Fatalf("got %d loops, want 3-4 (paper: 4, with 47.9/51.3 adjacent)", len(loops))
	}
	// First loop: the 3.16-3.31 MHz main loop with 5 nodes.
	if len(loops[0].Nodes) != 5 {
		t.Errorf("main loop has %d nodes, want 5", len(loops[0].Nodes))
	}
	if !num.ApproxEqual(loops[0].Freq, 3.2e6, 0.05, 0) {
		t.Errorf("main loop freq = %g", loops[0].Freq)
	}
	if loops[0].WorstPeak > -28 {
		t.Errorf("main loop worst peak = %g", loops[0].WorstPeak)
	}
	// Loops sorted by frequency, IDs assigned.
	for i := 1; i < len(loops); i++ {
		if loops[i].Freq <= loops[i-1].Freq {
			t.Error("loops not sorted by frequency")
		}
		if loops[i].ID != i+1 {
			t.Error("IDs not sequential")
		}
	}
}

func TestClusterLoopsSingleAndEmpty(t *testing.T) {
	if got := ClusterLoops(nil, 0.1); got != nil {
		t.Error("empty input should yield nil")
	}
	one := []NodePeak{{Node: "a", Peak: Peak{Freq: 1e6, Value: -5, Zeta: sos.ZetaFromIndex(-5)}}}
	loops := ClusterLoops(one, 0.1)
	if len(loops) != 1 || len(loops[0].Nodes) != 1 {
		t.Fatalf("single peak clustering wrong: %+v", loops)
	}
	if !num.ApproxEqual(loops[0].Zeta, 1/math.Sqrt(5), 1e-9, 0) {
		t.Errorf("loop zeta = %g", loops[0].Zeta)
	}
}

// TestLoopFreqFromDeepestMember: a loop's fn is read at its deepest
// member's peak, like its zeta, not averaged with shallow members that
// single linkage pulled in beside it.
func TestLoopFreqFromDeepestMember(t *testing.T) {
	mk := func(node string, f, v float64) NodePeak {
		return NodePeak{Node: node, Peak: Peak{Freq: f, Value: v, Zeta: sos.ZetaFromIndex(v)}}
	}
	loops := ClusterLoops([]NodePeak{
		mk("shallow1", 1.08e6, -0.6),
		mk("deep", 1e6, -20),
		mk("shallow2", 1.15e6, -0.5),
	}, 0.12)
	if len(loops) != 1 || len(loops[0].Nodes) != 3 {
		t.Fatalf("loops = %+v, want one 3-member loop", loops)
	}
	l := loops[0]
	if l.Freq != 1e6 || l.WorstPeak != -20 || l.Zeta != sos.ZetaFromIndex(-20) {
		t.Errorf("loop fn %g, worst peak %g, zeta %g; want the deep member's 1e6, -20, %g",
			l.Freq, l.WorstPeak, l.Zeta, sos.ZetaFromIndex(-20))
	}
}

// Property: clustering is independent of input order, every input node
// appears exactly once, each loop lists its nodes by name, and the input
// is left as it was.
func TestClusterLoopsInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		peaks := make([]NodePeak, n)
		for i := range peaks {
			peaks[i] = NodePeak{
				Node: "n" + string(rune('a'+i)),
				Peak: Peak{Freq: math.Pow(10, 4+5*r.Float64()), Value: -1 - 20*r.Float64()},
			}
		}
		in := append([]NodePeak(nil), peaks...)
		loops := ClusterLoops(peaks, 0.12)
		if !slices.Equal(peaks, in) {
			return false
		}
		count := 0
		for _, l := range loops {
			count += len(l.Nodes)
			if !slices.IsSortedFunc(l.Nodes, byNode) {
				return false
			}
		}
		if count != n {
			return false
		}
		// Shuffle and recluster: same group count and membership sizes.
		shuf := append([]NodePeak(nil), peaks...)
		r.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		loops2 := ClusterLoops(shuf, 0.12)
		if len(loops2) != len(loops) {
			return false
		}
		for i := range loops {
			if len(loops[i].Nodes) != len(loops2[i].Nodes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestZeroMinPeakDepthDisablesFilter(t *testing.T) {
	// An overdamped pair dips only ~ -0.3, which the default filter
	// classifies MinMax. An explicit zero threshold must disable the
	// filter — not be silently replaced by the 0.75 default — so the same
	// interior peak comes back Normal.
	tf := ratfn.SecondOrder(1.35, 2*math.Pi*1e6)
	mag := magWave(tf, 1e3, 1e9, 40)

	opts := DefaultOptions()
	res, err := Analyze(mag, opts)
	if err != nil {
		t.Fatal(err)
	}
	sawMinMax := false
	for _, p := range res.Peaks {
		if p.Type == PeakMinMax {
			sawMinMax = true
		}
	}
	if !sawMinMax {
		t.Fatal("expected a MinMax-classified peak under the default filter")
	}

	opts.MinPeakDepth = 0
	res, err = Analyze(mag, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Peaks {
		if p.Type == PeakMinMax {
			t.Errorf("MinPeakDepth=0 still filtered peak %+v", p)
		}
	}
}

func TestAnalyzeInvalidStencil(t *testing.T) {
	tf := ratfn.SecondOrder(0.3, 2*math.Pi*1e6)
	mag := magWave(tf, 1e3, 1e9, 40)
	for _, st := range []int{1, 2, 4, 7, -3} {
		opts := DefaultOptions()
		opts.Stencil = st
		if _, err := Analyze(mag, opts); err == nil {
			t.Errorf("stencil %d accepted", st)
		}
	}
	for _, st := range []int{0, 3, 5} {
		opts := DefaultOptions()
		opts.Stencil = st
		if _, err := Analyze(mag, opts); err != nil {
			t.Errorf("stencil %d rejected: %v", st, err)
		}
	}
}
