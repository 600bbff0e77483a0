package stab

import (
	"math"
	"sort"
	"testing"

	"acstab/internal/num"
	"acstab/internal/ratfn"
	"acstab/internal/wave"
)

func magWaveOn(tf ratfn.TF, fs []float64) *wave.Wave {
	y := make([]float64, len(fs))
	for i, f := range fs {
		y[i] = tf.MagAt(2 * math.Pi * f)
	}
	w := wave.NewReal("mag", append([]float64(nil), fs...), y)
	w.LogX = true
	return w
}

// TestAddPeakNonUniformBracket pins the satellite fix: when the three
// samples around an extremum have unequal spacing (one side refined, the
// other still coarse — exactly what adaptive grids produce), the peak
// refinement must fit the actual parabola through them. On this (2h, h)
// bracket the old uniform-step formula lands ~2.7% off in frequency; the
// spacing-aware fit recovers fn to well under 1%.
func TestAddPeakNonUniformBracket(t *testing.T) {
	grid := num.LogGridPPD(1e3, 1e9, 40)
	h := math.Log(grid[1]) - math.Log(grid[0])
	// Place fn just above a grid point near 3 MHz (so that point is the
	// discrete extremum), then delete the sample on its low side so the
	// extremum's bracket is (2h, h).
	k := 0
	for i, f := range grid {
		if f <= 3e6 {
			k = i
		}
	}
	fn := math.Exp(math.Log(grid[k]) + 0.1*h)
	skewed := append(append([]float64(nil), grid[:k-1]...), grid[k:]...)
	tf := ratfn.SecondOrder(0.5, 2*math.Pi*fn)
	res, err := Analyze(magWaveOn(tf, skewed), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dominant == nil {
		t.Fatal("no dominant peak")
	}
	if !num.ApproxEqual(res.Dominant.Freq, fn, 0.006, 0) {
		t.Errorf("fn = %g, want %g (rel err %.4f)", res.Dominant.Freq, fn,
			math.Abs(res.Dominant.Freq/fn-1))
	}
	if !num.ApproxEqual(res.Dominant.Zeta, 0.5, 0.1, 0) {
		t.Errorf("zeta = %g, want 0.5", res.Dominant.Zeta)
	}
}

// refineLoop drives RefinePlan to convergence the way the tool's adaptive
// sweep does, resolving new points against the analytic magnitude.
func refineLoop(t *testing.T, tf ratfn.TF, freqs []float64, opt RefineOptions) []float64 {
	t.Helper()
	freqs = append([]float64(nil), freqs...)
	for round := 0; ; round++ {
		if round > 20 {
			t.Fatal("refinement did not converge in 20 rounds")
		}
		mags := make([]float64, len(freqs))
		for i, f := range freqs {
			mags[i] = tf.MagAt(2 * math.Pi * f)
		}
		want := RefinePlan(freqs, mags, opt)
		if len(want) == 0 {
			return freqs
		}
		freqs = append(freqs, want...)
		sort.Float64s(freqs)
	}
}

// TestRefinePlanRecoversPeaks: a coarse pass plus RefinePlan rounds must
// converge to a grid that (a) is much smaller than the dense 40-ppd grid
// and (b) still recovers fn and zeta within the dense sweep's own
// stencil tolerance.
func TestRefinePlanRecoversPeaks(t *testing.T) {
	coarse := num.LogGridPPD(1e3, 1e9, 8)
	dense := num.LogGridPPD(1e3, 1e9, 40)
	opt := RefineOptions{
		Threshold: 0.5,
		WideDU:    math.Ln10 / 16,
		PeakDU:    math.Ln10 / 40,
	}
	for _, zeta := range []float64{0.15, 0.35, 0.6} {
		fn := 3.16e6
		tf := ratfn.SecondOrder(zeta, 2*math.Pi*fn)
		freqs := refineLoop(t, tf, coarse, opt)
		if len(freqs) >= len(dense)/2 {
			t.Errorf("zeta=%g: adaptive grid has %d points, dense %d — no win",
				zeta, len(freqs), len(dense))
		}
		res, err := Analyze(magWaveOn(tf, freqs), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Dominant == nil {
			t.Fatalf("zeta=%g: adaptive grid lost the peak", zeta)
		}
		if !num.ApproxEqual(res.Dominant.Freq, fn, 0.03, 0) {
			t.Errorf("zeta=%g: fn=%g, want %g", zeta, res.Dominant.Freq, fn)
		}
		if !num.ApproxEqual(res.Dominant.Zeta, zeta, 0.12, 0) {
			t.Errorf("zeta=%g: recovered %g", zeta, res.Dominant.Zeta)
		}
	}
}

// TestRefinePlanFlatResponse: a response with no resonance anywhere never
// asks for refinement — the coarse grid is final.
func TestRefinePlanFlatResponse(t *testing.T) {
	coarse := num.LogGridPPD(1e3, 1e9, 8)
	mags := make([]float64, len(coarse))
	for i, f := range coarse {
		mags[i] = 100 / (1 + f/1e6) // single real pole: |P| stays under 0.5
	}
	opt := RefineOptions{Threshold: 0.5, WideDU: math.Ln10 / 16, PeakDU: math.Ln10 / 40}
	if want := RefinePlan(coarse, mags, opt); len(want) != 0 {
		t.Errorf("flat response requested %d refinement points: %v", len(want), want)
	}
}

// TestRefinePlanProperties: outputs are ascending, strictly interior to
// existing intervals, and identical across repeated calls.
func TestRefinePlanProperties(t *testing.T) {
	coarse := num.LogGridPPD(1e3, 1e9, 8)
	tf := ratfn.SecondOrder(0.2, 2*math.Pi*2e6)
	mags := make([]float64, len(coarse))
	for i, f := range coarse {
		mags[i] = tf.MagAt(2 * math.Pi * f)
	}
	opt := RefineOptions{Threshold: 0.5, WideDU: math.Ln10 / 16, PeakDU: math.Ln10 / 40}
	a := RefinePlan(coarse, mags, opt)
	b := RefinePlan(coarse, mags, opt)
	if len(a) == 0 {
		t.Fatal("expected refinement around the resonance")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d points", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatal("refinement points not ascending")
		}
	}
	for _, f := range a {
		j := sort.SearchFloat64s(coarse, f)
		if j == 0 || j == len(coarse) || coarse[j] == f {
			t.Fatalf("refinement point %g not interior to the grid", f)
		}
	}
}
