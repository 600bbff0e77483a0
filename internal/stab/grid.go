package stab

// Adaptive grid refinement: the stability plot only needs dense
// ω-resolution near resonant peaks — P(ω) is flat (|P| well below the
// real-pole bound) away from complex pole/zero pairs — so a sweep can
// start from a coarse log grid and bisect only the intervals the stencil
// signal marks as interesting. RefinePlan is the per-round decision: given
// one node's samples so far, which log-midpoints to solve next.
//
// The decision is a pure function of one node's own samples and the
// options, so a node's final grid does not depend on which other nodes
// were swept alongside it.

import (
	"math"
)

// refineSplit is the interval-width factor above the target spacing at
// which an interval is still worth bisecting: splitting only when
// width > refineSplit*du leaves final spacings in (du/2·refineSplit,
// refineSplit·du], i.e. centered on the requested resolution instead of
// strictly below it.
const refineSplit = 1.5

// RefineOptions configures one refinement round.
type RefineOptions struct {
	// Threshold is the |P| level that marks an interval as resonant.
	// Intervals whose endpoints both stay below it are never refined.
	Threshold float64
	// WideDU is the target log-frequency spacing (natural log) for
	// threshold-selected intervals — dense enough to locate every
	// extremum, coarser than the peak resolution.
	WideDU float64
	// PeakDU is the target spacing for intervals adjacent to a detected
	// extremum, where the parabolic peak fit needs full resolution.
	PeakDU float64
}

// RefinePlan computes the next round of sample points for one node's
// adaptive sweep: the log-midpoints of every interval that is (a) above
// the stability-plot threshold and wider than the wide target, or (b)
// adjacent to a current extremum of P and wider than the peak target.
// freqs must be ascending with positive entries; mags are the response
// magnitudes at those frequencies. The returned frequencies are ascending
// and distinct from the inputs; an empty result means the grid has
// converged. Fewer than 3 samples can't support the stencil and return
// nil.
func RefinePlan(freqs, mags []float64, opt RefineOptions) []float64 {
	n := len(freqs)
	if n < 3 {
		return nil
	}
	u := make([]float64, n)
	ln := make([]float64, n)
	for i := 0; i < n; i++ {
		u[i] = math.Log(freqs[i])
		ln[i] = LogMag(mags[i])
	}
	want, _ := RefinePlanLogs(freqs, u, ln, opt)
	return want
}

// LogMag is ln(m) with non-positive magnitudes clamped to the smallest
// positive float, the sanitization RefinePlan applies before the stencil.
func LogMag(m float64) float64 {
	if m <= 0 {
		m = math.SmallestNonzeroFloat64
	}
	return math.Log(m)
}

// RefinePlanLogs is RefinePlan for callers that carry the log-domain
// samples across rounds: u = ln(freqs) and ln = ln(mags), element for
// element. A multi-round adaptive sweep grows each node's grid by a
// handful of points per round, so recomputing both logarithms over the
// whole grid every round is the dominant cost of the refinement decision;
// this entry point makes the decision O(n) arithmetic with no
// transcendentals except one exp per emitted midpoint. Returns the wanted
// frequencies and their log-frequencies (wantU[i] == the exact midpoint
// value, not Log(wantF[i])).
func RefinePlanLogs(freqs, u, ln []float64, opt RefineOptions) (wantF, wantU []float64) {
	n := len(freqs)
	if n < 3 {
		return nil, nil
	}
	// Same non-uniform 3-point stencil as Plot, endpoints copied.
	p := make([]float64, n)
	for i := 1; i < n-1; i++ {
		h0, h1 := u[i]-u[i-1], u[i+1]-u[i]
		p[i] = 2 * (h1*ln[i-1] - (h0+h1)*ln[i] + h0*ln[i+1]) / (h0 * h1 * (h0 + h1))
	}
	p[0], p[n-1] = p[1], p[n-2]

	split := make([]bool, n-1)
	hot := func(i int) bool { return math.Abs(p[i]) >= opt.Threshold }
	for i := 0; i < n-1; i++ {
		if (hot(i) || hot(i+1)) && u[i+1]-u[i] > refineSplit*opt.WideDU {
			split[i] = true
		}
	}
	// Extremum-adjacent intervals refine all the way to the peak target:
	// those two intervals carry the three samples the parabolic peak fit
	// reads, so their spacing bounds the ωn/ζ accuracy.
	markPeak := func(i int) {
		if i > 0 && u[i]-u[i-1] > refineSplit*opt.PeakDU {
			split[i-1] = true
		}
		if i < n-1 && u[i+1]-u[i] > refineSplit*opt.PeakDU {
			split[i] = true
		}
	}
	for i := 1; i < n-1; i++ {
		if p[i] < 0 && p[i] <= p[i-1] && p[i] < p[i+1] && hot(i) {
			markPeak(i)
		}
		if p[i] > 0 && p[i] >= p[i-1] && p[i] > p[i+1] && hot(i) {
			markPeak(i)
		}
	}
	// High-edge extreme that never turns around in range, mirroring
	// Analyze's end-of-range handling.
	if p[n-2] < 0 && p[n-2] < p[n-3] && hot(n-2) {
		markPeak(n - 2)
	}
	for i, s := range split {
		if !s {
			continue
		}
		midU := (u[i] + u[i+1]) / 2
		mid := math.Exp(midU)
		// Guard against degenerate intervals where the midpoint rounds
		// onto an endpoint; duMin normally keeps spacings far above this.
		if mid > freqs[i] && mid < freqs[i+1] {
			wantF = append(wantF, mid)
			wantU = append(wantU, midU)
		}
	}
	return wantF, wantU
}
