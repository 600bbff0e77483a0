// Package stab implements the paper's contribution: the stability-plot
// methodology for AC-stability analysis of closed-loop continuous-time
// circuits without breaking any loop.
//
// Given a node's AC response magnitude |T(ω)| to a unit current injection
// (its driving-point impedance), the stability plot is
//
//	P(ω) = d/dω[ ω·(d|T|/dω)/|T| ]·ω  =  d² ln|T| / d(ln ω)²
//
// (paper Eq. 1.3). The double log-log differentiation cancels real poles
// and zeros (a single real pole contributes a shallow dip bounded by -0.5)
// while a complex pole pair produces a sharp negative peak at its natural
// frequency with depth P(ωn) = -1/ζ² (paper Eq. 1.4); complex zeros
// produce positive peaks. Peak location therefore identifies a potential
// oscillation frequency and peak depth its damping — hence phase margin
// and equivalent step overshoot via the second-order relationships in
// package sos (paper Table 1).
package stab

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"acstab/internal/num"
	"acstab/internal/sos"
	"acstab/internal/wave"
)

// Options configures stability-plot computation and peak classification.
type Options struct {
	// Stencil selects the finite-difference scheme for the second
	// derivative: 0 (auto: 5-point on uniform log grids, else 3-point),
	// 3 (works on non-uniform grids) or 5 (higher order, uniform log
	// grids only). At 40 points/decade the 3-point scheme underestimates
	// a zeta=0.1 peak by ~14% while the 5-point scheme stays within ~6%.
	Stencil int
	// MinPeakDepth: negative peaks shallower than this magnitude are
	// classified MinMax (numerical extremum, not a resonance). The bound
	// comes from the real-pole analysis: an isolated real pole dips to
	// -0.5 and two coincident real poles (zeta = 1) reach exactly -1.
	// Zero or negative disables the filter — every extremum above the
	// rounding floor (see noiseFloorC) is kept — so the default (0.75)
	// only applies through DefaultOptions, not to an explicitly zeroed
	// Options value.
	MinPeakDepth float64
}

// DefaultOptions returns the defaults documented in DESIGN.md.
func DefaultOptions() Options {
	return Options{Stencil: 0, MinPeakDepth: 0.75}
}

// PeakType classifies a detected stability-plot peak, mirroring the
// "special cases" notices of the paper's all-nodes report.
type PeakType int

// Peak classifications.
const (
	// PeakNormal is an interior resonance peak.
	PeakNormal PeakType = iota
	// PeakEndOfRange sits at the edge of the analyzed frequency range;
	// the resonance may lie outside the sweep.
	PeakEndOfRange
	// PeakMinMax is a shallow extremum below the real-pole bound; it does
	// not indicate a complex pole pair.
	PeakMinMax
)

// String names the peak type like the tool's report notices.
func (t PeakType) String() string {
	switch t {
	case PeakNormal:
		return "normal"
	case PeakEndOfRange:
		return "end-of-range"
	case PeakMinMax:
		return "min/max"
	}
	return fmt.Sprintf("peaktype(%d)", int(t))
}

// ParsePeakType is the inverse of String: it maps a serialized peak-type
// name (as written by the JSON report) back to its PeakType, so
// report.ParseJSON can reconstruct peaks from a machine-readable report.
func ParsePeakType(s string) (PeakType, error) {
	switch s {
	case "normal":
		return PeakNormal, nil
	case "end-of-range":
		return PeakEndOfRange, nil
	case "min/max":
		return PeakMinMax, nil
	}
	return 0, fmt.Errorf("stab: unknown peak type %q", s)
}

// Peak is one detected stability-plot extremum.
type Peak struct {
	// Freq is the natural frequency in the x unit of the input waveform
	// (Hz throughout this repo), refined by parabolic interpolation.
	Freq float64
	// Value is the stability-plot value at the refined peak: negative for
	// complex poles (the paper's "performance index"), positive for
	// complex zeros.
	Value float64
	Type  PeakType
	// IsZero marks a positive peak (complex zero); zeros do not directly
	// affect stability (paper footnote 2).
	IsZero bool
	// Zeta is the damping ratio implied by Value (NaN for zero peaks).
	Zeta float64
	// PhaseMarginDeg is the estimated phase margin (NaN for zero peaks).
	PhaseMarginDeg float64
	// OvershootPct is the equivalent step overshoot (NaN for zero peaks).
	OvershootPct float64
}

// Result is the stability analysis of one response magnitude: its peaks.
// It does not hold the stability plot; callers that show P rebuild it with
// Plot from the same magnitude and options, bit for bit the samples
// Analyze read the peaks from.
type Result struct {
	// Peaks holds every detected peak, sorted by frequency (nil if none).
	Peaks []Peak
	// Dominant points at the deepest negative non-MinMax peak, or nil.
	Dominant *Peak
}

// Plot computes the stability-plot waveform P from a response magnitude
// waveform (|T| versus frequency on a log grid). Non-positive magnitudes
// are clamped to the smallest positive double before taking logs.
// The plot takes mag.X as its own X axis (shared, not copied), so neither
// wave may have its axis modified afterwards: a tool run's grids are
// read-only across runs and goroutines, not only within one run. It is a
// one-shot Analyzer that computes its own log axis; callers plotting many
// columns reuse one.
func Plot(mag *wave.Wave, opts Options) (*wave.Wave, error) {
	return NewAnalyzer(opts).Plot(mag)
}

// Analyze computes the stability plot of a response magnitude and detects
// and classifies its peaks. opts is taken literally: a zero (or negative)
// MinPeakDepth disables the min/max filter rather than being replaced by
// the default — callers wanting defaults start from DefaultOptions. It is
// a one-shot Analyzer; callers analyzing many columns reuse one.
func Analyze(mag *wave.Wave, opts Options) (*Result, error) {
	return NewAnalyzer(opts).Analyze(mag)
}

// Axis is a frequency grid with its log axis u = ln f precomputed, the
// first index with a non-positive frequency (-1 if none) and whether u is
// uniform. One built by NewAxis is immutable and may be shared by any
// number of Analyzers on any goroutines; neither its grid nor its log
// axis may be written by anyone who holds it.
type Axis struct {
	x, u    []float64
	badX    int
	uniform bool
}

// NewAxis computes the log axis of the grid x, which it takes without
// copying; x must not be modified afterwards.
func NewAxis(x []float64) *Axis {
	ax := &Axis{}
	ax.set(x, make([]float64, len(x)))
	return ax
}

// Freqs is the grid. Read-only.
func (ax *Axis) Freqs() []float64 { return ax.x }

// Logs is u = ln f of every grid point. Read-only.
func (ax *Axis) Logs() []float64 { return ax.u }

// set makes x the axis, computing its log axis into u (len(x) long).
func (ax *Axis) set(x, u []float64) {
	ax.x, ax.u, ax.badX = x, u, -1
	for i, f := range x {
		if f <= 0 && ax.badX < 0 {
			ax.badX = i
		}
		u[i] = math.Log(f)
	}
	ax.uniform = logUniform(u)
}

// holds reports whether x is the axis's own grid slice (same first element
// and length).
func (ax *Axis) holds(x []float64) bool {
	n := len(x)
	return n == len(ax.x) && n > 0 && &x[0] == &ax.x[0]
}

// Analyzer runs Plot and Analyze over many magnitude columns that share a
// few frequency grids, as an all-nodes run's nodes share the sweep grid.
// Columns on the Axis it was built over (NewAnalyzerOn) read that axis's
// log axis as is. For any other grid it computes the log axis into its
// own scratch and keeps it, keyed by the identity of the X slice (its
// first element and length), until a column on a third grid comes. It
// also reuses its ln|T|, P and peak scratch arrays: a warm Analyze
// computes P into scratch, reads the peaks from it and allocates only the
// Result and its exact-length Peaks, and a warm AnalyzeInto into a peak
// store with room allocates nothing. An Analyzer from NewAnalyzerOn takes
// that scratch from a process-wide pool, and Release hands it back for
// the next run's Analyzer. Results are bitwise identical to the
// one-shot functions. Grids are read-only once shared (see Plot); the
// cache holds the slice, so its array cannot be freed and reused at the
// same address. An Analyzer is not safe for concurrent use; the Axis it
// borrows is, since the Analyzer never writes into it.
type Analyzer struct {
	opts Options

	shared *Axis // borrowed from NewAnalyzerOn, read-only; nil if none
	own    Axis  // the last other grid; own.u is this Analyzer's scratch
	// ax is the axis of the last column (shared or &own) and stencil the
	// stencil opts resolves to on it.
	ax      *Axis
	stencil int

	analyzerScratch
	box *analyzerScratch // the pool entry the scratch came in, if any
}

// analyzerScratch is an Analyzer's per-column scratch. No Result aliases
// it: peaks are copied out into the Result's own storage.
type analyzerScratch struct {
	ln    []float64 // ln|T|
	p     []float64 // P
	peaks []Peak
}

// scratchPool hands scratch from one run's Analyzer to the next
// (NewAnalyzerOn, Release), so a run on the grid the previous one swept
// allocates none.
var scratchPool sync.Pool

// NewAnalyzer returns an Analyzer applying opts to every column.
func NewAnalyzer(opts Options) *Analyzer {
	return &Analyzer{opts: opts}
}

// NewAnalyzerOn returns an Analyzer applying opts to every column whose
// X is ax's grid slice, reading ax's log axis without recomputing or
// writing it. Columns on other grids are handled as by NewAnalyzer. Its
// scratch comes from a pool; call Release once its last column is done.
func NewAnalyzerOn(opts Options, ax *Axis) *Analyzer {
	a := &Analyzer{opts: opts, shared: ax}
	if sc, ok := scratchPool.Get().(*analyzerScratch); ok {
		a.analyzerScratch, a.box = *sc, sc
	}
	return a
}

// Release hands the Analyzer's scratch to the pool NewAnalyzerOn takes
// from. Results never alias it, so they stay valid; the Analyzer stays
// usable too, and grows fresh scratch if it is used again.
func (a *Analyzer) Release() {
	box := a.box
	if box == nil {
		box = new(analyzerScratch)
	}
	*box = a.analyzerScratch
	a.analyzerScratch, a.box = analyzerScratch{}, nil
	scratchPool.Put(box)
}

// axis makes x the current grid: the borrowed axis when x is its grid,
// else the Analyzer's own, recomputed unless x is the grid it holds.
func (a *Analyzer) axis(x []float64) {
	if a.shared != nil && a.shared.holds(x) {
		a.ax = a.shared
	} else {
		if !a.own.holds(x) {
			a.own.set(x, slices.Grow(a.own.u[:0], len(x))[:len(x)])
		}
		a.ax = &a.own
	}
	a.stencil = a.opts.Stencil
	if a.stencil == 0 {
		a.stencil = 3
		if a.ax.uniform && len(x) >= 7 {
			a.stencil = 5
		}
	}
}

// Plot is the package-level Plot under the Analyzer's options.
func (a *Analyzer) Plot(mag *wave.Wave) (*wave.Wave, error) {
	p, err := a.plot(mag)
	if err != nil {
		return nil, err
	}
	w := wave.NewReal("stabplot("+mag.Name+")", mag.X, p)
	w.XUnit = mag.XUnit
	w.LogX = true
	return w, nil
}

// plot computes P on mag's grid into the Analyzer's scratch, valid until
// the next call.
func (a *Analyzer) plot(mag *wave.Wave) ([]float64, error) {
	n := mag.Len()
	if n < 5 {
		return nil, fmt.Errorf("stab: need at least 5 frequency points, have %d", n)
	}
	a.axis(mag.X)
	if a.ax.badX >= 0 {
		return nil, fmt.Errorf("stab: non-positive frequency at index %d", a.ax.badX)
	}
	switch a.stencil {
	case 3:
	case 5:
		if !a.ax.uniform {
			return nil, fmt.Errorf("stab: 5-point stencil needs a uniform log grid")
		}
	default:
		return nil, fmt.Errorf("stab: unsupported stencil %d (want 3 or 5)", a.opts.Stencil)
	}
	u := a.ax.u
	ln := slices.Grow(a.ln[:0], n)[:n]
	a.ln = ln
	for i := 0; i < n; i++ {
		ln[i] = LogMag(real(mag.Y[i]))
	}
	p := slices.Grow(a.p[:0], n)[:n]
	a.p = p
	if a.stencil == 3 {
		for i := 1; i < n-1; i++ {
			h0, h1 := u[i]-u[i-1], u[i+1]-u[i]
			p[i] = 2 * (h1*ln[i-1] - (h0+h1)*ln[i] + h0*ln[i+1]) / (h0 * h1 * (h0 + h1))
		}
	} else {
		h := u[1] - u[0]
		for i := 2; i < n-2; i++ {
			p[i] = (-ln[i-2] + 16*ln[i-1] - 30*ln[i] + 16*ln[i+1] - ln[i+2]) / (12 * h * h)
		}
		// Fall back to 3-point at the first/last interior points.
		for _, i := range [2]int{1, n - 2} {
			p[i] = (ln[i-1] - 2*ln[i] + ln[i+1]) / (h * h)
		}
	}
	p[0], p[n-1] = p[1], p[n-2]
	return p, nil
}

// Analyze is the package-level Analyze under the Analyzer's options.
func (a *Analyzer) Analyze(mag *wave.Wave) (*Result, error) {
	res := new(Result)
	if err := a.AnalyzeInto(res, mag, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzeInto is Analyze writing into storage the caller provides: the
// result overwrites *res, and its peaks are carved from ps (a nil ps
// allocates them at exact length, as Analyze does). On error *res is the
// zero Result.
func (a *Analyzer) AnalyzeInto(res *Result, mag *wave.Wave, ps *PeakStore) error {
	*res = Result{}
	opts := a.opts
	switch opts.Stencil {
	case 0, 3, 5:
	default:
		return fmt.Errorf("stab: unsupported stencil %d (want 0, 3 or 5)", opts.Stencil)
	}
	p, err := a.plot(mag)
	if err != nil {
		return err
	}
	n := len(p)
	u := a.ax.u // the log axis of mag.X
	peaks := a.peaks[:0]

	addPeak := func(i int, isMax bool) {
		if math.Abs(p[i]) < a.noiseFloor(i) {
			return
		}
		val := p[i]
		freq := mag.X[i]
		// Parabolic refinement in (u, P) through the three samples around
		// the extremum, with the actual (possibly non-uniform) spacing:
		// adaptive grids mix coarse and refined intervals right at a peak,
		// where the uniform-step formula would bias both the vertex and its
		// depth. For h0 == h1 the expressions reduce exactly to the
		// classic uniform ones.
		if i > 0 && i < n-1 {
			h0, h1 := u[i]-u[i-1], u[i+1]-u[i]
			dl, dr := p[i-1]-p[i], p[i+1]-p[i]
			den := h0 * h1 * (h0 + h1)
			if den != 0 {
				c := (h0*dr + h1*dl) / den
				if c != 0 {
					b := (h0*h0*dr - h1*h1*dl) / den
					du := num.Clamp(-b/(2*c), -h0, h1)
					freq = math.Exp(u[i] + du)
					val = p[i] - b*b/(4*c)
				}
			}
		}
		pk := Peak{Freq: freq, Value: val, IsZero: isMax}
		switch {
		case i <= 2 || i >= n-3:
			pk.Type = PeakEndOfRange
		case math.Abs(val) < opts.MinPeakDepth:
			pk.Type = PeakMinMax
		default:
			pk.Type = PeakNormal
		}
		if !isMax {
			pk.Zeta = sos.ZetaFromIndex(val)
			pk.PhaseMarginDeg = sos.PhaseMargin(pk.Zeta)
			pk.OvershootPct = sos.Overshoot(pk.Zeta)
		} else {
			pk.Zeta = math.NaN()
			pk.PhaseMarginDeg = math.NaN()
			pk.OvershootPct = math.NaN()
		}
		peaks = append(peaks, pk)
	}

	for i := 1; i < n-1; i++ {
		pi, pl, pr := p[i], p[i-1], p[i+1]
		if pi < 0 && pi <= pl && pi < pr {
			addPeak(i, false)
		}
		if pi > 0 && pi >= pl && pi > pr {
			addPeak(i, true)
		}
	}
	// High-edge extreme that never turned around inside the range. (The
	// low edge is covered by the main loop: p[0] duplicates p[1], so the
	// "<= previous" test passes at i=1.)
	if n >= 3 && p[n-2] < 0 && p[n-2] < p[n-3] {
		addPeak(n-2, false)
	}
	a.peaks = peaks
	slices.SortFunc(peaks, byFreq)
	if len(peaks) > 0 {
		res.Peaks = ps.take(len(peaks))
		copy(res.Peaks, peaks)
	}
	for i := range res.Peaks {
		pk := &res.Peaks[i]
		if pk.IsZero || pk.Type == PeakMinMax {
			continue
		}
		if res.Dominant == nil || pk.Value < res.Dominant.Value {
			res.Dominant = pk
		}
	}
	return nil
}

// PeakStore is storage that AnalyzeInto carves the peaks of many Results
// from, for a caller that analyzes similar columns run after run. A run
// carves from one block; peaks the block has no room left for get an
// exact-length slice of their own, and Reset starts the next run on a
// block that holds everything the last one took. The zero value has no
// block, so a run that is never reset allocates each Result's peaks at
// exact length, as Analyze does.
type PeakStore struct {
	block []Peak
	taken int // peaks handed out since the last Reset
}

// take returns storage for n peaks; a nil store allocates it.
func (s *PeakStore) take(n int) []Peak {
	if s == nil {
		return make([]Peak, n)
	}
	s.taken += n
	if l := len(s.block); cap(s.block)-l >= n {
		s.block = s.block[:l+n]
		return s.block[l : l+n : l+n]
	}
	return make([]Peak, n)
}

// Reset hands the store's block to a new run. Nothing may read the peaks
// of a Result carved from it before the call any more.
func (s *PeakStore) Reset() {
	if cap(s.block) < s.taken {
		s.block = make([]Peak, 0, s.taken)
	}
	s.block, s.taken = s.block[:0], 0
}

// noiseFloorC scales the stability plot's rounding floor (noiseFloor).
// At 40 points per decade it puts the floor near 1e-11 on the 32-loop
// resonator field, where the roundoff extrema of out-of-band resonators
// read |P| 2.9e-13 to 5.5e-13 and the smallest real spectator peak 0.2.
const noiseFloorC = 16

// noiseFloor is the rounding floor of P at sample i of the last plot: a
// |P| below it is what rounding ln|T| to double precision alone can
// produce. Each ln|T| sample carries an error of about ε·|ln|T||, and the
// stencil sums the samples with its weights, so the floor is
// noiseFloorC·ε·max|ln|T|| over the stencil's window times the sum of the
// stencil's absolute weights: 64/(12h²) for the 5-point stencil and
// 4/(h0·h1) for the 3-point one.
func (a *Analyzer) noiseFloor(i int) float64 {
	u, ln := a.ax.u, a.ln
	lo, hi := i-1, i+1
	var w float64
	if a.stencil == 5 && i >= 2 && i < len(ln)-2 {
		lo, hi = i-2, i+2
		h := u[1] - u[0]
		w = 64 / (12 * h * h)
	} else {
		w = 4 / ((u[i] - u[i-1]) * (u[i+1] - u[i]))
	}
	m := 0.0
	for _, v := range ln[lo : hi+1] {
		m = max(m, math.Abs(v))
	}
	const eps = 0x1p-52
	return noiseFloorC * eps * m * w
}

// byFreq orders peaks by ascending frequency. It is negative exactly
// where the strict "less" comparison is true, so slices.SortFunc visits
// the same comparisons as sort.Slice.
func byFreq(a, b Peak) int {
	switch {
	case a.Freq < b.Freq:
		return -1
	case a.Freq > b.Freq:
		return 1
	}
	return 0
}

// logUniform reports whether the log-frequency grid u is uniform enough
// for the high-order stencil.
func logUniform(u []float64) bool {
	if len(u) < 3 {
		return false
	}
	h := u[1] - u[0]
	if h <= 0 {
		return false
	}
	for i := 1; i < len(u)-1; i++ {
		if math.Abs((u[i+1]-u[i])-h) > 1e-6*h {
			return false
		}
	}
	return true
}
