package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the per-run span list so sweep drivers (Monte Carlo,
// corners) cannot grow a trace without limit; once hit, further spans are
// counted in DroppedSpans but still feed the registry histograms.
const maxSpans = 4096

// MaxSlowPoints bounds the slow_points section of a trace: the run keeps
// only the worst K frequency points by solve wall time.
const MaxSlowPoints = 8

// MaxHealthPoints bounds the residual-tagged entries of the slow-point
// capture: points carrying a Residual compete on backward error among
// themselves (worst residual first) in a separate quota, so a numerically
// sick point is never crowded out by merely slow ones.
const MaxHealthPoints = 4

// Run is one traced stability run: an ordered list of phase spans plus
// named solver counters. A nil *Run is valid everywhere — every method is
// a no-op on nil — so instrumented code can thread an optional trace
// without branching.
type Run struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	spans    []PhaseSpan
	counters map[string]int64
	stats    map[string]float64
	dropped  int64
	slow     []SlowPoint
}

// PhaseSpan is one timed phase inside a run.
type PhaseSpan struct {
	// Phase is the phase name (parse, flatten, mna_assembly, op, sweep,
	// stability, loop_clustering, ...).
	Phase string `json:"phase"`
	// StartNS is the offset from the run start in nanoseconds.
	StartNS int64 `json:"start_ns"`
	// DurationNS is the span length in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Attempt marks spans grafted from a remote worker's trace with the
	// 1-based submission attempt that produced them; 0 means a local span.
	// Retried farm jobs stay distinguishable in the merged trace.
	Attempt int `json:"attempt,omitempty"`
}

// SlowPoint is one slow frequency point of a sweep: the wall time its
// factor+solve step took plus the solver-path context (pivot-free
// refactorization, full factorization, fallback after a collapsed pivot).
type SlowPoint struct {
	// FreqHz is the sweep frequency of the point.
	FreqHz float64 `json:"freq_hz"`
	// WallNS is the wall time of the point's factor+solve step.
	WallNS int64 `json:"wall_ns"`
	// Detail names the solver path the point took (e.g. "refactor",
	// "refactor_fallback": this point fell back to a full factorization),
	// or "residual" for worst-residual health points.
	Detail string `json:"detail,omitempty"`
	// Residual is the scale-relative backward error of the point, set only
	// on worst-residual health points. Such points are ranked by Residual
	// in their own MaxHealthPoints quota of the capture.
	Residual float64 `json:"residual,omitempty"`
}

// Trace is the machine-readable snapshot of a finished (or in-flight) run,
// the payload of acstab -trace-json.
type Trace struct {
	Name         string           `json:"name"`
	DurationNS   int64            `json:"duration_ns"`
	Phases       []PhaseSpan      `json:"phases"`
	Counters     map[string]int64 `json:"counters,omitempty"`
	DroppedSpans int64            `json:"dropped_spans,omitempty"`
	// SlowPoints lists the worst MaxSlowPoints frequency points of the
	// run's sweeps by linear-solve wall time, worst first, followed by up
	// to MaxHealthPoints worst-residual points (Residual set).
	SlowPoints []SlowPoint `json:"slow_points,omitempty"`
	// Stats holds named float-valued numerics statistics (max residual,
	// pivot growth, condition estimate). Keys ending in "_max" merge by
	// maximum across grafted remote traces; all others merge by sum.
	Stats map[string]float64 `json:"stats,omitempty"`
}

// StartRun begins a trace.
func StartRun(name string) *Run {
	return &Run{name: name, start: time.Now(), counters: map[string]int64{}}
}

// Finish stamps the run end time. Calling it again is a no-op.
func (r *Run) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end.IsZero() {
		r.end = time.Now()
	}
}

// Add accumulates a named counter (factorizations, solves, nodes, ...).
func (r *Run) Add(name string, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// StatMax records a float-valued statistic, keeping the maximum of all
// observations (use keys ending in "_max" so remote grafts merge the same
// way). Non-positive values are ignored — every numerics statistic this
// repo tracks is positive when meaningful.
func (r *Run) StatMax(name string, v float64) {
	if r == nil || v <= 0 {
		return
	}
	r.mu.Lock()
	if r.stats == nil {
		r.stats = map[string]float64{}
	}
	if v > r.stats[name] {
		r.stats[name] = v
	}
	r.mu.Unlock()
}

// ResidualDecadePrefix prefixes the trace-counter keys of the per-run
// residual digest: ResidualDecadeKey(d) counts the frequency points whose
// scale-relative backward error landed in [10^d, 10^(d+1)). The digest
// rides the ordinary int64 counter map, so remote grafting sums it
// exactly; display layers filter the prefix out of plain counter
// listings and reconstruct a median from it (MedianResidual).
const ResidualDecadePrefix = "ac_residual_decade_"

// ResidualDecadeBuckets spans decades [-18, 0]; errors outside clamp in.
const (
	ResidualDecadeMin = -18
	ResidualDecadeMax = 0
)

// ResidualDecadeKey returns the digest counter key for decade d (clamped
// to [ResidualDecadeMin, ResidualDecadeMax]).
func ResidualDecadeKey(d int) string {
	if d < ResidualDecadeMin {
		d = ResidualDecadeMin
	}
	if d > ResidualDecadeMax {
		d = ResidualDecadeMax
	}
	return fmt.Sprintf("%s%d", ResidualDecadePrefix, d)
}

// MedianResidual estimates the median scale-relative residual from a
// counter map carrying the per-decade digest. The estimate is the
// geometric midpoint of the decade holding the median observation —
// decade resolution, which is exactly the granularity a health readout
// needs. ok is false when the map holds no digest.
func MedianResidual(counters map[string]int64) (med float64, ok bool) {
	var total int64
	counts := make(map[int]int64)
	for k, v := range counters {
		if !strings.HasPrefix(k, ResidualDecadePrefix) {
			continue
		}
		d, err := strconv.Atoi(k[len(ResidualDecadePrefix):])
		if err != nil {
			continue
		}
		counts[d] += v
		total += v
	}
	if total == 0 {
		return 0, false
	}
	var seen int64
	for d := ResidualDecadeMin; d <= ResidualDecadeMax; d++ {
		seen += counts[d]
		if 2*seen >= total {
			return math.Pow(10, float64(d)+0.5), true
		}
	}
	return 0, false
}

// Span is an open phase; End closes it. A nil *Span is valid and End is a
// no-op; so is a second End on the same span.
type Span struct {
	run   *Run
	phase string
	start time.Time
	done  atomic.Bool
}

// StartPhase opens a phase span attached to r. The span always records its
// duration into the Default registry histogram
// `acstab_phase_duration_seconds{phase="<name>"}` on End; when r is non-nil
// it is also appended to the run's trace.
func StartPhase(r *Run, phase string) *Span {
	return &Span{run: r, phase: phase, start: time.Now()}
}

// StartPhase opens a phase span on the run (nil-safe; equivalent to the
// package-level StartPhase).
func (r *Run) StartPhase(phase string) *Span { return StartPhase(r, phase) }

// End closes the span: the duration feeds the registry phase histogram
// and, if the span belongs to a run, the run's trace. End is idempotent —
// only the first call observes the histogram and appends to the trace, so
// a defensive double-End (e.g. a deferred End after an explicit one on an
// error path) does not double-count.
func (s *Span) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	phaseHistogram(s.phase).Observe(dur.Seconds())
	r := s.run
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, PhaseSpan{
		Phase:      s.phase,
		StartNS:    s.start.Sub(r.start).Nanoseconds(),
		DurationNS: dur.Nanoseconds(),
	})
}

// phaseHists caches each phase's duration histogram in the Default
// registry, so closing a span costs neither a name concatenation nor a
// registry lookup.
var phaseHists = struct {
	sync.Mutex
	m map[string]*Histogram
}{m: map[string]*Histogram{}}

// phaseHistogram returns the `acstab_phase_duration_seconds{phase=...}`
// histogram for phase.
func phaseHistogram(phase string) *Histogram {
	phaseHists.Lock()
	defer phaseHists.Unlock()
	h, ok := phaseHists.m[phase]
	if !ok {
		h = GetHistogram(`acstab_phase_duration_seconds{phase="` + phase + `"}`)
		phaseHists.m[phase] = h
	}
	return h
}

// Trace snapshots the run. It can be called before Finish; the duration
// then reflects "so far".
func (r *Run) Trace() Trace {
	if r == nil {
		return Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.end
	if end.IsZero() {
		end = time.Now()
	}
	t := Trace{
		Name:         r.name,
		DurationNS:   end.Sub(r.start).Nanoseconds(),
		Phases:       append([]PhaseSpan(nil), r.spans...),
		DroppedSpans: r.dropped,
		SlowPoints:   append([]SlowPoint(nil), r.slow...),
	}
	if len(r.counters) > 0 {
		t.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			t.Counters[k] = v
		}
	}
	if len(r.stats) > 0 {
		t.Stats = make(map[string]float64, len(r.stats))
		for k, v := range r.stats {
			t.Stats[k] = v
		}
	}
	return t
}

// AddSlowPoints merges candidate slow points into the run, keeping only
// the worst MaxSlowPoints by wall time (worst first). Sweeps each track a
// local worst-K and flush it here, so the run holds the global worst-K
// across every sweep it spans.
func (r *Run) AddSlowPoints(pts []SlowPoint) {
	if r == nil || len(pts) == 0 {
		return
	}
	r.mu.Lock()
	r.mergeSlowPointsLocked(pts)
	r.mu.Unlock()
}

func (r *Run) mergeSlowPointsLocked(pts []SlowPoint) {
	r.slow = append(r.slow, pts...)
	// Wall-time points and residual-tagged health points keep separate
	// quotas: wall points rank by WallNS (worst MaxSlowPoints), health
	// points (Residual > 0) rank by Residual (worst MaxHealthPoints) and
	// sort after the wall points. A sick-but-fast point therefore always
	// survives the merge.
	wall := r.slow[:0]
	var health []SlowPoint
	for _, p := range r.slow {
		if p.Residual > 0 {
			health = append(health, p)
		} else {
			wall = append(wall, p)
		}
	}
	sort.SliceStable(wall, func(i, j int) bool { return wall[i].WallNS > wall[j].WallNS })
	if len(wall) > MaxSlowPoints {
		wall = wall[:MaxSlowPoints]
	}
	sort.SliceStable(health, func(i, j int) bool { return health[i].Residual > health[j].Residual })
	if len(health) > MaxHealthPoints {
		health = health[:MaxHealthPoints]
	}
	r.slow = append(wall, health...)
}

// GraftRemote merges a remote worker's trace into the run as a subtree of
// the request that fetched it: every remote span is annotated with the
// 1-based submission attempt and re-anchored inside the local request
// window [reqStart, reqStart+reqDur). Remote span offsets are relative to
// the remote run's own start, so absolute clocks never mix — the remote
// timeline is placed at reqStart plus half the window slack (splitting the
// network round-trip symmetrically), which keeps grafted spans inside the
// request span even under arbitrary clock skew. Remote counters, dropped
// spans, and slow points merge into the run's own.
func (r *Run) GraftRemote(t Trace, reqStart time.Time, reqDur time.Duration, attempt int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	anchor := reqStart.Sub(r.start).Nanoseconds()
	if slack := reqDur.Nanoseconds() - t.DurationNS; slack > 0 {
		anchor += slack / 2
	}
	if anchor < 0 {
		anchor = 0
	}
	for _, sp := range t.Phases {
		if len(r.spans) >= maxSpans {
			r.dropped++
			continue
		}
		r.spans = append(r.spans, PhaseSpan{
			Phase:      sp.Phase,
			StartNS:    anchor + sp.StartNS,
			DurationNS: sp.DurationNS,
			Attempt:    attempt,
		})
	}
	for k, v := range t.Counters {
		r.counters[k] += v
	}
	// Float stats: "_max" keys keep the maximum across grafts, everything
	// else sums — the same semantics the per-decade residual digest gets
	// for free from the counter merge above.
	if len(t.Stats) > 0 {
		if r.stats == nil {
			r.stats = make(map[string]float64, len(t.Stats))
		}
		for k, v := range t.Stats {
			if strings.HasSuffix(k, "_max") {
				if v > r.stats[k] {
					r.stats[k] = v
				}
			} else {
				r.stats[k] += v
			}
		}
	}
	r.dropped += t.DroppedSpans
	r.mergeSlowPointsLocked(t.SlowPoints)
}

// WriteJSON writes the trace as indented JSON (the -trace-json payload).
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Trace())
}

// phaseAgg is one row of the human summary.
type phaseAgg struct {
	name  string
	count int
	total time.Duration
}

// WriteSummary prints the human-readable run summary behind acstab -stats:
// per-phase wall time (aggregated over repeated phases), the share of the
// run each phase took, and the solver counters.
func (r *Run) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	t := r.Trace()
	total := time.Duration(t.DurationNS)
	agg := map[string]*phaseAgg{}
	var order []string
	for _, sp := range t.Phases {
		a, ok := agg[sp.Phase]
		if !ok {
			a = &phaseAgg{name: sp.Phase}
			agg[sp.Phase] = a
			order = append(order, sp.Phase)
		}
		a.count++
		a.total += time.Duration(sp.DurationNS)
	}
	if _, err := fmt.Fprintf(w, "run %s: %s total\n", t.Name, total.Round(time.Microsecond)); err != nil {
		return err
	}
	for _, name := range order {
		a := agg[name]
		share := 0.0
		if total > 0 {
			share = 100 * float64(a.total) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "  phase %-16s %12s  %5.1f%%  (x%d)\n",
			a.name, a.total.Round(time.Microsecond), share, a.count); err != nil {
			return err
		}
	}
	if t.DroppedSpans > 0 {
		if _, err := fmt.Fprintf(w, "  (%d spans dropped beyond the %d-span trace cap)\n", t.DroppedSpans, maxSpans); err != nil {
			return err
		}
	}
	if len(t.Counters) > 0 {
		names := make([]string, 0, len(t.Counters))
		for k := range t.Counters {
			// The residual digest feeds the numerics block below, not the
			// raw counter listing.
			if !strings.HasPrefix(k, ResidualDecadePrefix) {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		if len(names) > 0 {
			if _, err := fmt.Fprintln(w, "solver counters:"); err != nil {
				return err
			}
			for _, k := range names {
				if _, err := fmt.Fprintf(w, "  %-24s %d\n", k, t.Counters[k]); err != nil {
					return err
				}
			}
		}
	}
	if err := writeNumericsSummary(w, t); err != nil {
		return err
	}
	if len(t.SlowPoints) > 0 {
		if _, err := fmt.Fprintln(w, "slowest frequency points:"); err != nil {
			return err
		}
		for _, p := range t.SlowPoints {
			detail := p.Detail
			if p.Residual > 0 {
				detail = fmt.Sprintf("%s (residual %.2e)", p.Detail, p.Residual)
			}
			if _, err := fmt.Fprintf(w, "  %12.4g Hz  %12s  %s\n",
				p.FreqHz, time.Duration(p.WallNS).Round(time.Microsecond), detail); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeNumericsSummary prints the numerical-health block of a run summary:
// max/median scale-relative residual, refinement/breach/fallback counts,
// pivot growth, and the sampled condition estimate. Silent when the run
// carried no residual telemetry (numerics disabled or no AC sweep).
func writeNumericsSummary(w io.Writer, t Trace) error {
	points := t.Counters["ac_residual_points"]
	if points == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "numerical health:"); err != nil {
		return err
	}
	if max := t.Stats["numerics_residual_max"]; max > 0 {
		if _, err := fmt.Fprintf(w, "  %-24s %.2e\n", "residual max", max); err != nil {
			return err
		}
	}
	if med, ok := MedianResidual(t.Counters); ok {
		if _, err := fmt.Fprintf(w, "  %-24s %.2e (over %d points)\n", "residual median", med, points); err != nil {
			return err
		}
	}
	for _, row := range []struct {
		label string
		key   string
	}{
		{"refinements", "ac_refinements"},
		{"residual breaches", "ac_residual_breaches"},
		{"refactor fallbacks", "ac_refactor_fallbacks"},
	} {
		if _, err := fmt.Fprintf(w, "  %-24s %d\n", row.label, t.Counters[row.key]); err != nil {
			return err
		}
	}
	if g := t.Stats["numerics_pivot_growth_max"]; g > 0 {
		if _, err := fmt.Fprintf(w, "  %-24s %.3g\n", "pivot growth max", g); err != nil {
			return err
		}
	}
	if c := t.Stats["numerics_cond_est_max"]; c > 0 {
		if _, err := fmt.Fprintf(w, "  %-24s %.3g\n", "condition estimate", c); err != nil {
			return err
		}
	}
	return nil
}
