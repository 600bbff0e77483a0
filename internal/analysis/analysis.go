// Package analysis implements the circuit analyses the tool depends on:
// DC operating point (Newton-Raphson with step damping, gmin stepping, and
// source stepping homotopies), DC and temperature sweeps, small-signal AC
// sweeps (with a shared-factorization multi-node fast path used by the
// all-nodes stability run), and transient simulation (trapezoidal or
// backward-Euler companion integration). It is the Spectre substitute the
// reproduction runs on.
package analysis

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"acstab/internal/acerr"
	"acstab/internal/linalg"
	"acstab/internal/mna"
	"acstab/internal/obs"
	"acstab/internal/sparse"
	"acstab/internal/wave"
)

// Solver counters. Increments happen at solve granularity (one atomic add
// per sweep or Newton solve, never per matrix entry), so the
// instrumentation cost is invisible next to a factorization.
var (
	mACFactorizations = obs.GetCounter("acstab_ac_factorizations_total")
	mACSolves         = obs.GetCounter("acstab_ac_solves_total")
	mNewtonIterations = obs.GetCounter("acstab_newton_iterations_total")
	mOPSolves         = obs.GetCounter("acstab_op_solves_total")
	// Two-phase sparse solver telemetry: how often the per-frequency hot
	// path got away with a pivot-free numeric refactorization, how often
	// the symbolic analysis was built versus reused across sweeps, and
	// how often the guards bounced a point to a fresh factorization.
	mACRefactorizations  = obs.GetCounter("acstab_ac_refactorizations_total")
	mACSymbolicBuilds    = obs.GetCounter("acstab_ac_symbolic_builds_total")
	mACSymbolicReuses    = obs.GetCounter("acstab_ac_symbolic_reuses_total")
	mACRefactorFallbacks = obs.GetCounter("acstab_ac_refactor_fallbacks_total")
	mACPatternDrift      = obs.GetCounter("acstab_ac_pattern_drift_total")
	// Diagonal-extraction kernel telemetry: batched Z_kk solves taken,
	// rows their compiled programs actually visited (compare
	// against 2·n·nodes·solves for the reach-restriction win), and
	// frequencies that had to fall back to full per-node substitutions
	// (dense mode is not a fallback — it never enters the kernel path).
	mACDiagSolves    = obs.GetCounter("acstab_ac_diag_solves_total")
	mACDiagRows      = obs.GetCounter("acstab_ac_diag_rows_visited_total")
	mACDiagFallbacks = obs.GetCounter("acstab_ac_diag_fallbacks_total")
	// Numerical-health observatory: per-point scale-relative residuals and
	// pivot-growth factors land in log-scale histograms (the default obs
	// buckets are duration-oriented, so these carry explicit decade
	// bounds), refinement/breach volume in counters.
	mACResidual         = obs.Default.HistogramBuckets("acstab_ac_residual", decadeBounds(-18, 0))
	mACPivotGrowth      = obs.Default.HistogramBuckets("acstab_ac_pivot_growth", decadeBounds(-2, 12))
	mACCondEst          = obs.Default.HistogramBuckets("acstab_ac_cond_estimate", decadeBounds(0, 18))
	mACRefinements      = obs.GetCounter("acstab_ac_refinements_total")
	mACResidualBreaches = obs.GetCounter("acstab_ac_residual_breaches_total")
)

// decadeBounds returns per-decade log-scale histogram upper bounds
// 10^lo .. 10^hi inclusive.
func decadeBounds(lo, hi int) []float64 {
	b := make([]float64, 0, hi-lo+1)
	for d := lo; d <= hi; d++ {
		b = append(b, math.Pow(10, float64(d)))
	}
	return b
}

// Numerics defaults: a healthy double-precision solve sits near 1e-15
// scale-relative, so a 1e-9 threshold (matching the CI accuracy gate and
// the solver property tests) never triggers refinement on a well-behaved
// sweep — the observatory is pure telemetry until something actually
// degrades. Every defResidualProbeEvery-th point of a diagonal-only sweep
// runs one full solve so its residual can be measured (the batched kernel
// produces only Z_kk and has no full solution vector to verify); that
// stride keeps the probe under the <5% sweep-overhead budget. Each sweep
// takes defCondSamples evenly spaced Hager/Higham 1-norm condition
// estimates.
const (
	defResidualThreshold  = 1e-9
	defResidualProbeEvery = 16
	defCondSamples        = 2
)

// Options tunes the solvers.
type Options struct {
	AbsTol  float64 // branch-current tolerance (A)
	VnTol   float64 // node-voltage tolerance (V)
	RelTol  float64 // relative tolerance
	Gmin    float64 // junction shunt conductance
	MaxIter int     // Newton iteration limit per solve
	// MaxStepV damps Newton: no node voltage moves more than this per
	// iteration.
	MaxStepV float64
	// Matrix selects the linear solver for AC sweeps: auto (0), dense (1),
	// sparse (2). Auto runs every system on the sparse two-phase path under
	// the shipped defaults; dense is the explicit oracle tests and
	// benchmarks force. DC always uses the dense solver (systems are
	// re-assembled each Newton iteration and stay small in this repo's
	// workloads).
	Matrix MatrixMode
	// SparseThreshold is the system size above which auto mode picks the
	// sparse solver. The default, 0, selects it for every system.
	SparseThreshold int
	// ResidualThreshold is the scale-relative backward-error level
	// ‖A·x−b‖∞/(‖A‖∞‖x‖∞+‖b‖∞) above which a frequency point triggers the
	// refinement escalation ladder. 0 selects the built-in default (1e-9);
	// a negative value disables the numerical-health observatory entirely
	// (no residual SpMV, no refinement, no residual probes, no condition
	// samples, no telemetry).
	ResidualThreshold float64
}

// MatrixMode selects the AC linear solver.
type MatrixMode int

// Matrix modes.
const (
	MatrixAuto MatrixMode = iota
	MatrixDense
	MatrixSparse
)

// DefaultOptions returns the solver defaults documented in DESIGN.md.
func DefaultOptions() Options {
	return Options{
		AbsTol:          1e-12,
		VnTol:           1e-9,
		RelTol:          1e-6,
		Gmin:            1e-12,
		MaxIter:         200,
		MaxStepV:        1.0,
		SparseThreshold: 0,
	}
}

// Sim couples a compiled system with solver options.
type Sim struct {
	Sys *mna.System
	Opt Options
	// Trace, when non-nil, accumulates solver counters (factorizations,
	// solves, Newton iterations) for the run-level trace in addition to
	// the process-wide obs registry.
	Trace *obs.Run

	// ac caches the AC matrix's stamp pattern and symbolic factorization
	// analysis, which depend only on the compiled system's structure and
	// so are computed once per Sim and shared read-only by every Fork.
	ac     *acShared
	acInit sync.Once

	// acOmega, when nonzero, pins the angular frequency the shared
	// symbolic analysis chooses its pivot order at (see PinACAnalysis).
	acOmega float64
}

// acWorkspace is the reusable numeric state of the sparse AC path, one
// per acShared (see acShared.ws). Everything in it is rebuilt when the
// symbolic analysis changes.
type acWorkspace struct {
	sym  *sparse.Symbolic
	num  *sparse.Numeric
	vals *sparse.Vals
	aff  *sparse.Affine
	// num2 and vals2 are the second lane of the pair kernels (see
	// Sim.sweep), allocated by second on a diag sweep's first pair.
	num2  *sparse.Numeric
	vals2 []complex128
	// fz is the factorizer of the sweep holding the workspace, which
	// keeps its scratch from one sweep to the next (see factorizer).
	fz acFactorizer
}

// factorizer returns the workspace's factorizer, reset for a new sweep
// but for its scratch buffers.
func (ws *acWorkspace) factorizer() *acFactorizer {
	ws.fz = acFactorizer{sweepScratch: ws.fz.sweepScratch}
	return &ws.fz
}

// newWorkspace allocates the numeric state for sym, adopting b's value
// array and affine recording when non-nil (the ones the symbolic analysis
// itself was built from).
func newWorkspace(pat *sparse.Pattern, sym *sparse.Symbolic, b *symbolicBuild) *acWorkspace {
	ws := &acWorkspace{sym: sym, num: sym.NewNumeric()}
	if b != nil {
		ws.vals, ws.aff = b.vals, b.aff
	} else {
		ws.vals, ws.aff = pat.NewVals(), pat.NewAffine()
	}
	return ws
}

// second returns the workspace's second refactor-path lane, allocating
// it on first use.
func (ws *acWorkspace) second() (*sparse.Numeric, []complex128) {
	if ws.num2 == nil {
		ws.num2, ws.vals2 = ws.sym.NewNumeric(), make([]complex128, len(ws.vals.Values()))
	}
	return ws.num2, ws.vals2
}

// acquireWorkspace hands out the shared cached workspace for one sweep
// (release via releaseWorkspace), rebuilding it if the symbolic analysis
// moved. Returns nil when another sweep on this Sim or one of its forks
// holds it.
func (sh *acShared) acquireWorkspace(pat *sparse.Pattern, sym *sparse.Symbolic, b *symbolicBuild) *acWorkspace {
	if !sh.wsBusy.CompareAndSwap(false, true) {
		return nil
	}
	if sh.ws == nil || sh.ws.sym != sym {
		sh.ws = newWorkspace(pat, sym, b)
	}
	return sh.ws
}

func (sh *acShared) releaseWorkspace() {
	sh.wsBusy.Store(false)
}

// New returns a simulator over the compiled system with default options.
func New(sys *mna.System) *Sim {
	return &Sim{Sys: sys, Opt: DefaultOptions()}
}

// Fork returns a Sim sharing the compiled system, options, trace, the
// cached AC symbolic analysis and its pinned frequency, for concurrent
// runs over one compiled circuit: the shared pieces are read-only or
// internally locked. Forks also share one cached numeric workspace,
// handed to one sweep at a time by a CAS on its busy flag; a sweep that
// loses the hand-off (a concurrent run on another fork) allocates a
// private workspace for its own duration instead.
func (s *Sim) Fork() *Sim {
	return &Sim{Sys: s.Sys, Opt: s.Opt, Trace: s.Trace, ac: s.acShared(), acOmega: s.acOmega}
}

// PinACAnalysis fixes the frequency (Hz) at which the shared sparse
// symbolic analysis chooses its pivot order, for this Sim and the forks
// made after the call. Unpinned, the analysis runs at the first frequency
// of whichever sweep reaches it first, so concurrent runs over one
// compiled circuit would get a pivot order — and last-bit rounding — that
// depends on scheduling; a pinned Sim whose shared analysis was built elsewhere at
// another frequency rebuilds it. Pinning keeps results a function of the
// circuit and the sweep alone.
func (s *Sim) PinACAnalysis(freqHz float64) { s.acOmega = 2 * math.Pi * freqHz }

// acShared returns the lazily created shared AC solver cache.
func (s *Sim) acShared() *acShared {
	s.acInit.Do(func() {
		if s.ac == nil {
			s.ac = &acShared{}
		}
	})
	return s.ac
}

// acShared holds the per-system symbolic state of the two-phase sparse AC
// solver: the frozen stamp pattern and the pivot-order/fill analysis. One
// instance is shared by every fork of a Sim; the mutex only guards the
// build-once handoff, after which both pointers are immutable.
type acShared struct {
	mu    sync.Mutex
	pat   *sparse.Pattern
	sym   *sparse.Symbolic
	omega float64 // the analysis frequency sym's pivot order came from

	// Cached diagonal-extraction plans: the compiled programs depend only
	// on the symbolic analysis and the injection node list, so one build
	// serves every fork and every frequency of an all-nodes sweep. The cache
	// holds several entries because an adaptive sweep alternates between
	// the full node list (coarse pass) and per-group subsets (refinement
	// rounds); diagSym records which symbolic the plans were derived from
	// (a drift-triggered rebuild must not reuse stale plans).
	diagSym   *sparse.Symbolic
	diagPlans []diagPlanEntry

	// ws caches the numeric workspace (Numeric, Vals and the pair kernels'
	// second lane) across sweeps of this Sim and all its forks: an
	// adaptive run issues several refinement sweeps, and every batch item
	// over one cached circuit runs on a fresh fork; each would otherwise
	// reallocate the factor arrays. The busy flag hands the workspace to
	// at most one sweep at a time, outside mu; ws is only read or written
	// by the sweep holding the flag.
	ws     *acWorkspace
	wsBusy atomic.Bool
}

// diagPlanEntry is one cached (node list -> compiled plan) binding.
type diagPlanEntry struct {
	nodes []int
	plan  *sparse.DiagPlan
}

// maxDiagPlans bounds the plan cache; an adaptive run cycles through at
// most a few dozen distinct refinement groups, so evictions are rare.
const maxDiagPlans = 64

// invalidate drops the cached analysis after pattern drift so the next
// sweep rebuilds from the current stamp structure.
func (sh *acShared) invalidate() {
	sh.mu.Lock()
	sh.pat, sh.sym = nil, nil
	sh.diagSym, sh.diagPlans = nil, nil
	sh.mu.Unlock()
}

// ensureDiagPlan returns the shared diagonal plan for the given symbolic
// analysis and injection nodes, building it on first use. Sims forked
// from one Sim hit the cache; a different node list or a rebuilt symbolic
// replaces it.
func (sh *acShared) ensureDiagPlan(sym *sparse.Symbolic, nodes []int) (*sparse.DiagPlan, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.diagSym != sym {
		sh.diagSym, sh.diagPlans = sym, sh.diagPlans[:0]
	}
	for i := range sh.diagPlans {
		if equalInts(sh.diagPlans[i].nodes, nodes) {
			return sh.diagPlans[i].plan, nil
		}
	}
	plan, err := sym.DiagPlan(nodes)
	if err != nil {
		return nil, err
	}
	if len(sh.diagPlans) >= maxDiagPlans {
		sh.diagPlans = sh.diagPlans[:0]
	}
	sh.diagPlans = append(sh.diagPlans, diagPlanEntry{
		nodes: append([]int(nil), nodes...),
		plan:  plan,
	})
	return plan, nil
}

// ACChecksum returns the structural checksum of the cached AC stamp
// pattern and whether the symbolic analysis is currently warm. It reports
// (0, false) before the first sparse sweep builds the symbolic state and
// again after pattern drift invalidates it. The farm's compiled-system
// cache compares this fingerprint across requests: a warm entry whose
// checksum moved is not the circuit it was cached as and must be
// recompiled from source.
func (s *Sim) ACChecksum() (uint64, bool) {
	sh := s.acShared()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pat == nil || sh.sym == nil {
		return 0, false
	}
	return sh.pat.Checksum(), true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// symbolicBuild is what a fresh symbolic analysis leaves behind for the
// sweep that triggered it: the affine recording of the stamp pass it was
// built from (at the sweep's operating point) and the value array it
// analyzed.
type symbolicBuild struct {
	vals *sparse.Vals
	aff  *sparse.Affine
}

// analyzeAt runs the record → compile → analyze steps of a fresh sparse
// factorization at omega (op supplies the operating point the values are
// linearized at): it records the AC stamp pattern, stamps the circuit once
// more as the affine split G + jωC, fills the values at omega from that
// recording and chooses a pivot order on them.
func (s *Sim) analyzeAt(omega float64, op *mna.OpPoint) (*sparse.Pattern, *sparse.Symbolic, *symbolicBuild, error) {
	rec := sparse.NewRecorder(s.Sys.NumUnknowns())
	s.Sys.StampAC(rec, nil, omega, op)
	pat := rec.Compile()
	aff := pat.NewAffine()
	aff.Begin()
	s.Sys.StampAC(aff, aff.RHS(), 1, op)
	if aff.Drift() {
		// Two back-to-back stamps disagreeing structurally means the
		// stamping is not deterministic; the two-phase path cannot be used.
		mACPatternDrift.Inc()
		return nil, nil, nil, fmt.Errorf("analysis: non-deterministic AC stamp pattern")
	}
	vals := pat.NewVals()
	aff.FillInto(vals.Values(), omega)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		return nil, nil, nil, err
	}
	return pat, sym, &symbolicBuild{vals: vals, aff: aff}, nil
}

// ensureSymbolic returns the shared pattern and symbolic analysis,
// building them on first use with analyzeAt at the pinned frequency if the
// Sim has one, else at omega. A build returns the affine recording and
// value array it analyzed for the caller's workspace to adopt; a reuse
// returns a nil build.
func (s *Sim) ensureSymbolic(omega float64, op *mna.OpPoint) (*sparse.Pattern, *sparse.Symbolic, *symbolicBuild, error) {
	if s.acOmega != 0 {
		omega = s.acOmega
	}
	sh := s.acShared()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sym != nil && (s.acOmega == 0 || sh.omega == omega) {
		mACSymbolicReuses.Inc()
		s.Trace.Add("ac_symbolic_reuses", 1)
		return sh.pat, sh.sym, nil, nil
	}
	pat, sym, build, err := s.analyzeAt(omega, op)
	if err != nil {
		return nil, nil, nil, err
	}
	sh.pat, sh.sym, sh.omega = pat, sym, omega
	mACSymbolicBuilds.Inc()
	mACFactorizations.Inc() // the analysis pass is a full factorization
	s.Trace.Add("ac_symbolic_builds", 1)
	s.Trace.Add("ac_factorizations", 1)
	return pat, sym, build, nil
}

// ErrNoConvergence is returned when every DC homotopy fails. It is the
// same sentinel the public package exposes as acstab.ErrNoConvergence.
var ErrNoConvergence = acerr.ErrNoConvergence

// assembleFn stamps the companion system at candidate x.
type assembleFn func(a mna.RealAdder, b []float64, x []float64)

// divergeRun is how many consecutive damped Newton iterations, each with
// a larger undamped step than the one before, make a run give up as
// diverging. Across the whole test suite (about 1.25M Newton runs: OPs,
// homotopy stages, DC sweeps, transient steps) no run that converged
// ever had more than 1 such iteration in a row. The transistor op-amp's
// plain attempt has 189 in an unbroken row: its undamped steps ask for
// 2e7 V and then ~3e9 V moves, global damping keeps the supply and input
// nodes near 0 V, and n1m walks down 1 V per iteration until MaxIter.
// Stopping at 5 hands that circuit to gmin stepping 194 iterations
// sooner. Gmin and source stepping restart from the nodeset guess (source
// stepping from its scaled copy), never from the abandoned iterate, so
// the operating point they produce is unchanged.
const divergeRun = 5

// newtonWork is the storage every Newton run of one operating point, DC
// sweep or transient run shares: the LU, whose own storage is the
// Jacobian each iteration stamps into and factors in place, the RHS, and
// the two solution buffers iterations alternate between. It is scoped to
// that one call and never stored on a Sim, so Forks and the farm's
// shared compiled circuits share nothing.
type newtonWork struct {
	lu       *linalg.LU
	x, xn, b []float64
}

func newNewtonWork(n int) *newtonWork {
	buf := make([]float64, 3*n)
	return &newtonWork{lu: linalg.NewLU(n), x: buf[:n:n], xn: buf[n : 2*n : 2*n], b: buf[2*n:]}
}

// newton runs damped Newton iteration with the given assembler, starting
// from x0, in w's storage. It returns the converged solution, which is
// one of w's buffers: valid until the next Newton run on w, which may
// take it as its x0. A run whose damped steps keep growing stops early
// as diverging (see divergeRun). A canceled ctx aborts between
// iterations — one assemble+factor+solve at most after the cancellation
// lands.
func (s *Sim) newton(ctx context.Context, w *newtonWork, assemble assembleFn, x0 []float64) ([]float64, error) {
	nn := s.Sys.NumNodes()
	x, xn, b := w.x, w.xn, w.b
	copy(x, x0)
	a := w.lu.Matrix()
	iters := 0
	defer func() {
		mNewtonIterations.Add(int64(iters))
		s.Trace.Add("newton_iterations", int64(iters))
	}()
	// prevdv is the previous iteration's undamped step when that iteration
	// was damped, else 0; growing counts the damped iterations in a row
	// whose undamped step exceeded it.
	prevdv, growing := 0.0, 0
	for iter := 0; iter < s.Opt.MaxIter; iter++ {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		iters++
		a.Zero()
		for i := range b {
			b[i] = 0
		}
		assemble(a, b, x)
		if err := w.lu.FactorInPlace(); err != nil {
			return nil, fmt.Errorf("analysis: singular matrix during Newton: %w", err)
		}
		if err := w.lu.SolveInto(xn, b); err != nil {
			return nil, err
		}
		// Damping: bound the largest node-voltage step.
		maxdv := 0.0
		for i := 0; i < nn; i++ {
			if dv := math.Abs(xn[i] - x[i]); dv > maxdv {
				maxdv = dv
			}
		}
		if s.Opt.MaxStepV > 0 && maxdv > s.Opt.MaxStepV {
			if prevdv > 0 && maxdv > prevdv {
				growing++
			} else {
				growing = 0
			}
			prevdv = maxdv
			k := s.Opt.MaxStepV / maxdv
			for i := range xn {
				xn[i] = x[i] + k*(xn[i]-x[i])
			}
		} else {
			prevdv, growing = 0, 0
		}
		converged := true
		for i := range xn {
			tol := s.Opt.AbsTol
			if i < nn {
				tol = s.Opt.VnTol
			}
			lim := tol + s.Opt.RelTol*math.Max(math.Abs(xn[i]), math.Abs(x[i]))
			if math.Abs(xn[i]-x[i]) > lim {
				converged = false
				break
			}
		}
		x, xn = xn, x
		if converged {
			return x, nil
		}
		if growing >= divergeRun {
			return nil, fmt.Errorf("%w (diverging: undamped step grew over %d damped iterations in a row)", ErrNoConvergence, divergeRun)
		}
	}
	return nil, ErrNoConvergence
}

// OP computes the DC operating point. On plain-Newton failure it falls
// back to gmin stepping and then source stepping. A canceled ctx aborts
// the Newton loops between iterations with an error wrapping
// acerr.ErrCanceled.
func (s *Sim) OP(ctx context.Context) (*mna.OpPoint, error) {
	return s.op(ctx, newNewtonWork(s.Sys.NumUnknowns()))
}

// op is OP with every Newton run — the plain attempt, each gmin stage,
// the final solve and each source step — sharing w.
func (s *Sim) op(ctx context.Context, w *newtonWork) (*mna.OpPoint, error) {
	mOPSolves.Inc()
	s.Trace.Add("op_solves", 1)
	// Initial guess: zeros, overridden by any .nodeset hints. It lives
	// outside w, so every homotopy restarts from it.
	zero := make([]float64, s.Sys.NumUnknowns())
	for node, v := range s.Sys.Ckt.NodeSet {
		if idx, ok := s.Sys.NodeOf(node); ok && idx >= 0 {
			zero[idx] = v
		}
	}
	// One assembler serves every stage; each stage sets its own gmin
	// shunt and source scale first.
	dc := mna.DCOptions{Gmin: s.Opt.Gmin, SrcScale: 1}
	assemble := func(a mna.RealAdder, b []float64, x []float64) {
		s.Sys.StampDC(a, b, x, dc)
	}
	// Plain Newton.
	if x, err := s.newton(ctx, w, assemble, zero); err == nil {
		return s.Sys.Linearize(x, s.Opt.Gmin), nil
	} else if cerr := acerr.Ctx(ctx); cerr != nil {
		// Cancellation must not cascade into the homotopies.
		return nil, cerr
	}
	// Gmin stepping: heavy shunt first, relax, warm start each stage.
	x := zero
	ok := true
	for g := 1e-2; g >= 1e-13; g /= 10 {
		dc.GminToGround = g
		xn, err := s.newton(ctx, w, assemble, x)
		if err != nil {
			ok = false
			break
		}
		x = xn
	}
	dc.GminToGround = 0
	if cerr := acerr.Ctx(ctx); cerr != nil {
		return nil, cerr
	}
	if ok {
		if xn, err := s.newton(ctx, w, assemble, x); err == nil {
			return s.Sys.Linearize(xn, s.Opt.Gmin), nil
		}
	}
	// Source stepping. The nodeset hints are voltages at the full supply,
	// so the first step starts from them scaled to its own supply; later
	// steps warm-start from the step before.
	const firstScale = 0.05
	for i := range zero {
		zero[i] *= firstScale
	}
	x = zero
	for scale := firstScale; ; scale += 0.05 {
		if scale > 1 {
			scale = 1
		}
		dc.SrcScale = scale
		xn, err := s.newton(ctx, w, assemble, x)
		if err != nil {
			if cerr := acerr.Ctx(ctx); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("%w (source stepping failed at scale %.2f)", ErrNoConvergence, scale)
		}
		x = xn
		if scale == 1 {
			return s.Sys.Linearize(x, s.Opt.Gmin), nil
		}
	}
}

// NodeVoltage reads a node voltage from an operating point.
func (s *Sim) NodeVoltage(op *mna.OpPoint, node string) (float64, error) {
	idx, ok := s.Sys.NodeOf(node)
	if !ok {
		return 0, fmt.Errorf("analysis: %w %q", acerr.ErrUnknownNode, node)
	}
	if idx < 0 {
		return 0, nil
	}
	return op.X[idx], nil
}

// SourceCurrent reads the branch current of a voltage-defined element.
func (s *Sim) SourceCurrent(op *mna.OpPoint, elem string) (float64, error) {
	br, ok := s.Sys.BranchOf(elem)
	if !ok {
		return 0, fmt.Errorf("analysis: element %q has no branch current", elem)
	}
	return op.X[br], nil
}

// useSparse reports whether AC sweeps run on the sparse solver: forced by
// Options.Matrix, or in auto mode when the system exceeds SparseThreshold
// (every system, under the default threshold of 0).
func (s *Sim) useSparse() bool {
	switch s.Opt.Matrix {
	case MatrixDense:
		return false
	case MatrixSparse:
		return true
	default:
		return s.Sys.NumUnknowns() > s.Opt.SparseThreshold
	}
}

// ACResult holds an AC sweep: per-frequency solution vectors.
type ACResult struct {
	sys   *mna.System
	Freqs []float64
	// Sol[k] is the MNA solution vector at Freqs[k].
	Sol [][]complex128
}

// NodeWave returns the complex node voltage across frequency.
func (r *ACResult) NodeWave(node string) (*wave.Wave, error) {
	idx, ok := r.sys.NodeOf(node)
	if !ok {
		return nil, fmt.Errorf("analysis: %w %q", acerr.ErrUnknownNode, node)
	}
	y := make([]complex128, len(r.Freqs))
	for k := range r.Freqs {
		if idx >= 0 {
			y[k] = r.Sol[k][idx]
		}
	}
	w := wave.New("v("+node+")", append([]float64(nil), r.Freqs...), y)
	w.XUnit = "Hz"
	w.YUnit = "V"
	w.LogX = true
	return w, nil
}

// BranchWave returns the complex branch current of a voltage-defined
// element across frequency.
func (r *ACResult) BranchWave(elem string) (*wave.Wave, error) {
	br, ok := r.sys.BranchOf(elem)
	if !ok {
		return nil, fmt.Errorf("analysis: element %q has no branch current", elem)
	}
	y := make([]complex128, len(r.Freqs))
	for k := range r.Freqs {
		y[k] = r.Sol[k][br]
	}
	w := wave.New("i("+elem+")", append([]float64(nil), r.Freqs...), y)
	w.XUnit = "Hz"
	w.YUnit = "A"
	w.LogX = true
	return w, nil
}

// cSolver is a ready factorization of one frequency point's AC matrix.
// Both implementations (sparse.Numeric, linalg.CLU) solve into
// caller-owned storage without allocating.
type cSolver interface {
	SolveInto(x, b []complex128) error
}

// acFactorizer produces a ready-to-solve factorization of the AC system
// at each frequency of a sweep. In sparse mode it reuses the Sim-shared
// symbolic analysis and owns the sweep's numeric workspaces, stamps the
// circuit once per sweep into an affine G + jωC recording, and fills every
// point from it, so the steady-state fill+factorize+solve cycle is
// stamp-free, pivot-free, map-free, and allocation-free. The structural
// checksum of that one stamp pass sends the whole sweep, and the
// collapsed-pivot guard the offending frequency, to a fresh factorization
// of the point (fullAt). In dense mode the factorization storage is reused
// across frequencies. Counter deltas accumulate locally and are published by
// flush (deferred by the callers), keeping atomics off the inner loop.
type acFactorizer struct {
	s      *Sim
	op     *mna.OpPoint
	sparse bool

	// Sparse two-phase path. aff is the sweep's one stamp pass, split into
	// G + jωC; vals holds the CSR values filled from it that the current
	// refactor-path factorization was built from, which the condition
	// estimator reads.
	pat  *sparse.Pattern
	sym  *sparse.Symbolic
	num  *sparse.Numeric
	vals *sparse.Vals
	aff  *sparse.Affine

	// cpat and cvals are the pattern and CSR values of the matrix the
	// current sparse solver was factored from: the shared ones on the
	// refactor path, a fresh factorization's own after a fallback. The
	// residual check reads them.
	cpat  *sparse.Pattern
	cvals []complex128

	// drifted tags the first point after the sweep-start stamp pass found
	// pattern drift with solveKindPatternDrift.
	drifted bool

	// ws is the shared cached workspace backing num/vals when this sweep
	// won the CAS handoff; flush releases it. Nil when another sweep held
	// it and this factorizer allocated privately. work is the workspace
	// in use either way.
	ws   *acWorkspace
	work *acWorkspace
	// cnum is the refactor-path Numeric whose values cvals holds, which
	// the condition estimate reads: num, or the second lane after a
	// pair's second point.
	cnum *sparse.Numeric

	// Dense path.
	dm  *linalg.CMatrix
	clu *linalg.CLU

	// Numerical-health observatory state (per sweep). resThreshold <= 0
	// disables the whole residual path (no extra SpMV, no scratch, no
	// condition samples).
	resThreshold float64
	condBudget   int

	sweepScratch

	refactors int64
	fulls     int64
	solves    int64

	// Numerics tallies, flushed with the counters: refinement steps taken,
	// threshold breaches, points measured, the per-decade residual digest
	// (decades obs.ResidualDecadeMin..Max), the pivot-growth and residual
	// histogram observations, sweep maxima, and the worst-residual health
	// points for slow-point capture.
	refines      int64
	breaches     int64
	resPoints    int64
	resDecades   [obs.ResidualDecadeMax - obs.ResidualDecadeMin + 1]int64
	growthHist   obs.Tally
	residualHist obs.Tally
	resMax       float64
	growthMax    float64
	condMax      float64

	// Diagonal-kernel tallies (ImpedanceDiagSweep only): batched
	// SolveDiagInto calls, rows those calls visited, and frequencies
	// bounced to full per-node substitutions.
	diagSolves    int64
	diagRows      int64
	diagFallbacks int64

	// kind names the solver path the most recent at() call took, the
	// slow-point context tag: "dense", "refactor" (pivot-free numeric
	// refill), "full" (a fresh factorization of the point, when the sweep
	// has no usable symbolic analysis), "refactor_fallback" (the refill hit
	// a collapsed pivot and this point fell back to a fresh factorization),
	// or "pattern_drift" (the sweep-start stamp pass invalidated the frozen
	// pattern; first point only).
	kind string
}

// sweepScratch is a sweep's solve scratch. A factorizer in a workspace
// keeps it from one sweep to the next, so only a sweep on a workspace of
// its own, or on the dense path, allocates it. Every buffer holds what
// the last sweep left in it.
type sweepScratch struct {
	b, x   []complex128 // right-hand side and solution
	diag   []complex128 // the diag kernel's two lanes
	r, d   []complex128 // residual + refinement-correction scratch, lazy
	cv, cz []complex128 // condition-estimate scratch, lazy
	// health holds the worst-residual points of a traced sweep, for its
	// slow-point capture; nil until a traced sweep needs it.
	health []obs.SlowPoint
}

// scratch returns n entries of *buf, reallocating it when it is shorter.
func scratch(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	return (*buf)[:n]
}

// Solver-path tags reported in slow-point captures.
const (
	solveKindDense            = "dense"
	solveKindRefactor         = "refactor"
	solveKindFull             = "full"
	solveKindRefactorFallback = "refactor_fallback"
	solveKindPatternDrift     = "pattern_drift"
	// solveKindDiag tags frequency points whose Z_kk values came from the
	// reach-restricted batched diagonal kernel rather than full
	// substitutions.
	solveKindDiag = "diag"
	// solveKindResidualEscalation tags points where a residual breach
	// escalated past in-place refinement to a fresh factorization.
	solveKindResidualEscalation = "residual_escalation"
)

// newACFactorizer prepares the per-sweep solver state: the factorizer of
// the shared workspace when the sweep wins it, else one of its own. A
// failed symbolic build is not fatal: the sweep degrades to one fresh
// factorization per frequency and each point reports its own error.
func (s *Sim) newACFactorizer(omega0 float64, op *mna.OpPoint) *acFactorizer {
	useSparse := s.useSparse()
	var fz *acFactorizer
	recordAffine := false
	if useSparse {
		if pat, sym, build, err := s.ensureSymbolic(omega0, op); err == nil {
			ws := s.acShared().acquireWorkspace(pat, sym, build)
			shared := ws != nil
			if !shared {
				ws = newWorkspace(pat, sym, build)
			}
			fz = ws.factorizer()
			if shared {
				fz.ws = ws
			}
			fz.work = ws
			fz.pat, fz.sym = pat, sym
			fz.num, fz.vals, fz.aff = ws.num, ws.vals, ws.aff
			recordAffine = build == nil
		}
	}
	if fz == nil {
		fz = new(acFactorizer)
	}
	fz.s, fz.op, fz.sparse = s, op, useSparse
	fz.growthHist, fz.residualHist = mACPivotGrowth.Tally(), mACResidual.Tally()
	switch {
	case s.Opt.ResidualThreshold > 0:
		fz.resThreshold = s.Opt.ResidualThreshold
	case s.Opt.ResidualThreshold == 0:
		fz.resThreshold = defResidualThreshold
	}
	if fz.resThreshold > 0 {
		fz.condBudget = defCondSamples
		if s.Trace != nil && fz.health == nil {
			fz.health = make([]obs.SlowPoint, 0, obs.MaxHealthPoints)
		}
	}
	fz.health = fz.health[:0]
	if recordAffine {
		fz.recordAffine()
	}
	if !useSparse {
		fz.dm = linalg.NewCMatrix(s.Sys.NumUnknowns())
	}
	return fz
}

// recordAffine runs the sweep's one stamp pass (at ω = 1, into the affine
// recorder) that every refactor-path point then fills its values from.
// The pass carries the structural checksum: when the stamp stream no
// longer matches the shared pattern, the shared analysis is dropped for
// future sweeps and this one runs out on fresh factorizations.
func (fz *acFactorizer) recordAffine() {
	s := fz.s
	fz.aff.Begin()
	s.Sys.StampAC(fz.aff, fz.aff.RHS(), 1, fz.op)
	if fz.aff.Drift() {
		mACPatternDrift.Inc()
		s.Trace.Add("ac_pattern_drift", 1)
		s.acShared().invalidate()
		fz.sym = nil
		fz.drifted = true
	}
}

// at factors the AC system at omega, returning a solver valid until the
// next call. The refactor path fills the values from the sweep's affine
// recording, a fresh-factorization fallback from its own; the dense path
// stamps them. When b is non-nil it receives the RHS excitation; the
// caller must pass it zeroed.
func (fz *acFactorizer) at(omega float64, b []complex128) (cSolver, error) {
	s := fz.s
	if !fz.sparse {
		fz.dm.Zero()
		s.Sys.StampAC(fz.dm, b, omega, fz.op)
		clu, err := linalg.CFactorInto(fz.clu, fz.dm)
		fz.clu = clu
		if err != nil {
			return nil, err
		}
		fz.fulls++
		fz.kind = solveKindDense
		return clu, nil
	}
	fz.kind = solveKindFull
	if fz.drifted {
		fz.kind = solveKindPatternDrift
		fz.drifted = false
	}
	if fz.sym != nil {
		fz.aff.FillInto(fz.vals.Values(), omega)
		if b != nil {
			copy(b, fz.aff.RHS())
		}
		if err := fz.num.Refactor(fz.vals.Values()); err == nil {
			fz.refactored(fz.num, fz.vals.Values())
			return fz.num, nil
		} else {
			// Collapsed pivot under the frozen order; retry this single
			// frequency with a fresh pivot search.
			mACRefactorFallbacks.Inc()
			s.Trace.Add("ac_refactor_fallbacks", 1)
			fz.kind = solveKindRefactorFallback
		}
	}
	return fz.fullAt(omega, b)
}

// refactored records a successful refactor-path refill of num from vals:
// the counter, the solver-path tag, the matrix the residual check and the
// condition estimate read, and the pivot-growth tally.
func (fz *acFactorizer) refactored(num *sparse.Numeric, vals []complex128) {
	fz.refactors++
	fz.kind = solveKindRefactor
	fz.cpat, fz.cvals, fz.cnum = fz.pat, vals, num
	if fz.resThreshold > 0 {
		g := num.PivotGrowth()
		fz.growthHist.Observe(g)
		if g > fz.growthMax {
			fz.growthMax = g
		}
	}
}

// pairAt refills the refactor path at two frequencies in one pass
// (sparse.RefactorPair): omegaA into num from vals, omegaB into the
// workspace's second lane, which it returns. ok is false when either
// lane's pivot collapsed; neither lane is usable then, and the caller
// runs both points through at, which finds the collapse again and falls
// back for that point alone. A successful pair still needs refactored
// for each lane, in grid order.
func (fz *acFactorizer) pairAt(omegaA, omegaB float64) (num2 *sparse.Numeric, vals2 []complex128, ok bool) {
	num2, vals2 = fz.work.second()
	fz.aff.FillInto(fz.vals.Values(), omegaA)
	fz.aff.FillInto(vals2, omegaB)
	return num2, vals2, sparse.RefactorPair(fz.num, num2, fz.vals.Values(), vals2) == nil
}

// fullAt runs a fresh two-phase factorization of the point at omega:
// analyzeAt on the point's own values, then a Numeric filled from those
// same values with no collapsed-pivot guard on the order just chosen. It
// serves the collapsed-pivot fallback, the residual ladder's escalation,
// pattern drift and a failed sweep-start symbolic build. When b is non-nil
// it receives the RHS excitation. The point's pattern and values stay
// behind in cpat/cvals for the residual check.
func (fz *acFactorizer) fullAt(omega float64, b []complex128) (cSolver, error) {
	pat, sym, build, err := fz.s.analyzeAt(omega, fz.op)
	if err != nil {
		return nil, err
	}
	if b != nil {
		copy(b, build.aff.RHS())
	}
	num := sym.NewNumeric()
	if err := num.Factor(build.vals.Values()); err != nil {
		return nil, err
	}
	fz.cpat, fz.cvals = pat, build.vals.Values()
	fz.fulls++
	return num, nil
}

// pointResidual computes the scale-relative backward error of the solve
// (x, b) the current solver path just produced, leaving the residual
// vector in fz.r for a possible refinement step. The vector lengths are
// fixed by construction, so a residual error is a bug; it reads as an
// unverifiable +Inf residual rather than a healthy one.
func (fz *acFactorizer) pointResidual(x, b []complex128) float64 {
	if fz.r == nil {
		n := fz.s.Sys.NumUnknowns()
		buf := make([]complex128, 2*n)
		fz.r, fz.d = buf[:n:n], buf[n:]
	}
	var eta float64
	var err error
	if fz.kind == solveKindDense {
		eta, err = fz.dm.ResidualInf(x, b, fz.r)
	} else {
		eta, err = fz.cpat.ResidualInf(fz.cvals, x, b, fz.r)
	}
	if err != nil {
		return math.Inf(1)
	}
	return eta
}

// verify runs the residual check and refinement-escalation ladder on one
// representative solve of the current frequency point: slv·x = b with b
// still holding the right-hand side it was solved against. On a breach it
// (1) refines x once reusing the existing factorization, (2) escalates to
// a fresh factorization plus one more refinement (refactor path
// only; restampRHS selects whether b is re-stamped as the circuit's AC
// excitation or preserved as a caller-managed injection vector), and
// (3) reports an error wrapping acerr.ErrAccuracy if even that leaves the
// residual above threshold. The returned solver is the one that produced
// the final x; callers reuse it for the remaining right-hand sides of the
// same frequency. The point's final residual is recorded either way.
func (fz *acFactorizer) verify(slv cSolver, omega, freqHz float64, x, b []complex128, restampRHS bool) (cSolver, error) {
	if fz.resThreshold <= 0 {
		return slv, nil
	}
	eta := fz.pointResidual(x, b)
	if eta > fz.resThreshold {
		fz.breaches++
		// Step 1: one refinement with the existing factorization (fz.r
		// already holds the residual from pointResidual).
		if err := slv.SolveInto(fz.d, fz.r); err == nil {
			for i := range x {
				x[i] += fz.d[i]
			}
			fz.refines++
			eta = fz.pointResidual(x, b)
		}
		// Step 2: a fresh factorization with its own pivot search, then
		// refine once more on it. Only the refactor path escalates — the
		// other sparse paths already came from a fresh factorization and
		// the dense factorization is as good as dense gets.
		if eta > fz.resThreshold && fz.kind == solveKindRefactor {
			var rb []complex128
			if restampRHS {
				rb = b
			}
			if lu, err := fz.fullAt(omega, rb); err == nil {
				fz.kind = solveKindResidualEscalation
				slv = lu
				if err := slv.SolveInto(x, b); err == nil {
					eta = fz.pointResidual(x, b)
					if eta > fz.resThreshold {
						if err := slv.SolveInto(fz.d, fz.r); err == nil {
							for i := range x {
								x[i] += fz.d[i]
							}
							fz.refines++
							eta = fz.pointResidual(x, b)
						}
					}
				}
			}
		}
		if eta > fz.resThreshold {
			fz.observeResidual(eta, freqHz)
			return slv, fmt.Errorf("analysis: residual %.2e above threshold %.2e at %g Hz after refinement and refactorization: %w",
				eta, fz.resThreshold, freqHz, acerr.ErrAccuracy)
		}
	}
	fz.observeResidual(eta, freqHz)
	return slv, nil
}

// observeResidual records one point's final backward error: histogram
// tally, per-decade digest, sweep max, and the worst-residual health capture.
func (fz *acFactorizer) observeResidual(eta, freqHz float64) {
	fz.resPoints++
	fz.residualHist.Observe(eta)
	if eta > fz.resMax {
		fz.resMax = eta
	}
	d := obs.ResidualDecadeMin
	switch {
	case math.IsInf(eta, 1):
		d = obs.ResidualDecadeMax
	case eta > 0:
		if l := int(math.Floor(math.Log10(eta))); l > d {
			d = l
		}
		if d > obs.ResidualDecadeMax {
			d = obs.ResidualDecadeMax
		}
	}
	fz.resDecades[d-obs.ResidualDecadeMin]++
	if eta <= 0 || fz.s.Trace == nil {
		return
	}
	// Keep the worst obs.MaxHealthPoints by residual.
	p := obs.SlowPoint{FreqHz: freqHz, Detail: "residual", Residual: eta}
	if len(fz.health) < cap(fz.health) {
		fz.health = append(fz.health, p)
		return
	}
	mi := 0
	for i := 1; i < len(fz.health); i++ {
		if fz.health[i].Residual < fz.health[mi].Residual {
			mi = i
		}
	}
	if len(fz.health) > 0 && eta > fz.health[mi].Residual {
		fz.health[mi] = p
	}
}

// condSampleAt takes one Hager/Higham 1-norm condition estimate when k is
// one of defCondSamples evenly spaced points of an n-point sweep and
// budget remains; with the observatory off, none does. An estimate needs
// the refactor-path factorization: its CSR values feed ‖A‖₁, and the
// conjugate-transpose solve walks the frozen fill pattern.
func (fz *acFactorizer) condSampleAt(k, n int) {
	if fz.kind != solveKindRefactor || fz.condBudget <= 0 {
		return
	}
	stride := n / defCondSamples
	if stride < 1 {
		stride = 1
	}
	if k%stride != 0 {
		return
	}
	fz.condBudget--
	if fz.cv == nil {
		nn := fz.s.Sys.NumUnknowns()
		buf := make([]complex128, 2*nn)
		fz.cv, fz.cz = buf[:nn:nn], buf[nn:]
	}
	est, err := fz.cnum.CondEst1(fz.cvals, fz.cv, fz.cz)
	if err != nil || est <= 0 {
		return
	}
	mACCondEst.Observe(est)
	if est > fz.condMax {
		fz.condMax = est
	}
}

// slowTracker keeps a sweep's worst-K frequency points by factor+solve
// wall time, tagged with the solver path each point took, so "why was this
// sweep slow" is answerable from the run trace alone. It is only allocated
// when the Sim carries a trace — an untraced sweep pays nothing, not even
// the clock reads. K is obs.MaxSlowPoints (8); each sweep flushes its
// local worst-K into the shared run, which keeps the global worst-K.
type slowTracker struct {
	pts []obs.SlowPoint
	min int64 // smallest wall time held once the tracker is full
}

// newSlowTracker returns a tracker when r collects traces, else nil (the
// nil tracker disables capture in the sweep loops).
func newSlowTracker(r *obs.Run) *slowTracker {
	if r == nil {
		return nil
	}
	return &slowTracker{pts: make([]obs.SlowPoint, 0, obs.MaxSlowPoints)}
}

// note records one frequency point's factor+solve wall time.
func (st *slowTracker) note(freqHz float64, wall time.Duration, kind string) {
	w := wall.Nanoseconds()
	if len(st.pts) < obs.MaxSlowPoints {
		st.pts = append(st.pts, obs.SlowPoint{FreqHz: freqHz, WallNS: w, Detail: kind})
		if len(st.pts) == obs.MaxSlowPoints {
			st.refreshMin()
		}
		return
	}
	if w <= st.min {
		return
	}
	for i := range st.pts {
		if st.pts[i].WallNS == st.min {
			st.pts[i] = obs.SlowPoint{FreqHz: freqHz, WallNS: w, Detail: kind}
			break
		}
	}
	st.refreshMin()
}

func (st *slowTracker) refreshMin() {
	st.min = st.pts[0].WallNS
	for _, p := range st.pts[1:] {
		if p.WallNS < st.min {
			st.min = p.WallNS
		}
	}
}

// flush hands the captured points to the run trace (nil-tracker safe, so
// callers can defer it unconditionally).
func (st *slowTracker) flush(r *obs.Run) {
	if st == nil {
		return
	}
	r.AddSlowPoints(st.pts)
	st.pts = st.pts[:0]
	st.min = 0
}

// flush publishes the accumulated counter deltas and histogram tallies.
func (fz *acFactorizer) flush() {
	fz.growthHist.Flush()
	fz.residualHist.Flush()
	mACFactorizations.Add(fz.fulls)
	mACRefactorizations.Add(fz.refactors)
	mACSolves.Add(fz.solves)
	fz.s.Trace.Add("ac_factorizations", fz.fulls)
	fz.s.Trace.Add("ac_refactorizations", fz.refactors)
	fz.s.Trace.Add("ac_solves", fz.solves)
	if fz.diagSolves != 0 || fz.diagRows != 0 || fz.diagFallbacks != 0 {
		mACDiagSolves.Add(fz.diagSolves)
		mACDiagRows.Add(fz.diagRows)
		mACDiagFallbacks.Add(fz.diagFallbacks)
		fz.s.Trace.Add("ac_diag_solves", fz.diagSolves)
		fz.s.Trace.Add("ac_diag_rows_visited", fz.diagRows)
		fz.s.Trace.Add("ac_diag_fallbacks", fz.diagFallbacks)
	}
	if fz.resPoints != 0 || fz.refines != 0 || fz.breaches != 0 {
		mACRefinements.Add(fz.refines)
		mACResidualBreaches.Add(fz.breaches)
		tr := fz.s.Trace
		tr.Add("ac_residual_points", fz.resPoints)
		tr.Add("ac_refinements", fz.refines)
		tr.Add("ac_residual_breaches", fz.breaches)
		for i, c := range fz.resDecades {
			if c != 0 && tr != nil {
				tr.Add(obs.ResidualDecadeKey(obs.ResidualDecadeMin+i), c)
			}
		}
		tr.StatMax("numerics_residual_max", fz.resMax)
		tr.StatMax("numerics_pivot_growth_max", fz.growthMax)
		tr.StatMax("numerics_cond_est_max", fz.condMax)
		tr.AddSlowPoints(fz.health)
		fz.refines, fz.breaches, fz.resPoints = 0, 0, 0
		fz.resMax, fz.growthMax, fz.condMax = 0, 0, 0
		fz.resDecades = [obs.ResidualDecadeMax - obs.ResidualDecadeMin + 1]int64{}
		fz.health = fz.health[:0]
	}
	fz.fulls, fz.refactors, fz.solves = 0, 0, 0
	fz.diagSolves, fz.diagRows, fz.diagFallbacks = 0, 0, 0
	if fz.ws != nil {
		fz.ws = nil
		fz.s.acShared().releaseWorkspace()
	}
}

// AC runs a small-signal sweep over the given frequencies (Hz) with the
// circuit's own AC sources as excitation. A canceled ctx aborts between
// frequency points — within one linear solve of the cancellation.
func (s *Sim) AC(ctx context.Context, freqs []float64, op *mna.OpPoint) (*ACResult, error) {
	sol, err := s.sweep(ctx, sweepExcite, nil, freqs, op, nil)
	if err != nil {
		return nil, err
	}
	return &ACResult{sys: s.Sys, Freqs: append([]float64(nil), freqs...), Sol: sol}, nil
}

// ImpedanceMatrixColumns computes driving-point impedances: for every
// frequency it factors the AC matrix once and back-substitutes one RHS per
// requested node (unit current injection), returning Z[nodeIdxInList][freq].
// Every column is a full solution, the reference ImpedanceDiagSweep's
// kernel is tested against. In sparse mode the factorization itself is the
// two-phase kind: the pivot order and fill pattern come from the
// Sim-shared symbolic analysis and each frequency only refills
// preallocated numeric arrays, so the steady-state loop body performs no
// allocations at all. A canceled ctx aborts between frequency points —
// within one factorization of the cancellation. The caller owns the
// columns, which are carved from one array.
func (s *Sim) ImpedanceMatrixColumns(ctx context.Context, freqs []float64, op *mna.OpPoint, nodeIdx []int) ([][]complex128, error) {
	return s.sweep(ctx, sweepColumns, nil, freqs, op, nodeIdx)
}

// ImpedanceDiagSweep computes only the driving-point diagonal
// Z_kk(ω) = (A⁻¹)_{kk} for the requested nodes, returning
// Z[nodeIdxInList][freq] with the same shape ImpedanceMatrixColumns
// produces. On the sparse refactor path it uses the batched diagonal
// kernel: each node runs a forward program compiled from the injection
// step's reach in the L elimination DAG, then a backward solve that
// terminates as soon as component k is determined. The program keeps only
// the forward rows the backward solve reads, directly or through other
// kept rows, and in them only the L terms whose source lies in the reach
// (every other term subtracts an exact zero), so each frequency costs the
// plan's RowsPerSolve rows instead of N full substitutions. The programs
// are compiled once per sweep (cached on the Sim-shared symbolic state, so
// forked Sims build them once) and the steady-state loop body is
// allocation-free. Frequencies that leave the refactor path
// — a collapsed pivot falling back to a fresh factorization, or pattern
// drift found by the sweep-start stamp pass — fall back to full
// per-node substitutions for that point and count against
// acstab_ac_diag_fallbacks_total: a fresh factorization has its own pivot
// order, which the shared plan does not describe. Dense mode has no
// elimination DAG to exploit, so there every point runs the full
// substitutions of ImpedanceMatrixColumns.
//
// On the refactor path the sweep takes grid points two at a time: one
// interleaved pass refills both (sparse.RefactorPair) and one extracts
// both diagonals (sparse.SolveDiagPair), then each point's own steps run
// in grid order. The results, counters and residual probes are those of
// a sweep refilling one point at a time. An odd last point, and both
// points of a pair whose refill collapsed, run on their own. A canceled
// ctx aborts between pairs — within two frequency points of the
// cancellation — and a traced sweep's slow-point capture notes each point
// of a pair with half the pair's wall time. The caller owns the columns,
// as with ImpedanceMatrixColumns.
func (s *Sim) ImpedanceDiagSweep(ctx context.Context, freqs []float64, op *mna.OpPoint, nodeIdx []int) ([][]complex128, error) {
	return s.ImpedanceDiagSweepInto(ctx, nil, freqs, op, nodeIdx)
}

// ImpedanceDiagSweepInto is ImpedanceDiagSweep writing into z, a column
// set the caller owns: len(nodeIdx) columns of len(freqs) entries each,
// every entry of which the sweep overwrites. A nil z gets a new set, as
// ImpedanceDiagSweep returns. It returns z, or the new set.
func (s *Sim) ImpedanceDiagSweepInto(ctx context.Context, z [][]complex128, freqs []float64, op *mna.OpPoint, nodeIdx []int) ([][]complex128, error) {
	return s.sweep(ctx, sweepDiag, z, freqs, op, nodeIdx)
}

// sweepMode selects what the per-frequency AC loop solves at each point.
type sweepMode int

const (
	// sweepExcite solves the circuit's own AC excitation and keeps each
	// point's full solution vector (AC).
	sweepExcite sweepMode = iota
	// sweepColumns injects 1 A into each requested node in turn and keeps
	// that node's entry of the full substitution (ImpedanceMatrixColumns).
	sweepColumns
	// sweepDiag reads the same entries through the reach-restricted
	// diagonal kernel wherever the sparse refactor path holds
	// (ImpedanceDiagSweep).
	sweepDiag
)

// sweep is the one per-frequency AC loop behind AC,
// ImpedanceMatrixColumns and ImpedanceDiagSweep: at each frequency it
// factors the AC matrix once and solves what mode asks for from that
// factorization. It returns Sol[freq] for sweepExcite and Z[node][freq]
// otherwise. Every point's first full solve goes through the residual
// check (verify); a kernel point only has one on every
// defResidualProbeEvery-th frequency. On the diag kernel's path it
// refills and extracts two grid points per pass (see ImpedanceDiagSweep)
// and then runs each point's steps as for one point. The impedance modes
// write into z (see ImpedanceDiagSweepInto); a nil z gets a new set of
// len(nodeIdx) columns carved from one array, each capped at its length.
func (s *Sim) sweep(ctx context.Context, mode sweepMode, z [][]complex128, freqs []float64, op *mna.OpPoint, nodeIdx []int) ([][]complex128, error) {
	out := z
	switch {
	case mode == sweepExcite:
		out = make([][]complex128, len(freqs))
	case out == nil:
		points := len(freqs)
		buf := make([]complex128, len(nodeIdx)*points)
		out = make([][]complex128, len(nodeIdx))
		for i := range out {
			out[i] = buf[i*points : (i+1)*points : (i+1)*points]
		}
	}
	if len(freqs) == 0 {
		return out, nil
	}
	if mode == sweepDiag && !s.useSparse() {
		mode = sweepColumns
	}
	var sp *obs.Span
	if mode == sweepDiag {
		sp = obs.StartPhase(s.Trace, "diag_solve")
	}
	defer sp.End()
	fz := s.newACFactorizer(2*math.Pi*freqs[0], op)
	defer fz.flush()
	slow := newSlowTracker(s.Trace)
	defer slow.flush(s.Trace)
	var plan *sparse.DiagPlan
	var diag, diag2 []complex128 // the pair's two lanes; diag alone off pairs
	if mode == sweepDiag && fz.sym != nil {
		p, err := s.acShared().ensureDiagPlan(fz.sym, nodeIdx)
		if err != nil {
			return nil, fmt.Errorf("analysis: diag sweep plan: %w", err)
		}
		plan = p
		nn := len(nodeIdx)
		buf := scratch(&fz.diag, 2*nn)
		diag, diag2 = buf[:nn:nn], buf[nn:]
	}
	n := s.Sys.NumUnknowns()
	b := scratch(&fz.b, n)
	clear(b)
	var x []complex128
	if mode != sweepExcite {
		x = scratch(&fz.x, n)
	}
	what := "impedance"
	if mode == sweepExcite {
		what = "AC"
	}

	// inject solves one unit-injection column per node of nodes on slv —
	// 1 A into the node, b all-zero elsewhere — and keeps the node's own
	// entry, its driving-point impedance, in out[i][k]. With check set the
	// first column is verified while its injection is still stamped into
	// b; an escalated factorization replaces slv for the remaining columns
	// and is returned.
	inject := func(slv cSolver, nodes []int, k int, omega, f float64, check bool) (cSolver, error) {
		for i, idx := range nodes {
			b[idx] = 1
			if err := slv.SolveInto(x, b); err != nil {
				b[idx] = 0
				return nil, fmt.Errorf("analysis: impedance at %g Hz: %w", f, err)
			}
			if check && i == 0 {
				slv2, err := fz.verify(slv, omega, f, x, b, false)
				if err != nil {
					b[idx] = 0
					return nil, err
				}
				slv = slv2
			}
			b[idx] = 0
			out[i][k] = x[idx]
		}
		return slv, nil
	}

	// finish runs grid point k's per-point steps on slv, the factorization
	// the point's refill left in fz. dk holds the point's diag kernel
	// entries and dkErr the kernel's error, dk nil when the kernel did not
	// run. It returns the point's slow-point tag.
	finish := func(k int, slv cSolver, dk []complex128, dkErr error) (string, error) {
		f := freqs[k]
		omega := 2 * math.Pi * f
		kernel := dk != nil
		switch {
		case mode == sweepExcite:
			sol := make([]complex128, n)
			if err := slv.SolveInto(sol, b); err != nil {
				return "", fmt.Errorf("analysis: AC at %g Hz: %w", f, err)
			}
			fz.solves++
			if _, err := fz.verify(slv, omega, f, sol, b, true); err != nil {
				return "", err
			}
			out[k] = sol
		case kernel:
			if dkErr != nil {
				return "", fmt.Errorf("analysis: impedance at %g Hz: %w", f, dkErr)
			}
			for i := range nodeIdx {
				out[i][k] = dk[i]
			}
			fz.diagSolves++
			fz.diagRows += plan.RowsPerSolve()
			// Sampled residual probe: the kernel produces only the Z_kk
			// values, so every defResidualProbeEvery-th frequency runs one
			// full solve for the first node and verifies it. On the shared
			// factorization the kernel's value equals the full solve's: the
			// terms its program drops subtract exact zeros, and both skip
			// zero multipliers in the terms they keep, in the same order.
			// Overwriting the kernel's value with the probe's is exact, not
			// a perturbation (at most a zero's sign changes).
			if fz.resThreshold > 0 && k%defResidualProbeEvery == 0 && len(nodeIdx) > 0 {
				slv2, err := inject(slv, nodeIdx[:1], k, omega, f, true)
				if err != nil {
					return "", err
				}
				if slv2 != slv {
					// The ladder escalated to a fresh factorization: the
					// kernel's values came from the degraded one, so redo
					// the whole point on the new solver.
					kernel = false
					fz.diagFallbacks++
					if _, err := inject(slv2, nodeIdx, k, omega, f, false); err != nil {
						return "", err
					}
				}
			}
		default:
			if mode == sweepDiag {
				// A fallback factorization (collapsed pivot, drift, or a
				// failed symbolic build) has its own pivot order, which the
				// frozen reach sets do not describe.
				fz.diagFallbacks++
			}
			if _, err := inject(slv, nodeIdx, k, omega, f, true); err != nil {
				return "", err
			}
		}
		if mode != sweepExcite {
			fz.solves += int64(len(nodeIdx))
		}
		fz.condSampleAt(k, len(freqs))
		if kernel {
			return solveKindDiag, nil
		}
		return fz.kind, nil
	}

	// solo counts the points left to run on their own after a pair whose
	// refill collapsed.
	solo := 0
	for k := 0; k < len(freqs); {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		var t0 time.Time
		if slow != nil {
			t0 = time.Now()
		}
		// On the diag kernel's path, refill and extract grid points k and
		// k+1 in one pass, then run each point's steps in grid order.
		if plan != nil && solo == 0 && k+1 < len(freqs) {
			if num2, vals2, ok := fz.pairAt(2*math.Pi*freqs[k], 2*math.Pi*freqs[k+1]); ok {
				errA, errB := sparse.SolveDiagPair(fz.num, num2, diag, diag2, plan)
				fz.refactored(fz.num, fz.vals.Values())
				tagA, err := finish(k, fz.num, diag, errA)
				if err != nil {
					return nil, err
				}
				fz.refactored(num2, vals2)
				tagB, err := finish(k+1, num2, diag2, errB)
				if err != nil {
					return nil, err
				}
				if slow != nil {
					half := time.Since(t0) / 2
					slow.note(freqs[k], half, tagA)
					slow.note(freqs[k+1], half, tagB)
				}
				k += 2
				continue
			}
			solo = 2
		}
		if solo > 0 {
			solo--
		}
		f := freqs[k]
		var rhs []complex128
		if mode == sweepExcite {
			clear(b)
			rhs = b
		}
		slv, err := fz.at(2*math.Pi*f, rhs)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s at %g Hz: %w", what, f, err)
		}
		// The plan's reach sets describe exactly the factorization the
		// refill just built under the frozen pivot order, and nothing else.
		var dk []complex128
		var dkErr error
		if plan != nil && fz.kind == solveKindRefactor {
			dk, dkErr = diag, fz.num.SolveDiagInto(diag, plan)
		}
		tag, err := finish(k, slv, dk, dkErr)
		if err != nil {
			return nil, err
		}
		if slow != nil {
			slow.note(f, time.Since(t0), tag)
		}
		k++
	}
	return out, nil
}
