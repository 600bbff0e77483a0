// Package tool orchestrates the stability analysis the way the paper's
// DFII tool does: "Single Node" and "All Nodes" run modes, auto-zeroing of
// pre-existing AC stimuli, skipped-node detection, loop clustering,
// temperature, design-variable and Monte Carlo sweep drivers, and
// design-variable overrides. One analysis runs on one goroutine.
package tool

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"acstab/internal/acerr"
	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/stab"
	"acstab/internal/wave"
)

// Run-mode telemetry. Phase timings flow through obs.StartPhase into
// `acstab_phase_duration_seconds{phase=...}` histograms; these counters
// and the running-sweeps gauge cover the sweep volume and utilization.
var (
	mAllNodesRuns    = obs.GetCounter("acstab_allnodes_runs_total")
	mSingleNodeRuns  = obs.GetCounter("acstab_singlenode_runs_total")
	mSweepNodes      = obs.GetCounter("acstab_sweep_nodes_total")
	mSweepPoints     = obs.GetCounter("acstab_sweep_freq_points_total")
	mWorkersBusy     = obs.GetGauge("acstab_sweep_workers_busy")
	mAdaptiveRounds  = obs.GetCounter("acstab_adaptive_rounds_total")
	mAdaptiveRefined = obs.GetCounter("acstab_adaptive_refined_points_total")
)

// Grid-size limits. Options come from untrusted wire requests too, so a
// run refuses a grid it cannot afford before allocating any of it.
const (
	// MaxPointsPerDecade caps PointsPerDecade and RefinePointsPerDecade;
	// the paper's workflows run 20-100 points per decade.
	MaxPointsPerDecade = 10000
	// maxSweepEntries caps the first-pass sweep's (node, frequency)
	// pairs, about 64 MiB of impedance columns.
	maxSweepEntries = 1 << 22
)

// Options configures a stability run.
type Options struct {
	FStart, FStop float64 // sweep range in Hz
	// PointsPerDecade is the uniform grid's resolution (0 selects 40;
	// above MaxPointsPerDecade is rejected).
	PointsPerDecade int
	// CoarsePointsPerDecade enables the two-level adaptive sweep: a coarse
	// uniform pass at this resolution, then recursive bisection of the
	// intervals whose stability-plot signal exceeds RefineThreshold, down
	// to RefinePointsPerDecade near detected peaks. 0 disables adaptivity
	// (every node is swept on the dense PointsPerDecade grid). Refinement
	// decisions are a pure function of each node's own samples.
	CoarsePointsPerDecade int
	// RefinePointsPerDecade caps the adaptive refinement resolution. 0
	// selects PointsPerDecade; values below CoarsePointsPerDecade or above
	// MaxPointsPerDecade are rejected.
	RefinePointsPerDecade int
	// RefineThreshold is the |P| level above which an interval counts as
	// resonant and is refined. 0 selects the default (0.5, the single-
	// real-pole bound); negative is rejected.
	RefineThreshold float64
	Stab            stab.Options
	// LoopTol is the relative frequency tolerance for loop clustering.
	LoopTol float64
	// AutoZeroAC disables pre-existing AC stimuli before the run
	// (default true, matching the tool's feature list).
	AutoZeroAC bool
	// SkipNodes lists node-name substrings to exclude from all-nodes runs
	// (e.g. supply rails).
	SkipNodes []string
	// OnlySubckt restricts the all-nodes run to the nodes of one
	// subcircuit instance (the paper's "all nodes in a circuit/
	// sub-circuit" mode): give the instance path prefix, e.g. "x1" or
	// "x1.x2". Ports shared with the parent are included.
	OnlySubckt string
	// Analysis overrides the solver options.
	Analysis *analysis.Options
	// Trace, when non-nil, collects per-phase spans and solver counters
	// for this run (acstab -stats / -trace-json, farm run traces). It is
	// excluded from serialized reports and never mutated structurally by
	// the tool, so one trace may span several Tool instances (corner and
	// temperature sweeps).
	Trace *obs.Run `json:"-"`
}

// DefaultOptions returns the defaults documented in DESIGN.md.
func DefaultOptions() Options {
	return Options{
		FStart:          1e3,
		FStop:           1e9,
		PointsPerDecade: 40,
		Stab:            stab.DefaultOptions(),
		LoopTol:         0.12,
		AutoZeroAC:      true,
	}
}

// NodeResult is the stability analysis of one node.
type NodeResult struct {
	Node string
	// Impedance is |Z| versus frequency (nil if skipped).
	Impedance *wave.Wave
	// Stab is the full stability-plot analysis (nil if skipped).
	Stab *stab.Result
	// Best is the deepest negative peak including special cases, the row
	// the all-nodes report prints; nil when the node shows no resonant
	// behaviour at all.
	Best *stab.Peak
	// Skipped marks nodes that cannot be probed (zero driving-point
	// impedance, i.e. driven by an ideal source).
	Skipped    bool
	SkipReason string
}

// Report is the outcome of an all-nodes run.
type Report struct {
	CircuitTitle string
	Temp         float64
	Options      Options
	Nodes        []NodeResult
	// Loops groups the nodes with resonant peaks by natural frequency.
	Loops []stab.Loop
}

// Tool runs stability analyses over one circuit.
type Tool struct {
	Ckt  *netlist.Circuit // original (hierarchical) circuit
	Flat *netlist.Circuit
	Sys  *mna.System
	Sim  *analysis.Sim
	Opts Options
	op   *mna.OpPoint
	// shared is the compiled artifact this Tool was built from (nil for
	// tools compiled directly by New). When set, the operating point is
	// computed once on the artifact and reused by every Tool sharing it.
	shared *Compiled
}

// New flattens and compiles the circuit and prepares the solver. The
// original circuit is not modified: auto-zeroing operates on the
// flattened copy.
func New(ckt *netlist.Circuit, opts Options) (*Tool, error) {
	opts, err := withRunDefaults(opts)
	if err != nil {
		return nil, err
	}
	c, err := Compile(ckt, opts)
	if err != nil {
		return nil, err
	}
	sim := c.base.Fork()
	sim.Trace = opts.Trace
	return &Tool{Ckt: ckt, Flat: c.Flat, Sys: c.Sys, Sim: sim, Opts: opts, shared: c}, nil
}

// ensureOP computes and caches the operating point. Tools built over a
// shared compiled artifact store the point on the artifact, so corners
// and batch variants of one circuit pay for Newton once.
func (t *Tool) ensureOP(ctx context.Context) (*mna.OpPoint, error) {
	if t.op != nil {
		return t.op, nil
	}
	if t.shared != nil {
		op, err := t.shared.ensureOP(ctx, t.Sim, t.Opts.Trace)
		if err != nil {
			return nil, err
		}
		t.op = op
		return t.op, nil
	}
	sp := obs.StartPhase(t.Opts.Trace, "op")
	op, err := t.Sim.OP(ctx)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("tool: operating point: %w", err)
	}
	t.op = op
	return t.op, nil
}

// drivenThreshold is the |Z| below which a node counts as driven by an
// ideal source and is skipped.
const drivenThreshold = 1e-9

// SingleNode runs the "Single Node" mode: inject at the named node,
// compute the stability plot, peaks, and phase-margin estimate. A node
// the circuit does not have yields an error wrapping
// acerr.ErrUnknownNode; a canceled ctx aborts the sweep within one sweep
// step (two frequency points on the diag kernel's pairs, one elsewhere)
// with an error wrapping acerr.ErrCanceled.
func (t *Tool) SingleNode(ctx context.Context, node string) (*NodeResult, error) {
	idx, ok := t.Sys.NodeOf(strings.ToLower(node))
	if !ok {
		return nil, fmt.Errorf("tool: %w %q", acerr.ErrUnknownNode, node)
	}
	if idx < 0 {
		return nil, fmt.Errorf("tool: cannot probe the ground node")
	}
	op, err := t.ensureOP(ctx)
	if err != nil {
		return nil, err
	}
	mSingleNodeRuns.Inc()
	ax, freqs, cols, err := t.columns(ctx, op, []int{idx})
	if err != nil {
		return nil, err
	}
	sp := obs.StartPhase(t.Opts.Trace, "stability")
	defer sp.End()
	an := stab.NewAnalyzerOn(t.Opts.Stab, ax)
	defer an.Release()
	return t.analyzeColumn(an, strings.ToLower(node), freqs[0], cols[0])
}

// analyzeColumn converts one impedance column into a NodeResult, using
// an, which carries the run's stability options. It consumes col: each
// Z is overwritten with |Z|, and col becomes the Impedance wave's
// samples, so the caller must not read the complex impedances again.
// The result's Impedance wave, and a stability plot stab.Plot builds from
// it, take freqs as their X axis without copying it. A first-pass grid is
// shared with every node, run and goroutine of the process that sweeps
// the same range (see firstPassAxis), and a refined grid with the Analyzer
// that caches its log axis, so every grid is read-only from here on.
func (t *Tool) analyzeColumn(an *stab.Analyzer, node string, freqs []float64, col []complex128) (*NodeResult, error) {
	res := &NodeResult{Node: node}
	maxMag := 0.0
	for i, z := range col {
		m := math.Hypot(real(z), imag(z))
		col[i] = complex(m, 0)
		if m > maxMag {
			maxMag = m
		}
	}
	if maxMag < drivenThreshold {
		res.Skipped = true
		res.SkipReason = "driven node (zero driving-point impedance)"
		return res, nil
	}
	zw := wave.New("z("+node+")", freqs, col)
	zw.XUnit = "Hz"
	zw.YUnit = "Ohm"
	zw.LogX = true
	res.Impedance = zw
	sr, err := an.Analyze(zw)
	if err != nil {
		return nil, fmt.Errorf("tool: node %s: %w", node, err)
	}
	res.Stab = sr
	for i := range sr.Peaks {
		p := &sr.Peaks[i]
		if p.IsZero {
			continue
		}
		if res.Best == nil || p.Value < res.Best.Value {
			res.Best = p
		}
	}
	return res, nil
}

// nodeList returns the node indices and names included in an all-nodes
// run after applying the OnlySubckt and SkipNodes filters.
func (t *Tool) nodeList() (idx []int, names []string) {
	var scope map[string]bool
	if t.Opts.OnlySubckt != "" {
		scope = t.subcktNodes(strings.ToLower(t.Opts.OnlySubckt))
	}
	for i, name := range t.Sys.NodeNames {
		if scope != nil && !scope[name] {
			continue
		}
		skip := false
		for _, pat := range t.Opts.SkipNodes {
			if strings.Contains(name, strings.ToLower(pat)) {
				skip = true
				break
			}
		}
		if !skip {
			idx = append(idx, i)
			names = append(names, name)
		}
	}
	return idx, names
}

// subcktNodes collects every node touched by elements of the given
// subcircuit instance (flattened names carry the instance path prefix),
// including the ports it shares with its parent.
func (t *Tool) subcktNodes(prefix string) map[string]bool {
	out := map[string]bool{}
	p := prefix + "."
	for _, e := range t.Flat.Elems {
		if !strings.HasPrefix(e.Name, p) {
			continue
		}
		for _, n := range e.Nodes {
			if !netlist.IsGround(n) {
				out[n] = true
			}
		}
	}
	return out
}

// AllNodes runs the "All Nodes" mode: every non-ground node is probed and
// the results clustered into loops. The sweep shares one matrix
// factorization per frequency across all nodes.
//
// A canceled (or deadline-expired) ctx aborts the run within one unit of
// work: the operating-point Newton loop, the sweep, and the per-node
// post-processing all check the context between units. The sweep's unit
// is a pair of frequency points on the diag kernel path and one point
// elsewhere. The returned error wraps acerr.ErrCanceled.
func (t *Tool) AllNodes(ctx context.Context) (*Report, error) {
	op, err := t.ensureOP(ctx)
	if err != nil {
		return nil, err
	}
	mAllNodesRuns.Inc()
	idx, names := t.nodeList()
	if len(idx) == 0 {
		return nil, fmt.Errorf("tool: no node left to analyze after the OnlySubckt %q and SkipNodes %q filters",
			t.Opts.OnlySubckt, t.Opts.SkipNodes)
	}
	ax, freqs, cols, err := t.columns(ctx, op, idx)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		CircuitTitle: t.Flat.Title,
		Temp:         t.Flat.Temp,
		Options:      t.Opts,
		Nodes:        make([]NodeResult, 0, len(names)),
	}
	sp := obs.StartPhase(t.Opts.Trace, "stability")
	peaks := make([]stab.NodePeak, 0, len(names))
	an := stab.NewAnalyzerOn(t.Opts.Stab, ax)
	defer an.Release()
	for i, name := range names {
		if err := acerr.Ctx(ctx); err != nil {
			sp.End()
			return nil, err
		}
		nr, err := t.analyzeColumn(an, name, freqs[i], cols[i])
		if err != nil {
			sp.End()
			return nil, err
		}
		rep.Nodes = append(rep.Nodes, *nr)
		if !nr.Skipped && nr.Best != nil {
			peaks = append(peaks, stab.NodePeak{Node: name, Peak: *nr.Best})
		}
	}
	sort.Slice(rep.Nodes, func(a, b int) bool { return rep.Nodes[a].Node < rep.Nodes[b].Node })
	sp.End()
	sp = obs.StartPhase(t.Opts.Trace, "loop_clustering")
	rep.Loops = stab.ClusterLoops(peaks, t.Opts.LoopTol)
	sp.End()
	t.Opts.Trace.Add("peaks", int64(len(peaks)))
	t.Opts.Trace.Add("loops", int64(len(rep.Loops)))
	return rep, nil
}

// columns is the one sweep driver behind SingleNode and AllNodes. Its
// first pass sweeps every node over the user's grid — PointsPerDecade, or
// CoarsePointsPerDecade when adaptive grids are on — and then
// maxRefineRounds() refinement rounds (0 unless adaptive) bisect each
// node's resonant intervals. It returns the first-pass grid's shared axis
// and each node's frequency grid and impedance column; without
// refinement every node's grid aliases the axis's one grid, which is
// read-only for every run and goroutine that holds it.
//
// A first pass of more than maxSweepEntries (node, frequency) pairs is
// refused before anything is allocated.
//
// It publishes the sweep volume: sweep_nodes, and sweep_freq_points, the
// distinct frequencies factored (the first-pass grid plus each refinement
// round's union).
func (t *Tool) columns(ctx context.Context, op *mna.OpPoint, idx []int) (*stab.Axis, [][]float64, [][]complex128, error) {
	ppd, phase := t.Opts.PointsPerDecade, "sweep"
	if t.adaptive() {
		ppd, phase = t.Opts.CoarsePointsPerDecade, "coarse_sweep"
	}
	if n := num.LogGridLen(t.Opts.FStart, t.Opts.FStop, ppd); int64(n)*int64(len(idx)) > maxSweepEntries {
		return nil, nil, nil, fmt.Errorf("tool: sweep of %d nodes x %d frequencies exceeds the limit of %d points",
			len(idx), n, maxSweepEntries)
	}
	mSweepNodes.Add(int64(len(idx)))
	t.Opts.Trace.Add("sweep_nodes", int64(len(idx)))
	ax := firstPassAxis(t.Opts.FStart, t.Opts.FStop, ppd)
	grid := ax.Freqs()
	// Every sweep of this run refactors under the pivot order chosen at
	// the grid's first frequency.
	t.Sim.PinACAnalysis(grid[0])
	sp := obs.StartPhase(t.Opts.Trace, phase)
	cols, err := t.sweep(ctx, grid, op, idx)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	freqs := make([][]float64, len(idx))
	for i := range freqs {
		freqs[i] = grid
	}
	points := int64(len(grid))
	if rounds := t.maxRefineRounds(); rounds > 0 {
		refined, err := t.refine(ctx, op, idx, rounds, ax, freqs, cols)
		if err != nil {
			return nil, nil, nil, err
		}
		points += refined
	}
	mSweepPoints.Add(points)
	t.Opts.Trace.Add("sweep_freq_points", points)
	return ax, freqs, cols, nil
}

// axisMemo is one first-pass grid, keyed by the options that build it.
type axisMemo struct {
	fstart, fstop float64
	ppd           int
	axis          *stab.Axis
}

// lastAxis memoizes the most recent first-pass axis for the life of the
// process. Runs differ in their options far less often than they repeat
// them (every corner, batch variant, temperature and Monte Carlo sample
// sweeps the same grid), so one entry serves them all without a size
// policy. The entry is immutable; a miss builds a new one and replaces it.
var lastAxis atomic.Pointer[axisMemo]

// firstPassAxis returns the shared, read-only axis of
// num.LogGridPPD(fstart, fstop, ppd), building it only when the memo
// holds another grid.
func firstPassAxis(fstart, fstop float64, ppd int) *stab.Axis {
	if m := lastAxis.Load(); m != nil && m.fstart == fstart && m.fstop == fstop && m.ppd == ppd {
		return m.axis
	}
	ax := stab.NewAxis(num.LogGridPPD(fstart, fstop, ppd))
	lastAxis.Store(&axisMemo{fstart: fstart, fstop: fstop, ppd: ppd, axis: ax})
	return ax
}

// sweep runs one ImpedanceDiagSweep on the calling goroutine; the
// columns are the solver's own, adopted without a copy.
func (t *Tool) sweep(ctx context.Context, freqs []float64, op *mna.OpPoint, idx []int) ([][]complex128, error) {
	mWorkersBusy.Inc()
	defer mWorkersBusy.Dec()
	return t.Sim.ImpedanceDiagSweep(ctx, freqs, op, idx)
}
