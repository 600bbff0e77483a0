// Package tool orchestrates the stability analysis the way the paper's
// DFII tool does: "Single Node" and "All Nodes" run modes, auto-zeroing of
// pre-existing AC stimuli, skipped-node detection, loop clustering, and
// the Monte Carlo draws of design variables. One analysis runs on one
// goroutine; several (temperatures, sweeps, corners, Monte Carlo samples)
// run as a farm batch.
package tool

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
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
	// MaxPointsPerDecade caps PointsPerDecade, CoarsePointsPerDecade and
	// RefinePointsPerDecade; the paper's workflows run 20-100 points per
	// decade.
	MaxPointsPerDecade = 10000
	// maxSweepEntries caps the first-pass sweep's (node, frequency)
	// pairs, about 64 MiB of impedance columns.
	maxSweepEntries = 1 << 22
)

// Options configures a stability run. It is also the run setup's one
// serialized form: the JSON keys of its user-settable fields are the farm
// wire's "options" object and a saved State's setup keys. Stab,
// AutoZeroAC, Analysis and Trace belong to the process and never travel.
// Resolve validates it and fills its zero values with the defaults.
type Options struct {
	FStart float64 `json:"fstart_hz,omitempty"` // sweep range in Hz
	FStop  float64 `json:"fstop_hz,omitempty"`
	// PointsPerDecade is the uniform grid's resolution.
	PointsPerDecade int `json:"points_per_decade,omitempty"`
	// CoarsePointsPerDecade enables the two-level adaptive sweep: a coarse
	// uniform pass at this resolution, then recursive bisection of the
	// intervals whose stability-plot signal exceeds RefineThreshold, down
	// to RefinePointsPerDecade near detected peaks. 0 disables adaptivity
	// (every node is swept on the dense PointsPerDecade grid). Refinement
	// decisions are a pure function of each node's own samples.
	CoarsePointsPerDecade int `json:"coarse_points_per_decade,omitempty"`
	// RefinePointsPerDecade caps the adaptive refinement resolution (0
	// selects PointsPerDecade).
	RefinePointsPerDecade int `json:"refine_points_per_decade,omitempty"`
	// RefineThreshold is the |P| level above which an interval counts as
	// resonant and is refined (0 selects 0.5, the single-real-pole bound).
	RefineThreshold float64      `json:"refine_threshold,omitempty"`
	Stab            stab.Options `json:"-"`
	// LoopTol is the relative frequency tolerance for loop clustering.
	LoopTol float64 `json:"loop_tol,omitempty"`
	// AutoZeroAC disables pre-existing AC stimuli before the run
	// (default true, matching the tool's feature list). Resolve leaves it
	// as it is, so a zero Options keeps the deck's AC stimuli: the
	// benchmark's traced walk reads it to zero the sources the way
	// Compile does, and a caller that wants them zeroed starts from
	// DefaultOptions.
	AutoZeroAC bool `json:"-"`
	// SkipNodes lists node-name substrings to exclude from all-nodes runs
	// (e.g. supply rails).
	SkipNodes []string `json:"skip_nodes,omitempty"`
	// OnlySubckt restricts the all-nodes run to the nodes of one
	// subcircuit instance (the paper's "all nodes in a circuit/
	// sub-circuit" mode): give the instance path prefix, e.g. "x1" or
	// "x1.x2". Ports shared with the parent are included.
	OnlySubckt string `json:"only_subckt,omitempty"`
	// Analysis overrides the solver options. They are compiled into a
	// Compiled artifact, so a Tool over one must not ask for others.
	Analysis *analysis.Options `json:"-"`
	// Trace, when non-nil, collects per-phase spans and solver counters
	// for this run (acstab -stats / -trace-json, farm run traces). It is
	// never mutated structurally by the tool, so one trace may span
	// several Tool instances (corner and temperature sweeps).
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

// FieldError is a run-setup rejection tied to one option. The farm worker
// answers it as {"error":{"code":"bad_option","field":...}}, so a client
// can point at the exact knob instead of re-reading a prose message.
type FieldError struct {
	// Field is the option's JSON key, as the wire and state files spell it.
	Field string
	// Reason says what is wrong with the value.
	Reason string
}

// Error implements the error interface.
func (e *FieldError) Error() string {
	return fmt.Sprintf("option %s: %s", e.Field, e.Reason)
}

// Resolve validates the run setup and fills its defaults. It is the one
// gate every run passes: New, NewFromCompiled, the farm's request decoder
// and the CLI all call it, so a local run, a corner batch and a remote
// run accept and refuse the same setups. A zero field takes its default:
// DefaultOptions' value, or on adaptive runs PointsPerDecade for
// RefinePointsPerDecade and 0.5 for RefineThreshold. A zero Stab as a
// whole takes stab.DefaultOptions(), so a run turns the min/max peak
// filter off with a negative MinPeakDepth. AutoZeroAC is not defaulted
// (see its comment). A rejection is a
// *FieldError naming the option's JSON key. Resolve is idempotent.
func (o Options) Resolve() (Options, error) {
	def := DefaultOptions()
	bad := func(field, format string, args ...any) (Options, error) {
		return o, &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if !(o.FStart >= 0) {
		return bad("fstart_hz", "must be >= 0 (0 = default %g)", def.FStart)
	}
	if o.FStart == 0 {
		o.FStart = def.FStart
	}
	if !(o.FStop >= 0) || math.IsInf(o.FStop, 1) {
		return bad("fstop_hz", "must be >= 0 and finite (0 = default %g)", def.FStop)
	}
	if o.FStop == 0 {
		o.FStop = def.FStop
	}
	if !(o.FStop > o.FStart) {
		return bad("fstop_hz", "sweep stop %g Hz not above start %g Hz", o.FStop, o.FStart)
	}
	if o.PointsPerDecade < 0 {
		return bad("points_per_decade", "must be >= 0 (0 = default %d)", def.PointsPerDecade)
	}
	if o.PointsPerDecade > MaxPointsPerDecade {
		return bad("points_per_decade", "must be <= %d", MaxPointsPerDecade)
	}
	if o.PointsPerDecade == 0 {
		o.PointsPerDecade = def.PointsPerDecade
	}
	if o.CoarsePointsPerDecade < 0 {
		return bad("coarse_points_per_decade", "must be >= 0 (0 = adaptive off)")
	}
	if o.CoarsePointsPerDecade > MaxPointsPerDecade {
		return bad("coarse_points_per_decade", "must be <= %d", MaxPointsPerDecade)
	}
	adaptive := o.CoarsePointsPerDecade > 0
	if o.RefinePointsPerDecade < 0 {
		return bad("refine_points_per_decade", "must be >= 0 (0 = points_per_decade)")
	}
	if o.RefinePointsPerDecade > 0 && !adaptive {
		return bad("refine_points_per_decade", "requires coarse_points_per_decade > 0 (adaptive sweeps only)")
	}
	if !(o.RefineThreshold >= 0) {
		return bad("refine_threshold", "must be >= 0 (0 = default %g)", defRefineThreshold)
	}
	if o.RefineThreshold > 0 && !adaptive {
		return bad("refine_threshold", "requires coarse_points_per_decade > 0 (adaptive sweeps only)")
	}
	if adaptive {
		if o.RefinePointsPerDecade == 0 {
			o.RefinePointsPerDecade = o.PointsPerDecade
		}
		if o.RefinePointsPerDecade < o.CoarsePointsPerDecade {
			return bad("refine_points_per_decade", "must be >= coarse_points_per_decade (%d)", o.CoarsePointsPerDecade)
		}
		if o.RefinePointsPerDecade > MaxPointsPerDecade {
			return bad("refine_points_per_decade", "must be <= %d", MaxPointsPerDecade)
		}
		if o.RefineThreshold == 0 {
			o.RefineThreshold = defRefineThreshold
		}
	}
	if !(o.LoopTol >= 0) {
		return bad("loop_tol", "must be >= 0 (0 = default %g)", def.LoopTol)
	}
	if o.LoopTol == 0 {
		o.LoopTol = def.LoopTol
	}
	if o.Stab == (stab.Options{}) {
		o.Stab = def.Stab
	}
	return o, nil
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

	// store is the run store Nodes and Loops live in; Release recycles
	// it.
	store *runStore
}

// Release hands the report's run store (its impedance columns, Nodes,
// their Impedance waves, stability results and peaks, Loops and the
// loops' member lists) to the next AllNodes to write over. Nothing in
// the report may be read after Release: it sets Nodes and Loops to nil,
// so a stale reader sees an empty report, not another run's data. A
// second call does nothing. A batch item calls it once its report is
// rendered.
func (r *Report) Release() {
	r.Nodes, r.Loops = nil, nil
	if r.store != nil {
		storePool.Put(r.store)
		r.store = nil
	}
}

// runStore is the storage of one all-nodes run: the first-pass sweep's
// columns (cols, carved from zbuf), the node list, the nodes' grid
// headers, the NodeResults with their Impedance waves, stability results
// and peaks, the node peaks the loops are clustered from (and whose
// sorted array holds the loops' member lists), and the loops. A fresh
// store allocates each part at the run's exact size, as the run's own
// allocations would; Report.Release puts the store in storePool, and the
// next AllNodes that fits in it writes over it without allocating.
type runStore struct {
	zbuf      []complex128
	cols      [][]complex128
	idx       []int
	names     []string
	freqs     [][]float64
	nodes     []NodeResult
	cells     []nodeCell
	peaks     stab.PeakStore
	nodePeaks []stab.NodePeak
	loops     []stab.Loop
}

// nodeCell is the storage of one node's Impedance wave and stability
// result.
type nodeCell struct {
	zw wave.Wave
	sr stab.Result
}

// storePool recycles released reports' run stores across runs.
var storePool sync.Pool

// takeStore returns a released run store, or a fresh one.
func takeStore() *runStore {
	if st, ok := storePool.Get().(*runStore); ok {
		st.peaks.Reset()
		return st
	}
	return new(runStore)
}

// columnSet carves nodes columns of points entries, each capped at its
// length, from zbuf and cols, first replacing either with an exact-size
// one when it lacks the room.
func (st *runStore) columnSet(nodes, points int) [][]complex128 {
	if cap(st.zbuf) < nodes*points {
		clear(st.cols[:cap(st.cols)]) // drop the old array
		st.zbuf = make([]complex128, nodes*points)
	}
	if cap(st.cols) < nodes {
		st.cols = make([][]complex128, nodes)
	}
	st.cols = st.cols[:nodes]
	for i := range st.cols {
		st.cols[i] = st.zbuf[i*points : (i+1)*points : (i+1)*points]
	}
	return st.cols
}

// waveName returns the Impedance wave name of node, "z(node)", reusing
// the name of the cell's last wave when it was node's. Every name a cell
// holds was made here.
func (c *nodeCell) waveName(node string) string {
	if n := c.zw.Name; n != "" && n[2:len(n)-1] == node {
		return n
	}
	return "z(" + node + ")"
}

// WorstLoop returns the loop with the deepest peak in a report, or nil.
func WorstLoop(rep *Report) *stab.Loop {
	var worst *stab.Loop
	for i := range rep.Loops {
		l := &rep.Loops[i]
		if worst == nil || l.WorstPeak < worst.WorstPeak {
			worst = l
		}
	}
	return worst
}

// Tool runs stability analyses over one circuit.
type Tool struct {
	Flat *netlist.Circuit
	Sys  *mna.System
	Sim  *analysis.Sim
	Opts Options
	op   *mna.OpPoint
	// shared is the compiled artifact this Tool was built from. The
	// operating point is computed once on it and reused by every Tool
	// sharing it.
	shared *Compiled
}

// New flattens and compiles the circuit and prepares the solver. The
// original circuit is not modified: auto-zeroing operates on the
// flattened copy.
func New(ckt *netlist.Circuit, opts Options) (*Tool, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	c, err := Compile(ckt, opts)
	if err != nil {
		return nil, err
	}
	return c.newTool(opts), nil
}

// ensureOP returns the operating point, stored on the compiled artifact
// so corners and batch variants of one circuit pay for Newton once.
func (t *Tool) ensureOP(ctx context.Context) (*mna.OpPoint, error) {
	if t.op == nil {
		op, err := t.shared.ensureOP(ctx, t.Sim, t.Opts.Trace)
		if err != nil {
			return nil, err
		}
		t.op = op
	}
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
	ax, freqs, cols, err := t.columns(ctx, op, []int{idx}, nil)
	if err != nil {
		return nil, err
	}
	sp := obs.StartPhase(t.Opts.Trace, "stability")
	defer sp.End()
	an := stab.NewAnalyzerOn(t.Opts.Stab, ax)
	defer an.Release()
	box := new(struct {
		nr   NodeResult
		cell nodeCell
	})
	if err := analyzeColumn(an, &box.nr, &box.cell, nil, strings.ToLower(node), freqs[0], cols[0]); err != nil {
		return nil, err
	}
	return &box.nr, nil
}

// analyzeColumn converts one impedance column into *nr, the analysis of
// node, using an, which carries the run's stability options. The result's
// Impedance wave and stability result live in *cell, and its peaks are
// carved from ps (nil: allocated at exact length). It consumes col: each
// Z is overwritten with |Z|, and col becomes the Impedance wave's
// samples, so the caller must not read the complex impedances again.
// The result's Impedance wave, and a stability plot stab.Plot builds from
// it, take freqs as their X axis without copying it. A first-pass grid is
// shared with every node, run and goroutine of the process that sweeps
// the same range (see firstPassAxis), and a refined grid with the Analyzer
// that caches its log axis, so every grid is read-only from here on.
func analyzeColumn(an *stab.Analyzer, nr *NodeResult, cell *nodeCell, ps *stab.PeakStore, node string, freqs []float64, col []complex128) error {
	*nr = NodeResult{Node: node}
	maxMag := 0.0
	for i, z := range col {
		m := math.Hypot(real(z), imag(z))
		col[i] = complex(m, 0)
		if m > maxMag {
			maxMag = m
		}
	}
	if maxMag < drivenThreshold {
		nr.Skipped = true
		nr.SkipReason = "driven node (zero driving-point impedance)"
		return nil
	}
	cell.zw = wave.Make(cell.waveName(node), freqs, col)
	zw := &cell.zw
	zw.XUnit = "Hz"
	zw.YUnit = "Ohm"
	zw.LogX = true
	nr.Impedance = zw
	sr := &cell.sr
	if err := an.AnalyzeInto(sr, zw, ps); err != nil {
		return fmt.Errorf("tool: node %s: %w", node, err)
	}
	nr.Stab = sr
	for i := range sr.Peaks {
		p := &sr.Peaks[i]
		if p.IsZero {
			continue
		}
		if nr.Best == nil || p.Value < nr.Best.Value {
			nr.Best = p
		}
	}
	return nil
}

// nodeList returns the node indices and names included in an all-nodes
// run after applying the OnlySubckt and SkipNodes filters, written over
// the arrays of idx and names, which it grows to hold every node.
func (t *Tool) nodeList(idx []int, names []string) ([]int, []string) {
	var scope map[string]bool
	if t.Opts.OnlySubckt != "" {
		scope = t.subcktNodes(strings.ToLower(t.Opts.OnlySubckt))
	}
	idx = slices.Grow(idx[:0], len(t.Sys.NodeNames))
	names = slices.Grow(names[:0], len(t.Sys.NodeNames))
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
// factorization per frequency across all nodes. The report lives in a
// run store: a fresh one, or the one a released report handed back.
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
	st := takeStore()
	rep, err := t.allNodes(ctx, op, st)
	if err != nil {
		// Nothing references the store of a run that failed.
		storePool.Put(st)
		return nil, err
	}
	return rep, nil
}

// allNodes is AllNodes on the run store st.
func (t *Tool) allNodes(ctx context.Context, op *mna.OpPoint, st *runStore) (*Report, error) {
	idx, names := t.nodeList(st.idx, st.names)
	st.idx, st.names = idx, names
	if len(idx) == 0 {
		return nil, fmt.Errorf("tool: no node left to analyze after the OnlySubckt %q and SkipNodes %q filters",
			t.Opts.OnlySubckt, t.Opts.SkipNodes)
	}
	ax, freqs, cols, err := t.columns(ctx, op, idx, st)
	if err != nil {
		return nil, err
	}
	st.freqs = freqs

	n := len(names)
	st.nodes = slices.Grow(st.nodes[:0], n)[:n]
	// Resliced over its old array, each cell keeps its last wave's name.
	st.cells = slices.Grow(st.cells[:0], n)[:n]
	st.nodePeaks = slices.Grow(st.nodePeaks[:0], n)
	sp := obs.StartPhase(t.Opts.Trace, "stability")
	an := stab.NewAnalyzerOn(t.Opts.Stab, ax)
	defer an.Release()
	for i, name := range names {
		if err := acerr.Ctx(ctx); err != nil {
			sp.End()
			return nil, err
		}
		nr := &st.nodes[i]
		if err := analyzeColumn(an, nr, &st.cells[i], &st.peaks, name, freqs[i], cols[i]); err != nil {
			sp.End()
			return nil, err
		}
		if !nr.Skipped && nr.Best != nil {
			st.nodePeaks = append(st.nodePeaks, stab.NodePeak{Node: name, Peak: *nr.Best})
		}
	}
	slices.SortFunc(st.nodes, func(a, b NodeResult) int { return strings.Compare(a.Node, b.Node) })
	sp.End()
	sp = obs.StartPhase(t.Opts.Trace, "loop_clustering")
	loops := stab.ClusterLoopsInto(st.loops, st.nodePeaks, t.Opts.LoopTol)
	if loops != nil {
		st.loops = loops
	}
	sp.End()
	t.Opts.Trace.Add("peaks", int64(len(st.nodePeaks)))
	t.Opts.Trace.Add("loops", int64(len(loops)))
	return &Report{
		CircuitTitle: t.Flat.Title,
		Temp:         t.Flat.Temp,
		Options:      t.Opts,
		Nodes:        st.nodes[:n:n],
		Loops:        loops,
		store:        st,
	}, nil
}

// columns is the one sweep driver behind SingleNode and AllNodes. Its
// first pass sweeps every node over the user's grid — PointsPerDecade, or
// CoarsePointsPerDecade when adaptive grids are on — and then
// maxRefineRounds() refinement rounds (0 unless adaptive) bisect each
// node's resonant intervals. It returns the first-pass grid's shared axis
// and each node's frequency grid and impedance column; without
// refinement every node's grid aliases the axis's one grid, which is
// read-only for every run and goroutine that holds it. The first pass
// sweeps into st's columns and writes the grid headers over st's (nil
// st: new ones); refinement replaces refined nodes' columns in a copy of
// the column header, so st's set stays whole.
//
// A first pass of more than maxSweepEntries (node, frequency) pairs is
// refused before anything is allocated.
//
// It publishes the sweep volume: sweep_nodes, and sweep_freq_points, the
// distinct frequencies factored (the first-pass grid plus each refinement
// round's union).
func (t *Tool) columns(ctx context.Context, op *mna.OpPoint, idx []int, st *runStore) (ax *stab.Axis, freqs [][]float64, cols [][]complex128, err error) {
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
	ax = firstPassAxis(t.Opts.FStart, t.Opts.FStop, ppd)
	grid := ax.Freqs()
	var z [][]complex128
	if st != nil {
		z, freqs = st.columnSet(len(idx), len(grid)), st.freqs
	}
	// Every sweep of this run refactors under the pivot order chosen at
	// the grid's first frequency.
	t.Sim.PinACAnalysis(grid[0])
	sp := obs.StartPhase(t.Opts.Trace, phase)
	cols, err = t.sweep(ctx, z, grid, op, idx)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	freqs = slices.Grow(freqs[:0], len(idx))[:len(idx)]
	for i := range freqs {
		freqs[i] = grid
	}
	points := int64(len(grid))
	if rounds := t.maxRefineRounds(); rounds > 0 {
		cols = slices.Clone(cols)
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

// sweep runs one ImpedanceDiagSweepInto z on the calling goroutine.
func (t *Tool) sweep(ctx context.Context, z [][]complex128, freqs []float64, op *mna.OpPoint, idx []int) ([][]complex128, error) {
	mWorkersBusy.Inc()
	defer mWorkersBusy.Dec()
	return t.Sim.ImpedanceDiagSweepInto(ctx, z, freqs, op, idx)
}
