package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"acstab/internal/analysis"
	"acstab/internal/farm"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
	"acstab/internal/wave"
)

// The traced pass. It walks each analysis through the modules' public
// functions from outside, in the order tool.New + tool.AllNodes /
// tool.SingleNode (and, on the wire, the farm item path) compose them,
// with a bench-owned span around every call. The program's own obs.Run
// phases (diag_solve on the sparse path) are merged in as child spans by
// interval containment, and its solver counters are read from the same
// run. Every walk must render the same report bytes as the untraced
// shipped path on the same input; otherwise the pass fails instead of
// reporting numbers.

// span is one timed interval of the traced pass.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Analysis int    `json:"analysis"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Program marks spans merged from the program's obs.Run phases.
	Program bool `json:"program,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps the pass's spans in memory; they are written out when the
// pass ends.
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int
	analysis int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Analysis: t.analysis,
		StartNS: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds()
}

// step runs f inside a span named name.
func (t *tracer) step(name string, f func() error) error {
	t.begin(name)
	err := f()
	t.end()
	return err
}

// mergePhases adds the phases of a finished program run as children of
// the innermost bench span (from index first on) that contains each one.
// runStart is the wall time taken right after obs.StartRun; the two
// clocks differ by well under the slack.
func (t *tracer) mergePhases(tc obs.Trace, runStart time.Time, first int) {
	const slack = 2 * time.Microsecond
	off := runStart.Sub(t.epoch).Nanoseconds()
	n := len(t.spans)
	for _, ph := range tc.Phases {
		s := off + ph.StartNS
		e := s + ph.DurationNS
		parent := -1
		for i := first; i < n; i++ {
			sp := t.spans[i]
			if sp.StartNS-int64(slack) <= s && e <= sp.EndNS+int64(slack) &&
				(parent < 0 || sp.dur() <= t.spans[parent].dur()) {
				parent = i
			}
		}
		if parent < 0 {
			continue
		}
		t.spans = append(t.spans, span{Name: "phase." + ph.Phase, ID: len(t.spans), Parent: parent,
			Analysis: t.spans[parent].Analysis, StartNS: s, EndNS: e, Program: true})
	}
}

// walked is the outcome of one traced layer walk.
type walked struct {
	report   []byte
	sim      *analysis.Sim
	op       *mna.OpPoint
	flat     *netlist.Circuit
	idx      []int
	grid     []float64
	peaks    []stab.NodePeak
	counters map[string]int64
	shallow  int
}

// compileWalk runs parse → flatten → MNA compile → OP, each in its own
// span, applying design-variable overrides the way the farm does.
func compileWalk(ctx context.Context, t *tracer, text string, vars map[string]float64, run *obs.Run) (*walked, error) {
	w := &walked{}
	var ckt *netlist.Circuit
	var sys *mna.System
	opts := tool.DefaultOptions()
	err := t.step("netlist.parse", func() (err error) {
		ckt, err = parseWithVars(text, vars)
		return err
	})
	if err == nil {
		err = t.step("netlist.flatten", func() (err error) {
			if w.flat, err = netlist.Flatten(ckt); err == nil && opts.AutoZeroAC {
				w.flat.ZeroACSources()
			}
			return err
		})
	}
	if err == nil {
		err = t.step("mna.compile", func() (err error) {
			sys, err = mna.Compile(w.flat)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	w.sim = analysis.New(sys)
	w.sim.Trace = run
	err = t.step("analysis.op", func() (err error) {
		w.op, err = w.sim.OP(ctx)
		return err
	})
	return w, err
}

// parseWithVars parses netlist text and applies design-variable overrides
// the way the farm does.
func parseWithVars(text string, vars map[string]float64) (*netlist.Circuit, error) {
	ckt, err := netlist.Parse(text)
	if err != nil {
		return nil, err
	}
	for k, v := range vars {
		ckt.Params[k] = v
	}
	return ckt, nil
}

// sweepWalk runs sweep → stab → cluster → report on a compiled circuit,
// mirroring tool.SingleNode (node != "") or tool.AllNodes with the
// default options and one sweep worker (GOMAXPROCS=1).
func sweepWalk(ctx context.Context, t *tracer, w *walked, node string, asJSON bool) error {
	opts := tool.DefaultOptions()
	w.grid = num.LogGridPPD(opts.FStart, opts.FStop, opts.PointsPerDecade)
	var names []string
	if node != "" {
		node = strings.ToLower(node)
		i, ok := w.sim.Sys.NodeOf(node)
		if !ok || i < 0 {
			return fmt.Errorf("cannot probe node %q", node)
		}
		w.idx, names = []int{i}, []string{node}
	} else {
		for i, name := range w.sim.Sys.NodeNames {
			w.idx = append(w.idx, i)
			names = append(names, name)
		}
	}
	var cols [][]complex128
	err := t.step("analysis.sweep", func() (err error) {
		if node != "" {
			cols, err = w.sim.ImpedanceMatrixColumns(ctx, w.grid, w.op, w.idx)
		} else {
			cols, err = w.sim.ImpedanceDiagSweep(ctx, w.grid, w.op, w.idx)
		}
		return err
	})
	if err != nil {
		return err
	}
	nodes := make([]tool.NodeResult, len(names))
	err = t.step("stab.analyze", func() error {
		for i, name := range names {
			nr, err := nodeResult(name, w.grid, cols[i], opts.Stab)
			if err != nil {
				return err
			}
			nodes[i] = *nr
			if !nr.Skipped && nr.Best != nil {
				w.peaks = append(w.peaks, stab.NodePeak{Node: name, Peak: *nr.Best})
			}
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].Node < nodes[b].Node })
		return nil
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if node != "" {
		err = t.step("report.render", func() error {
			writeSingle(&buf, &nodes[0])
			return nil
		})
		w.report = buf.Bytes()
		return err
	}
	rep := &tool.Report{CircuitTitle: w.flat.Title, Temp: w.flat.Temp, Options: opts, Nodes: nodes}
	t.step("stab.cluster", func() error {
		rep.Loops = stab.ClusterLoops(w.peaks, opts.LoopTol)
		return nil
	})
	for _, l := range rep.Loops {
		if l.WorstPeak > -1 {
			w.shallow++
		}
	}
	err = t.step("report.render", func() error {
		if asJSON {
			return report.JSON(&buf, rep)
		}
		return report.Text(&buf, rep)
	})
	w.report = buf.Bytes()
	return err
}

// drivenThreshold mirrors the tool's |Z| floor below which a node counts
// as driven by an ideal source and is skipped.
const drivenThreshold = 1e-9

// nodeResult turns one impedance column into a NodeResult the way the
// tool does: magnitude waveform, stability plot, deepest negative peak.
func nodeResult(node string, freqs []float64, col []complex128, o stab.Options) (*tool.NodeResult, error) {
	res := &tool.NodeResult{Node: node}
	mags := make([]float64, len(col))
	maxMag := 0.0
	for i, z := range col {
		mags[i] = math.Hypot(real(z), imag(z))
		maxMag = math.Max(maxMag, mags[i])
	}
	if maxMag < drivenThreshold {
		res.Skipped = true
		res.SkipReason = "driven node (zero driving-point impedance)"
		return res, nil
	}
	zw := wave.NewReal("z("+node+")", append([]float64(nil), freqs...), mags)
	zw.XUnit, zw.YUnit, zw.LogX = "Hz", "Ohm", true
	res.Impedance = zw
	sr, err := stab.Analyze(zw, o)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", node, err)
	}
	res.Stab = sr
	for i := range sr.Peaks {
		p := &sr.Peaks[i]
		if !p.IsZero && (res.Best == nil || p.Value < res.Best.Value) {
			res.Best = p
		}
	}
	return res, nil
}

// underRoot runs f under an "analysis" root span with a fresh program
// run, merges the run's phases into the spans and returns its solver
// counters.
func underRoot(t *tracer, f func(run *obs.Run) error) (map[string]int64, error) {
	run := obs.StartRun("acbench")
	runStart := time.Now()
	first := len(t.spans)
	t.begin("analysis")
	err := f(run)
	t.end()
	run.Finish()
	tc := run.Trace()
	t.mergePhases(tc, runStart, first)
	return tc.Counters, err
}

// walkCLI is one traced CLI analysis, netlist text to rendered report.
func walkCLI(ctx context.Context, t *tracer, j *job) (*walked, error) {
	var w *walked
	counters, err := underRoot(t, func(run *obs.Run) (err error) {
		if w, err = compileWalk(ctx, t, j.text, nil, run); err != nil {
			return err
		}
		return sweepWalk(ctx, t, w, j.node, false)
	})
	if err != nil {
		return nil, err
	}
	w.counters = counters
	return w, nil
}

// tally accumulates the per-layer metrics of one traced pass and checks
// every report it sees.
type tally struct {
	checker
	analyses int
	counters map[string]float64
	points   float64
	shallow  float64
	bytes    float64
	wall     time.Duration // traced analysis wall, summed
	overhead time.Duration // traced minus untraced wall, summed
	// clusterReplica is the time of one stab.ClusterLoops call on a Single
	// Node walk's peak (Single Node mode itself does not cluster).
	clusterReplica time.Duration
	kernel         []kernelStats
	// Wire leg.
	items      []float64
	transport  time.Duration
	requests   int
	hits, miss int64
}

func (ta *tally) addWalk(w *walked) {
	ta.analyses++
	for k, v := range w.counters {
		ta.counters[k] += float64(v)
	}
	ta.points += float64(len(w.grid) * len(w.idx))
	ta.shallow += float64(w.shallow)
	ta.bytes += float64(len(w.report))
}

// timeWalk records a walk's traced wall time against the untraced wall
// time of the same analysis on the shipped path.
func (ta *tally) timeWalk(traced, untraced time.Duration) {
	ta.wall += traced
	ta.overhead += traced - untraced
}

// sameReport is the fidelity check of a traced walk: it must render the
// bytes the shipped path rendered for the same input.
func sameReport(j *job, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: traced layer walk rendered a different report than the shipped path", j.family)
	}
	return nil
}

// rootDur returns the duration of the last "analysis" root of analysis a.
func rootDur(t *tracer, a int) time.Duration {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Parent < 0 && s.Analysis == a && s.Name == "analysis" {
			return s.dur()
		}
	}
	return 0
}

// budget bounds a loop of the traced pass: step i runs when i < least, or
// when i < limit and the deadline has not passed.
type budget time.Time

func (b budget) more(i, least, limit int) bool {
	return i < limit && (i < least || time.Now().Before(time.Time(b)))
}

func after(seconds float64) budget {
	return budget(time.Now().Add(time.Duration(seconds * float64(time.Second))))
}

// tracedPass walks the workload's analyses layer by layer for about 0.4 of
// seconds (at least one family cycle), sends them over the wire for about
// 0.1 more, then runs the kernel replica, the size sweep and the
// parallel-efficiency pass, and writes the spans and a Chrome trace to
// traceDir.
func tracedPass(ctx context.Context, w *workload, pool []job, seed int64, seconds float64, traceDir string) (map[string]float64, *tally, error) {
	t := newTracer()
	ta := &tally{counters: map[string]float64{}}
	var replicas []*walked
	var err error
	if w.batch {
		replicas, err = tracedBatch(ctx, pool, t, ta, seconds)
	} else {
		replicas, err = tracedCLI(ctx, w, pool, t, ta, seconds)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, wk := range replicas {
		ks, err := kernelReplica(ctx, wk)
		if err != nil {
			return nil, nil, err
		}
		ta.kernel = append(ta.kernel, ks)
	}
	layers := layerMetrics(t, ta)
	if err := sizeSweep(ctx, seed, layers); err != nil {
		return nil, nil, err
	}
	eff, err := parallelEfficiency(ctx, seed)
	if err != nil {
		return nil, nil, err
	}
	layers["tool.parallel_efficiency"] = eff
	if err := writeTrace(traceDir, w.name, t); err != nil {
		return nil, nil, err
	}
	return layers, ta, nil
}

// tracedCLI is the traced pass of a CLI workload: each walk is checked
// against an untraced run of the shipped path on the same entry, and the
// difference of their wall times is the tracing overhead. The walks of
// the first family cycle are returned for the kernel replica. Single Node
// mode does not cluster; for it a replica times stab.ClusterLoops on the
// first walk's dominant peak, so stab.cluster_us is measured on every
// workload.
func tracedCLI(ctx context.Context, w *workload, pool []job, t *tracer, ta *tally, seconds float64) ([]*walked, error) {
	var replicas []*walked
	b := after(0.4 * seconds)
	for i := 0; b.more(i, w.cycle, len(pool)); i++ {
		j := &pool[i]
		// The shipped path runs twice, untraced: the first run warms it as
		// the walk that follows is warm, the second is the reference the
		// tracing overhead is measured against.
		if _, err := runCLI(ctx, j); err != nil {
			return nil, fmt.Errorf("%s: %w", j.family, err)
		}
		t0 := time.Now()
		want, err := runCLI(ctx, j)
		untraced := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.family, err)
		}
		t.analysis = i
		wk, err := walkCLI(ctx, t, j)
		if err != nil {
			return nil, fmt.Errorf("%s traced walk: %w", j.family, err)
		}
		if err := sameReport(j, wk.report, want); err != nil {
			return nil, err
		}
		ta.verify(j, 0, wk.report, nil, false)
		ta.addWalk(wk)
		ta.timeWalk(rootDur(t, i), untraced)
		if i < w.cycle {
			replicas = append(replicas, wk)
		}
	}
	if pool[0].node != "" {
		loopTol := tool.DefaultOptions().LoopTol
		ta.clusterReplica, _ = timePass(func() error { // cannot fail
			stab.ClusterLoops(replicas[0].peaks, loopTol)
			return nil
		})
	}
	return replicas, wireLeg(ctx, pool, t, ta, after(0.1*seconds), w.cycle, len(pool), nil)
}

// tracedBatch is the traced pass of the batch workload. Each variant is
// compiled once under a "compile" root (the work a cache miss pays, so
// parse through OP are per cold compile here), and once more untraced
// through tool.Compile as the reference of the cache-hit path. The wire
// leg then sends the batches to a warm worker; every answered variant's
// cache-hit path (sweep → stab → cluster → JSON report) is walked under
// an "analysis" root and must render the worker's own item body. The
// first variant's walk is returned for the kernel replica.
func tracedBatch(ctx context.Context, pool []job, t *tracer, ta *tally, seconds float64) ([]*walked, error) {
	opts := tool.DefaultOptions()
	cold := make([][]*walked, len(pool))
	ref := make([][]*tool.Compiled, len(pool))
	for b := range pool {
		j := &pool[b]
		for v := range j.variants {
			vars := j.variantVars(v)
			t.analysis = b*cornerVariants + v
			run := obs.StartRun("acbench")
			t.begin("compile")
			wk, err := compileWalk(ctx, t, j.text, vars, run)
			t.end()
			if err != nil {
				return nil, fmt.Errorf("%s variant %d: %w", j.family, v, err)
			}
			ta.counters["newton_iterations"] += float64(run.Trace().Counters["newton_iterations"])
			cold[b] = append(cold[b], wk)
			ckt, err := parseWithVars(j.text, vars)
			if err != nil {
				return nil, err
			}
			c, err := tool.Compile(ckt, opts)
			if err == nil {
				err = cacheHitRun(ctx, c)
			}
			if err != nil {
				return nil, fmt.Errorf("%s variant %d reference: %w", j.family, v, err)
			}
			ref[b] = append(ref[b], c)
		}
	}
	var replicas []*walked
	visit := func(b, v int, body []byte) error {
		j := &pool[b]
		t0 := time.Now()
		if err := cacheHitRun(ctx, ref[b][v]); err != nil {
			return err
		}
		untraced := time.Since(t0)
		id := b*cornerVariants + v
		t.analysis = id
		wk := *cold[b][v]
		wk.sim = cold[b][v].sim.Fork()
		counters, err := underRoot(t, func(run *obs.Run) error {
			wk.sim.Trace = run
			return sweepWalk(ctx, t, &wk, "", true)
		})
		if err != nil {
			return fmt.Errorf("%s variant %d traced walk: %w", j.family, v, err)
		}
		wk.counters = counters
		if err := sameReport(j, wk.report, body); err != nil {
			return err
		}
		ta.addWalk(&wk)
		ta.timeWalk(rootDur(t, id), untraced)
		if len(replicas) == 0 {
			replicas = append(replicas, &wk)
		}
		return nil
	}
	return replicas, wireLeg(ctx, pool, t, ta, after(0.5*seconds), len(pool), 4*len(pool), visit)
}

// cacheHitRun is the untraced cache-hit path of a farm item: a tool over
// the shared compiled artifact, an all-nodes run, the JSON report.
func cacheHitRun(ctx context.Context, c *tool.Compiled) error {
	tl, err := tool.NewFromCompiled(c, tool.DefaultOptions())
	if err != nil {
		return err
	}
	rep, err := tl.AllNodes(ctx)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	return report.JSON(&buf, rep)
}

// wireLeg sends pool entries to a fresh in-process farm worker over one
// keep-alive connection while b lasts (entries least to limit). Each
// entry's first request is preceded by an untimed cold one that fills the
// worker's compile cache, so the timed requests take the cache-hit path
// the corner-batch workload measures. Each timed request replays the
// client's JSON encoding and the server's farm.DecodeBatchRequest in
// spans of their own; every answered item is verified against the
// reference verdict and, when visit is set, handed to it with its body.
func wireLeg(ctx context.Context, pool []job, t *tracer, ta *tally, b budget, least, limit int, visit func(entry, variant int, body []byte) error) error {
	wkr, err := startWorker()
	if err != nil {
		return err
	}
	defer wkr.close()
	hits := obs.GetCounter("acstab_cache_hits_total")
	misses := obs.GetCounter("acstab_cache_misses_total")
	for r := 0; b.more(r, least, limit); r++ {
		e := r % len(pool)
		j := &pool[e]
		if r < len(pool) {
			if err := runAll(ctx, wkr, pool[e:e+1]); err != nil {
				return fmt.Errorf("%s cold request: %w", j.family, err)
			}
		}
		req := wireRequest(j)
		t.analysis = e * j.analyses()
		var payload []byte
		if err := t.step("farm.encode", func() (err error) {
			wire := *req
			wire.V = farm.WireV2
			payload, err = json.Marshal(&wire)
			return err
		}); err != nil {
			return err
		}
		if err := t.step("farm.decode", func() error {
			if _, _, we := farm.DecodeBatchRequest(payload); we != nil {
				return we
			}
			return nil
		}); err != nil {
			return err
		}
		h0, m0 := hits.Value(), misses.Value()
		t0 := time.Now()
		res, err := wkr.client.SubmitBatch(ctx, req)
		wall := time.Since(t0)
		if err != nil {
			return err
		}
		ta.hits += hits.Value() - h0
		ta.miss += misses.Value() - m0
		ta.requests++
		var items time.Duration
		for v, item := range res {
			ta.verify(j, v, item.Body, item.Err, true)
			if item.Err != nil {
				continue
			}
			items += time.Duration(item.DurationMS * float64(time.Millisecond))
			ta.items = append(ta.items, item.DurationMS)
			if visit != nil {
				if err := visit(e, v, item.Body); err != nil {
					return err
				}
			}
		}
		ta.transport += (wall - items) / time.Duration(len(res))
	}
	return nil
}

// layerNames lists the bench-owned layer spans, in pipeline order.
var layerNames = []string{
	"netlist.parse", "netlist.flatten", "mna.compile", "analysis.op", "analysis.sweep",
	"stab.analyze", "stab.cluster", "report.render", "farm.encode", "farm.decode",
}

// layerMetrics turns the spans and tallies of a traced pass into the
// per-layer metrics. Layer times are the mean inclusive time of one call
// of that layer; counts are per analysis. Every pass calls every layer at
// least once; a layer it missed reads NaN, which marks the run incorrect.
func layerMetrics(t *tracer, ta *tally) map[string]float64 {
	m := map[string]float64{}
	sum := map[string]time.Duration{}
	calls := map[string]int{}
	childSum := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Program {
			continue
		}
		sum[s.Name] += s.dur()
		calls[s.Name]++
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, name := range layerNames {
		m[name+"_us"] = us(sum[name]) / float64(calls[name])
	}
	if calls["stab.cluster"] == 0 {
		m["stab.cluster_us"] = us(ta.clusterReplica)
	}
	var unattributed time.Duration
	roots := 0
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == "analysis" {
			unattributed += s.dur() - childSum[s.ID]
			roots++
		}
	}
	n := float64(ta.analyses)
	m["analysis.newton_iterations"] = ta.counters["newton_iterations"] / float64(calls["analysis.op"])
	m["analysis.freq_points"] = ta.points / n
	m["analysis.factorizations"] = ta.counters["ac_factorizations"] / n
	m["analysis.refactorizations"] = ta.counters["ac_refactorizations"] / n
	m["analysis.diag_rows_visited"] = ta.counters["ac_diag_rows_visited"] / n
	m["analysis.residual_points"] = ta.counters["ac_residual_points"] / n
	m["analysis.sparse_share"] = sparseShare(ta.counters["ac_refactorizations"], ta.counters["ac_factorizations"])
	m["stab.shallow_loops"] = ta.shallow / n
	m["report.bytes"] = ta.bytes / n
	m["tool.unattributed_us"] = us(unattributed) / float64(roots)
	m["tool.tracing_overhead_us"] = us(ta.overhead) / n
	m["farm.item_ms_p50"] = median(ta.items)
	m["farm.transport_us"] = us(ta.transport) / float64(ta.requests)
	m["farm.cache_hit_ratio"] = float64(ta.hits) / float64(ta.hits+ta.miss)
	kernelMetrics(ta.kernel, m)
	return m
}

// sparseShare is the share of frequency points solved on the sparse
// refactor path: pivot-free refactorizations over all factorizations.
func sparseShare(refactors, fulls float64) float64 {
	return refactors / (refactors + fulls)
}

// sizeLoops are the resonator-field sizes of the size sweep: 48, 64 and
// 96 unknowns, on both sides of the default dense/sparse threshold.
var sizeLoops = []int{24, 32, 48}

// sizeSweep walks one seeded field per size three times and records the
// median sweep time and the sparse share of each size.
func sizeSweep(ctx context.Context, seed int64, m map[string]float64) error {
	rng := rand.New(rand.NewSource(seedFor(seed, "size-sweep")))
	for _, loops := range sizeLoops {
		j := &job{family: "field", text: fieldText(rng, loops)}
		var sweeps []float64
		var share float64
		for r := 0; r < 3; r++ {
			t := newTracer()
			wk, err := walkCLI(ctx, t, j)
			if err != nil {
				return fmt.Errorf("size sweep, %d loops: %w", loops, err)
			}
			for _, s := range t.spans {
				if s.Name == "analysis.sweep" {
					sweeps = append(sweeps, float64(s.dur())/float64(time.Microsecond))
				}
			}
			share = sparseShare(float64(wk.counters["ac_refactorizations"]), float64(wk.counters["ac_factorizations"]))
		}
		suffix := fmt.Sprintf(".n%d", 2*loops)
		m["analysis.sweep_us"+suffix] = median(sweeps)
		m["analysis.sparse_share"+suffix] = share
	}
	return nil
}

// parallelEfficiency times one 32-loop field all-nodes run at
// GOMAXPROCS=1 and at GOMAXPROCS=nproc (default options, so Workers
// follows GOMAXPROCS) and returns serial / (nproc · parallel), medians of
// three runs each.
func parallelEfficiency(ctx context.Context, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seedFor(seed, "parallel")))
	text := fieldText(rng, fieldLoops)
	timeRuns := func() (float64, error) {
		var ds []float64
		for r := 0; r < 3; r++ {
			ckt, err := netlist.Parse(text)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			t, err := tool.New(ckt, tool.DefaultOptions())
			if err == nil {
				_, err = t.AllNodes(ctx)
			}
			if err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(t0).Seconds())
		}
		return median(ds), nil
	}
	serial, err := timeRuns()
	if err != nil {
		return 0, err
	}
	nproc := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(nproc)
	par, err := timeRuns()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return 0, err
	}
	return serial / (float64(nproc) * par), nil
}

// traceFile is the span JSON of a traced pass: every span plus each span
// name's self time (duration minus the time its children cover), summed
// over the pass.
type traceFile struct {
	Workload string             `json:"workload"`
	SelfUS   map[string]float64 `json:"self_us"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes <workload>.spans.json and <workload>.trace.json (the
// Chrome Trace Event Format, for Perfetto) under dir.
func writeTrace(dir, name string, t *tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := map[string]float64{}
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		self[s.Name] += float64(s.dur()-child[s.ID]) / float64(time.Microsecond)
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Cat  string         `json:"cat"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		cat := "bench"
		if s.Program {
			cat = "program"
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.StartNS) / 1e3,
			Dur: float64(s.EndNS-s.StartNS) / 1e3, Pid: 1, Tid: 1, Cat: cat,
			Args: map[string]int{"analysis": s.Analysis}})
	}
	write := func(file string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, file), b, 0o644)
	}
	if err := write(name+".spans.json", traceFile{Workload: name, SelfUS: self, Spans: t.spans}); err != nil {
		return err
	}
	return write(name+".trace.json", map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
