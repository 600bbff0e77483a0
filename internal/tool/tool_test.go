package tool

import (
	"context"
	"math"
	"math/cmplx"
	"slices"
	"strings"
	"sync"
	"testing"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/stab"
)

// TestSingleNodeSecondOrder runs Single Node mode on a second-order tank
// under every AC solver selection: the default (the sparse refill plus
// diagonal kernel at every system size) and both forced modes. SingleNode sweeps through the diagonal
// kernel (ImpedanceDiagSweep); its |Z| must match the full-column
// ImpedanceMatrixColumns sweep of the same node to 1e-12 relative, and
// its trace must count one node over the uniform grid with no adaptive
// counters.
func TestSingleNodeSecondOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode analysis.MatrixMode
	}{
		{"default", analysis.MatrixAuto},
		{"forced dense", analysis.MatrixDense},
		{"forced sparse", analysis.MatrixSparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Trace = obs.StartRun("single-node")
			aopts := analysis.DefaultOptions()
			aopts.Matrix = tc.mode
			opts.Analysis = &aopts
			tl, err := New(circuits.SecondOrder(0.3, 1e6), opts)
			if err != nil {
				t.Fatal(err)
			}
			nr, err := tl.SingleNode(context.Background(), "t")
			if err != nil {
				t.Fatal(err)
			}
			if nr.Skipped || nr.Best == nil {
				t.Fatalf("result: %+v", nr)
			}
			if !num.ApproxEqual(nr.Best.Freq, 1e6, 0.03, 0) ||
				!num.ApproxEqual(nr.Best.Zeta, 0.3, 0.05, 0) {
				t.Errorf("peak %+v", nr.Best)
			}
			if nr.Impedance == nil || nr.Stab == nil {
				t.Fatal("missing waveforms")
			}

			grid := num.LogGridPPD(opts.FStart, opts.FStop, opts.PointsPerDecade)
			k, _ := tl.Sys.NodeOf("t")
			op, err := tl.ensureOP(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tl.Sim.ImpedanceMatrixColumns(context.Background(), grid, op, []int{k})
			if err != nil {
				t.Fatal(err)
			}
			if nr.Impedance.Len() != len(grid) {
				t.Fatalf("single-node grid has %d points, want %d", nr.Impedance.Len(), len(grid))
			}
			for i, z := range ref[0] {
				want := cmplx.Abs(z)
				if got := real(nr.Impedance.Y[i]); math.Abs(got-want) > 1e-12*want {
					t.Fatalf("|Z| at %g Hz = %.17g, full-column sweep %.17g", grid[i], got, want)
				}
			}

			tr := opts.Trace.Trace()
			if n := tr.Counters["sweep_nodes"]; n != 1 {
				t.Errorf("sweep_nodes = %d, want 1", n)
			}
			if n := tr.Counters["sweep_freq_points"]; n != int64(len(grid)) {
				t.Errorf("sweep_freq_points = %d, want the %d-point grid", n, len(grid))
			}
			for k := range tr.Counters {
				if strings.HasPrefix(k, "adaptive_") {
					t.Errorf("uniform run published %s", k)
				}
			}
		})
	}
}

func TestSingleNodeErrors(t *testing.T) {
	tl, err := New(circuits.SecondOrder(0.3, 1e6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.SingleNode(context.Background(), "nosuch"); err == nil {
		t.Error("expected unknown-node error")
	}
	if _, err := tl.SingleNode(context.Background(), "0"); err == nil {
		t.Error("expected ground error")
	}
	if _, err := New(circuits.SecondOrder(0.3, 1e6), Options{FStart: -1, FStop: 1}); err == nil {
		t.Error("expected bad-range error")
	}
}

func TestAutoZeroAC(t *testing.T) {
	c := circuits.SecondOrder(0.3, 1e6)
	c.AddI("Istim", "0", "t", netlist.SourceSpec{ACMag: 5})
	tl, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The flattened copy must have the stimulus zeroed; the original kept.
	if tl.Flat.Element("istim").Src.ACMag != 0 {
		t.Error("AC stimulus not auto-zeroed in the run copy")
	}
	if c.Element("istim").Src.ACMag != 5 {
		t.Error("original circuit must not be modified")
	}
	nr, err := tl.SingleNode(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if !num.ApproxEqual(nr.Best.Zeta, 0.3, 0.05, 0) {
		t.Errorf("stimulus corrupted the analysis: %+v", nr.Best)
	}
}

func TestAllNodesDrivenNodeSkipped(t *testing.T) {
	c := circuits.SecondOrder(0.3, 1e6)
	c.AddVDC("VS", "drv", "0", 1)
	c.AddR("RD", "drv", "t", 1e6)
	tl, err := New(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var drv *NodeResult
	for i := range rep.Nodes {
		if rep.Nodes[i].Node == "drv" {
			drv = &rep.Nodes[i]
		}
	}
	if drv == nil || !drv.Skipped {
		t.Errorf("driven node not skipped: %+v", drv)
	}
}

func TestAllNodesTable2(t *testing.T) {
	tl, err := New(circuits.FullCircuit(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) < 2 {
		t.Fatalf("found %d loops, want >= 2 (main + bias)", len(rep.Loops))
	}
	// Loop 1: main loop near 3 MHz containing the five paper nodes.
	main := rep.Loops[0]
	if !num.ApproxEqual(main.Freq, 3.1e6, 0.12, 0) {
		t.Errorf("main loop at %g, want ~3.1 MHz", main.Freq)
	}
	members := map[string]bool{}
	for _, np := range main.Nodes {
		members[np.Node] = true
	}
	for _, want := range []string{"output", "net052", "net136", "net138", "net99"} {
		if !members[want] {
			t.Errorf("main loop missing node %s (has %v)", want, main.Nodes)
		}
	}
	if main.WorstPeak > -24 || main.WorstPeak < -34 {
		t.Errorf("main loop worst peak = %g", main.WorstPeak)
	}
	// Bias loops in the tens of MHz.
	foundBias := false
	for _, l := range rep.Loops[1:] {
		if l.Freq > 30e6 && l.Freq < 70e6 {
			foundBias = true
		}
	}
	if !foundBias {
		t.Errorf("no bias loop in the 30-70 MHz band: %+v", rep.Loops)
	}
	// Main loop is the most dangerous one.
	if w := WorstLoop(rep); w == nil || !num.ApproxEqual(w.Freq, main.Freq, 1e-9, 0) {
		t.Errorf("worst loop = %+v", w)
	}
}

// TestParallelMatchesSerial: a farm worker runs several jobs at once, and
// with its cache disabled each compiles its own Tool. Runs of the full
// circuit on concurrent goroutines share no mutable state, so each
// reports the serial run's peaks.
func TestParallelMatchesSerial(t *testing.T) {
	run := func() (*Report, error) {
		tl, err := New(circuits.FullCircuit(), DefaultOptions())
		if err != nil {
			return nil, err
		}
		return tl.AllNodes(context.Background())
	}
	serial, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var reps [4]*Report
	var errs [4]error
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for r, parallel := range reps {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		if len(serial.Nodes) != len(parallel.Nodes) {
			t.Fatal("node count differs")
		}
		for i := range serial.Nodes {
			a, b := serial.Nodes[i], parallel.Nodes[i]
			if a.Node != b.Node || a.Skipped != b.Skipped {
				t.Fatalf("node %d differs: %v vs %v", i, a.Node, b.Node)
			}
			if a.Best == nil != (b.Best == nil) {
				t.Fatalf("node %s best mismatch", a.Node)
			}
			if a.Best != nil && (math.Abs(a.Best.Freq-b.Best.Freq) > 1e-6*a.Best.Freq ||
				math.Abs(a.Best.Value-b.Best.Value) > 1e-9*math.Abs(a.Best.Value)) {
				t.Fatalf("node %s peaks differ: %+v vs %+v", a.Node, a.Best, b.Best)
			}
		}
	}

	// The sweep driver hands the solver's columns straight through: it
	// allocates no more than one ImpedanceDiagSweep call plus a few
	// constant-size objects (the grid and the per-node grid headers), never
	// a second len(nodes)×len(grid) output.
	const slack = 8
	if len(serial.Nodes) <= slack {
		t.Fatalf("only %d nodes: a per-node output copy would hide inside the slack", len(serial.Nodes))
	}
	opts := DefaultOptions()
	tl, err := New(circuits.FullCircuit(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	op, err := tl.ensureOP(ctx)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := tl.nodeList()
	grid := num.LogGridPPD(opts.FStart, opts.FStop, opts.PointsPerDecade)
	sweep := testing.AllocsPerRun(5, func() {
		if _, err := tl.Sim.ImpedanceDiagSweep(ctx, grid, op, idx); err != nil {
			t.Fatal(err)
		}
	})
	driver := testing.AllocsPerRun(5, func() {
		if _, _, _, err := tl.columns(ctx, op, idx); err != nil {
			t.Fatal(err)
		}
	})
	if driver > sweep+slack {
		t.Errorf("all-nodes sweep allocates %v times, ImpedanceDiagSweep alone %v", driver, sweep)
	}
}

// TestParallelBitwiseSerial: concurrent runs on Tools stamped from one
// Compiled share its symbolic analysis, and a run whose grid starts at
// another frequency rebuilds that analysis at its own pinned frequency
// while the others sweep. Every sweep refactors under the pivot order
// pinned at its own run's first frequency, so each run's grids and
// impedances are bitwise those of a serial run on a private compile, no
// matter which run reaches the shared analysis first.
func TestParallelBitwiseSerial(t *testing.T) {
	ckt := circuits.ResonatorField(8, 1e6, 0.25)
	variants := make([]Options, 3)
	for i := range variants {
		variants[i] = DefaultOptions()
	}
	variants[1].FStart = 1e4
	variants[2].FStart, variants[2].CoarsePointsPerDecade = 2e3, 10
	serial := make([]*Report, len(variants))
	for i, opts := range variants {
		tl, err := New(ckt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if serial[i], err = tl.AllNodes(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	c, err := Compile(ckt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Report, 4*len(variants))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for r := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl, err := NewFromCompiled(c, variants[r%len(variants)])
			if err != nil {
				errs[r] = err
				return
			}
			reps[r], errs[r] = tl.AllNodes(context.Background())
		}()
	}
	wg.Wait()
	for r, par := range reps {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		v := r % len(variants)
		for i, a := range serial[v].Nodes {
			b := par.Nodes[i]
			if a.Node != b.Node || (a.Impedance == nil) != (b.Impedance == nil) {
				t.Fatalf("run %d (variant %d): node %d rows differ", r, v, i)
			}
			if a.Impedance != nil && (!slices.Equal(a.Impedance.X, b.Impedance.X) || !slices.Equal(a.Impedance.Y, b.Impedance.Y)) {
				t.Fatalf("run %d (variant %d) node %s: impedance differs from the serial run", r, v, a.Node)
			}
		}
	}
}

// TestNaiveMatchesShared checks the paper's original flow — one
// independent sweep per node, here one Single Node run each — against
// the all-nodes sweep that shares one factorization per frequency across
// every node: each node's peak must come out the same either way.
func TestNaiveMatchesShared(t *testing.T) {
	opts := DefaultOptions()
	opts.PointsPerDecade = 20 // keep the per-node runs quick
	tl, err := New(circuits.BiasCircuit(circuits.BiasDefaults()), opts)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range shared.Nodes {
		b, err := tl.SingleNode(context.Background(), a.Node)
		if err != nil {
			t.Fatal(err)
		}
		if a.Skipped != b.Skipped || a.Best == nil != (b.Best == nil) {
			t.Fatalf("node %s best mismatch", a.Node)
		}
		if a.Best != nil && math.Abs(a.Best.Value-b.Best.Value) > 1e-9 {
			t.Fatalf("node %s: %g vs %g", a.Node, a.Best.Value, b.Best.Value)
		}
	}
}

func TestSkipNodesFilter(t *testing.T) {
	opts := DefaultOptions()
	opts.SkipNodes = []string{"net066x"}
	tl, err := New(circuits.BiasCircuit(circuits.BiasDefaults()), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Nodes {
		if n.Node == "net066x" {
			t.Error("filtered node still present")
		}
	}
}

func TestReportLoopStructure(t *testing.T) {
	tl, err := New(circuits.ResonatorField(3, 1e6, 0.3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Three independent resonators at 1, 2, 4 MHz: three loops of 2 nodes.
	if len(rep.Loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(rep.Loops))
	}
	for i, l := range rep.Loops {
		want := 1e6 * math.Pow(2, float64(i))
		if !num.ApproxEqual(l.Freq, want, 0.05, 0) {
			t.Errorf("loop %d at %g, want %g", i, l.Freq, want)
		}
		if len(l.Nodes) != 2 {
			t.Errorf("loop %d has %d nodes, want 2", i, len(l.Nodes))
		}
		if !num.ApproxEqual(l.Zeta, 0.3, 0.08, 0) {
			t.Errorf("loop %d zeta = %g", i, l.Zeta)
		}
	}
}

func TestOnlySubcktScope(t *testing.T) {
	c, err := netlist.Parse(`scoped
.subckt tank t
R1 t 0 318
L1 t 0 25.33u
C1 t 0 1n
.ends
X1 a tank
X2 b tank
R9 a b 1e6
Rg a 0 1e6
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.OnlySubckt = "x1"
	tl, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Only node "a" (X1's port) is in scope; "b" is not.
	seen := map[string]bool{}
	for _, n := range rep.Nodes {
		seen[n.Node] = true
	}
	if !seen["a"] || seen["b"] {
		t.Errorf("scope wrong: %v", seen)
	}
	// The scoped run still finds X1's resonance.
	if len(rep.Loops) != 1 || !num.ApproxEqual(rep.Loops[0].Freq, 1e6, 0.05, 0) {
		t.Errorf("loops = %+v", rep.Loops)
	}
	// A scope with no nodes in it fails by name instead of sweeping an
	// empty node set.
	opts.OnlySubckt = "x9"
	if tl, err = New(c, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.AllNodes(context.Background()); err == nil || !strings.Contains(err.Error(), "no node left") {
		t.Errorf("unknown subckt instance: err = %v", err)
	}
}

// TestAnalyzeColumnInPlace: analyzeColumn writes |Z| over the sweep's own
// column and hands that slice to the impedance wave, so the only
// allocations on a warm analyzer are the wave, its name, the result and
// Analyze's own outputs (its Result and Peaks) — no |Z| copy and no
// stability-plot wave.
func TestAnalyzeColumnInPlace(t *testing.T) {
	tl, err := New(circuits.SecondOrder(0.3, 1e6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	op, err := tl.ensureOP(ctx)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := tl.Sys.NodeOf("t")
	ax, freqs, cols, err := tl.columns(ctx, op, []int{k})
	if err != nil {
		t.Fatal(err)
	}
	col := cols[0]
	z := slices.Clone(col)
	an := stab.NewAnalyzerOn(tl.Opts.Stab, ax)
	nr, err := tl.analyzeColumn(an, "t", freqs[0], col)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Skipped || nr.Impedance == nil {
		t.Fatalf("result: %+v", nr)
	}
	y := nr.Impedance.Y
	if len(y) != len(col) || &y[0] != &col[0] {
		t.Fatal("impedance wave does not share the sweep column's backing array")
	}
	for i, zi := range z {
		want := complex(math.Hypot(real(zi), imag(zi)), 0)
		if math.Float64bits(real(y[i])) != math.Float64bits(real(want)) || imag(y[i]) != 0 {
			t.Fatalf("sample %d = %v, want |Z| = %v", i, y[i], want)
		}
	}

	// |Z| is real and non-negative, so re-running over the consumed column
	// reproduces it and the warm path can be measured on the same slice.
	got := testing.AllocsPerRun(20, func() {
		if _, err := tl.analyzeColumn(an, "t", freqs[0], col); err != nil {
			t.Fatal(err)
		}
	})
	if want := 5.0; got > want {
		t.Errorf("warm analyzeColumn allocated %v times, want at most %v (wave, name, NodeResult + Analyze's Result and Peaks; no plot)", got, want)
	}
}

// TestFirstPassAxisAllocs pins the shared first-pass axis: a memo hit
// allocates nothing, and a warm sweep driver run allocates what one
// ImpedanceDiagSweep does plus the per-node grid headers, with no grid and
// no log axis of its own. An Analyzer over the shared axis allocates no
// log axis either (stab's TestAnalyzerWarmAllocs).
func TestFirstPassAxisAllocs(t *testing.T) {
	opts := DefaultOptions()
	tl, err := New(circuits.SecondOrder(0.3, 1e6), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	op, err := tl.ensureOP(ctx)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := tl.Sys.NodeOf("t")
	idx := []int{k}
	ax, _, _, err := tl.columns(ctx, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if firstPassAxis(opts.FStart, opts.FStop, opts.PointsPerDecade) != ax {
			t.Fatal("memo miss on the options just swept")
		}
	}); got != 0 {
		t.Errorf("a first-pass axis memo hit allocated %v times, want 0", got)
	}
	sweep := testing.AllocsPerRun(5, func() {
		if _, err := tl.Sim.ImpedanceDiagSweep(ctx, ax.Freqs(), op, idx); err != nil {
			t.Fatal(err)
		}
	})
	driver := testing.AllocsPerRun(5, func() {
		if _, _, _, err := tl.columns(ctx, op, idx); err != nil {
			t.Fatal(err)
		}
	})
	// The driver adds the per-node grid headers (and one more under the
	// race detector). A memo miss would add four: the grid, its log axis,
	// the Axis and the memo entry.
	if driver > sweep+2 {
		t.Errorf("sweep driver allocated %v times, ImpedanceDiagSweep alone %v: want at most two more", driver, sweep)
	}
}

// TestNewFromCompiledSolverOptions: solver options belong to the compiled
// artifact. A Tool may restate them or leave them nil, and then shares
// the artifact's operating point; other solver options are refused
// instead of forking a private one.
func TestNewFromCompiledSolverOptions(t *testing.T) {
	aopts := analysis.DefaultOptions()
	aopts.ResidualThreshold = 1e-8
	opts := DefaultOptions()
	opts.Analysis = &aopts
	c, err := Compile(circuits.SecondOrder(0.3, 1e6), opts)
	if err != nil {
		t.Fatal(err)
	}
	same := aopts
	for _, a := range []*analysis.Options{nil, &same} {
		o := DefaultOptions()
		o.Analysis = a
		tl, err := NewFromCompiled(c, o)
		if err != nil {
			t.Fatal(err)
		}
		if tl.Sim.Opt != aopts {
			t.Errorf("analysis %v: tool solves with %+v, want the artifact's %+v", a, tl.Sim.Opt, aopts)
		}
		op, err := tl.ensureOP(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if op != c.op {
			t.Errorf("analysis %v: tool did not share the artifact's operating point", a)
		}
	}
	other := analysis.DefaultOptions()
	o := DefaultOptions()
	o.Analysis = &other
	if _, err := NewFromCompiled(c, o); err == nil {
		t.Error("NewFromCompiled accepted solver options the artifact was not compiled with")
	}
}
