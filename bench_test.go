package acstab_test

// Benchmark harness: one benchmark per paper table/figure plus the
// ablation benches from DESIGN.md section 3. Results (reported metrics
// and relative timings) feed EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"syscall"
	"testing"
	"time"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/farm"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/sos"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

func benchSim(b *testing.B, c *netlist.Circuit) *analysis.Sim {
	b.Helper()
	flat, err := netlist.Flatten(c)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		b.Fatal(err)
	}
	return analysis.New(sys)
}

// BenchmarkFrontEnd times the front end on captured deck text: Parse,
// Flatten and mna.Compile of the 32-loop resonator field and of the
// Table 2 circuit.
func BenchmarkFrontEnd(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
	}{
		{"field-32", circuits.ResonatorField(32, 1e5, 0.35)},
		{"table2", circuits.FullCircuit()},
	} {
		flat, err := netlist.Flatten(tc.c)
		if err != nil {
			b.Fatal(err)
		}
		src := netlist.Format(flat)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := netlist.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				flat, err := netlist.Flatten(c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mna.Compile(flat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1 regenerates Table 1 by simulation (11 tank circuits
// through the single-node flow).
func BenchmarkTable1(b *testing.B) {
	rows := sos.PaperTable1()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			if row.Zeta <= 0.05 || row.Zeta >= 1 {
				continue
			}
			tl, err := tool.New(circuits.SecondOrder(row.Zeta, 1e6), tool.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tl.SingleNode(context.Background(), "t"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2AllNodes regenerates the all-nodes report of the full
// op-amp + bias workload.
func BenchmarkTable2AllNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := tool.New(circuits.FullCircuit(), tool.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Text(io.Discard, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2StepResponse regenerates the transient step figure.
func BenchmarkFig2StepResponse(b *testing.B) {
	s := benchSim(b, circuits.OpAmpBuffer(circuits.OpAmpDefaults()))
	var os float64
	for i := 0; i < b.N; i++ {
		res, err := s.Tran(context.Background(), analysis.TranSpec{TStop: 3e-6, TStep: 1e-9, RecordEvery: 10})
		if err != nil {
			b.Fatal(err)
		}
		w, _ := res.NodeWave("output")
		os = w.OvershootPct()
	}
	b.ReportMetric(os, "overshoot_%")
}

// BenchmarkFig3Bode regenerates the broken-loop gain/phase baseline.
func BenchmarkFig3Bode(b *testing.B) {
	s := benchSim(b, circuits.OpAmpOpenLoop(circuits.OpAmpDefaults()))
	op, err := s.OP(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	freqs := num.LogGridPPD(1e2, 1e9, 40)
	var pm float64
	for i := 0; i < b.N; i++ {
		res, err := s.AC(context.Background(), freqs, op)
		if err != nil {
			b.Fatal(err)
		}
		w, _ := res.NodeWave("output")
		fc := w.DB20().Cross(0)
		pm = w.PhaseDeg().At(fc[0])
	}
	b.ReportMetric(pm, "pm_deg")
}

// BenchmarkFig4StabilityPlot regenerates the single-node stability plot.
func BenchmarkFig4StabilityPlot(b *testing.B) {
	tl, err := tool.New(circuits.OpAmpBuffer(circuits.OpAmpDefaults()), tool.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var peak float64
	for i := 0; i < b.N; i++ {
		nr, err := tl.SingleNode(context.Background(), "output")
		if err != nil {
			b.Fatal(err)
		}
		peak = nr.Best.Value
	}
	b.ReportMetric(peak, "peak")
}

// BenchmarkFig5BiasAnnotation regenerates the annotated bias cell.
func BenchmarkFig5BiasAnnotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := tool.New(circuits.BiasCircuit(circuits.BiasDefaults()), tool.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Annotate(io.Discard, tl.Flat, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationDenseVsSparse locates the dense/sparse crossover on RC
// ladders of growing size (A2).
func BenchmarkAblationDenseVsSparse(b *testing.B) {
	for _, n := range []int{20, 60, 150, 400} {
		for _, mode := range []struct {
			name string
			m    analysis.MatrixMode
		}{{"dense", analysis.MatrixDense}, {"sparse", analysis.MatrixSparse}} {
			b.Run(mode.name+"/"+strconv.Itoa(n), func(b *testing.B) {
				s := benchSim(b, circuits.RCLadder(n))
				s.Opt.Matrix = mode.m
				op, err := s.OP(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				freqs := num.LogGridPPD(1e3, 1e9, 10)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.AC(context.Background(), freqs, op); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationGridResolution trades sweep density against damping-
// estimate accuracy (A4).
func BenchmarkAblationGridResolution(b *testing.B) {
	for _, ppd := range []int{10, 20, 40, 80} {
		b.Run("ppd-"+strconv.Itoa(ppd), func(b *testing.B) {
			opts := tool.DefaultOptions()
			opts.PointsPerDecade = ppd
			tl, err := tool.New(circuits.SecondOrder(0.186, 3.16e6), opts)
			if err != nil {
				b.Fatal(err)
			}
			var errPct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nr, err := tl.SingleNode(context.Background(), "t")
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * math.Abs(nr.Best.Value+28.905) / 28.905
			}
			b.ReportMetric(errPct, "peak_err_%")
		})
	}
}

// BenchmarkAblationStencil compares the 3-point and 5-point derivative
// schemes (A5).
func BenchmarkAblationStencil(b *testing.B) {
	for _, stencil := range []int{3, 5} {
		b.Run("stencil-"+strconv.Itoa(stencil), func(b *testing.B) {
			opts := tool.DefaultOptions()
			opts.Stab = stab.Options{Stencil: stencil, MinPeakDepth: 0.75}
			tl, err := tool.New(circuits.SecondOrder(0.186, 3.16e6), opts)
			if err != nil {
				b.Fatal(err)
			}
			var errPct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nr, err := tl.SingleNode(context.Background(), "t")
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * math.Abs(nr.Best.Value+28.905) / 28.905
			}
			b.ReportMetric(errPct, "peak_err_%")
		})
	}
}

// BenchmarkTransistorAllNodes measures the full flow on the transistor-
// level op-amp (nonlinear OP + all-nodes sweep).
func BenchmarkTransistorAllNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := tool.New(circuits.TransistorOpAmp(), tool.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tl.AllNodes(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoleAnalysis measures the exact eigenvalue pole analysis on the
// full Table 2 workload.
func BenchmarkPoleAnalysis(b *testing.B) {
	s := benchSim(b, circuits.FullCircuit())
	op, err := s.OP(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Poles(context.Background(), op, 1e3, 1e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReturnRatio measures the Blackman loop-gain baseline.
func BenchmarkReturnRatio(b *testing.B) {
	ckt := circuits.OpAmpBuffer(circuits.OpAmpDefaults())
	freqs := num.LogGridPPD(100, 1e9, 40)
	for i := 0; i < b.N; i++ {
		if _, err := tool.ReturnRatio(context.Background(), ckt, "g1", freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllNodesScaling sweeps the all-nodes cost across circuit sizes
// (resonator fields of 8..64 nodes) on default options. The adaptive arm
// runs the two-level sweep (coarse 8 points/decade, refined to the uniform
// density near peaks), the tool's fast configuration; the uniform arm
// keeps the uniform grid so the adaptive engine's win stays visible per
// size.
func BenchmarkAllNodesScaling(b *testing.B) {
	for _, grid := range []struct {
		name   string
		coarse int
	}{{"adaptive", benchCoarsePPD}, {"uniform", 0}} {
		for _, k := range []int{4, 8, 16, 32} {
			b.Run(grid.name+"/loops-"+strconv.Itoa(k), func(b *testing.B) {
				benchAllNodesScaling(b, k, grid.coarse)
			})
		}
	}
}

// benchCoarsePPD is the coarse grid density the adaptive benchmark arms
// use; refinement fills back to the uniform density near peaks.
const benchCoarsePPD = 8

// benchAllNodesScaling measures the all-nodes sweep on a resonator field.
// coarsePPD > 0 enables the adaptive two-level grid; 0 keeps the uniform
// sweep.
func benchAllNodesScaling(b *testing.B, loops, coarsePPD int) {
	sweep := allNodes(b, fieldTool(b, loops, coarsePPD, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// fieldTool builds the all-nodes tool the field benchmarks run: a
// resonator field of the given loop count, default options.
// coarsePPD > 0 enables the adaptive two-level grid; aopts, when non-nil,
// replaces the default solver options.
func fieldTool(b *testing.B, loops, coarsePPD int, aopts *analysis.Options) *tool.Tool {
	b.Helper()
	opts := tool.DefaultOptions()
	opts.CoarsePointsPerDecade = coarsePPD
	opts.Analysis = aopts
	tl, err := tool.New(circuits.ResonatorField(loops, 1e5, 0.35), opts)
	if err != nil {
		b.Fatal(err)
	}
	return tl
}

// allNodes returns one all-nodes run of tl, failing b on error.
func allNodes(b *testing.B, tl *tool.Tool) func() {
	return func() {
		if _, err := tl.AllNodes(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPulsingVsAC quantifies the paper's speed claim: the AC
// stability plot "significantly speeds up the simulation compared to
// time-domain analysis" (section 1.1). Same node, same circuit, same
// recovered (fn, zeta).
func BenchmarkAblationPulsingVsAC(b *testing.B) {
	b.Run("node-pulsing-transient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr, err := tool.NodePulse(context.Background(), circuits.OpAmpBuffer(circuits.OpAmpDefaults()), "output", 3e6)
			if err != nil {
				b.Fatal(err)
			}
			if pr.Rings < 2 {
				b.Fatal("no ringing")
			}
		}
	})
	b.Run("stability-plot-ac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tl, err := tool.New(circuits.OpAmpBuffer(circuits.OpAmpDefaults()), tool.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tl.SingleNode(context.Background(), "output"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The timing invariants below compare two arms of the same work. Each
// runs the arms alternately in chunks and takes the median of the
// per-chunk cost ratios: alternation puts both arms under the same machine
// load, and the median shrugs off the chunk a neighbour's burst lands on.
const ratioChunks, itersPerChunk = 9, 20

// interleavedRatios warms base and cand up, then runs them alternately in
// ratioChunks chunks of itersPerChunk calls each, and returns the sorted
// per-chunk ratios of cand's cost to base's, cost read from clock.
func interleavedRatios(b *testing.B, clock func() time.Duration, base, cand func()) []float64 {
	b.Helper()
	chunk := func(f func(), n int) time.Duration {
		start := clock()
		for i := 0; i < n; i++ {
			f()
		}
		return clock() - start
	}
	chunk(base, 5)
	chunk(cand, 5)
	ratios := make([]float64, 0, ratioChunks)
	for c := 0; c < ratioChunks; c++ {
		o := chunk(base, itersPerChunk)
		n := chunk(cand, itersPerChunk)
		if o > 0 {
			ratios = append(ratios, float64(n)/float64(o))
		}
	}
	if len(ratios) == 0 {
		b.Fatal("the clock did not advance")
	}
	sort.Float64s(ratios)
	return ratios
}

// cpuTime reads the process's cumulative CPU time (user + system).
// Scheduler preemption and frequency scaling on shared runners swing
// wall-clock measurements by tens of percent; CPU time is what the
// observatory actually costs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wallTime reads a monotonic wall clock.
func wallTime() time.Duration { return time.Since(wallEpoch) }

var wallEpoch = time.Now()

// BenchmarkNumericsOverhead times the 32-loop field's all-nodes sweep with
// the numerical-health observatory on, and fails if the observatory adds
// 5% CPU or more over the same sweep with it off (a negative
// ResidualThreshold), measured as the median interleaved CPU ratio.
func BenchmarkNumericsOverhead(b *testing.B) {
	offOpts := analysis.DefaultOptions()
	offOpts.ResidualThreshold = -1
	on := allNodes(b, fieldTool(b, 32, 0, nil))
	ratios := interleavedRatios(b, cpuTime, allNodes(b, fieldTool(b, 32, 0, &offOpts)), on)
	overhead := ratios[len(ratios)/2] - 1
	b.Logf("observatory CPU overhead: median %.2f%% over %d chunks (spread %.2f%%..%.2f%%)",
		100*overhead, len(ratios), 100*(ratios[0]-1), 100*(ratios[len(ratios)-1]-1))
	if overhead >= 0.05 {
		b.Errorf("residual observatory CPU overhead %.1f%% exceeds the 5%% budget", 100*overhead)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on()
	}
	b.ReportMetric(100*overhead, "cpu_overhead_%")
}

// BenchmarkAdaptiveGrid times the 32-loop field's all-nodes sweep on the
// adaptive grid, and fails unless it is faster than the same sweep on the
// uniform grid, measured as the median interleaved wall-time ratio.
func BenchmarkAdaptiveGrid(b *testing.B) {
	adaptive := allNodes(b, fieldTool(b, 32, benchCoarsePPD, nil))
	ratios := interleavedRatios(b, wallTime, allNodes(b, fieldTool(b, 32, 0, nil)), adaptive)
	r := ratios[len(ratios)/2]
	if r >= 1 {
		b.Errorf("adaptive sweep takes %.2fx the uniform sweep's wall time, want < 1", r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adaptive()
	}
	b.ReportMetric(r, "adaptive/uniform")
}

// BenchmarkWarmBatch times one 16-variant corner round as a wire-v2 batch
// against a worker whose compile cache is warm. It fails unless the batch
// is faster than sixteen one-variant batches to a cacheless worker (how a
// corner sweep ran before the cache: flatten, compile and symbolic
// analysis per corner, plus a round trip each), measured as the median
// interleaved wall-time ratio, and unless the cache served the batch.
func BenchmarkWarmBatch(b *testing.B) {
	const tank = `bench tank
.param rq=318
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 1n
`
	variants := make([]farm.Variant, 16)
	for i := range variants {
		variants[i] = farm.Variant{
			Label:     fmt.Sprintf("corner%02d", i),
			Variables: map[string]float64{"rq": 200 + 25*float64(i)},
		}
	}
	quiet := obs.NewEventLogger(io.Discard)
	cold := httptest.NewServer(farm.NewHandler(farm.Config{CacheEntries: -1, Log: quiet}))
	defer cold.Close()
	warm := httptest.NewServer(farm.NewHandler(farm.Config{Log: quiet}))
	defer warm.Close()

	coldClient := &farm.Client{BaseURL: cold.URL}
	sequential := func() {
		for _, v := range variants {
			results, err := coldClient.SubmitBatch(context.Background(), &farm.BatchRequest{
				Netlist: tank, Node: "t", Variants: []farm.Variant{v},
			})
			if err == nil {
				err = results[0].Err
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	warmClient := &farm.Client{BaseURL: warm.URL}
	req := &farm.BatchRequest{Netlist: tank, Node: "t", Variants: variants}
	hits := 0 // cache hits in the latest batch
	batch := func() {
		results, err := warmClient.SubmitBatch(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		hits = 0
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.CacheHit {
				hits++
			}
		}
	}
	ratios := interleavedRatios(b, wallTime, sequential, batch)
	r := ratios[len(ratios)/2]
	if r >= 1 {
		b.Errorf("warm 16-variant batch takes %.2fx the wall time of 16 sequential one-variant batches, want < 1", r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
	b.ReportMetric(r, "batch/sequential")
	if hits == 0 {
		b.Error("no item of a warm batch was served from the cache")
	}
}
