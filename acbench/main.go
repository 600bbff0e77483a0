// Command acbench is the acstab benchmark. It drives the stability tool's
// default code path on four seeded workloads, from netlist text to a
// rendered report, checks every verdict against the exact poles of the
// MNA pencil, and reports end-to-end metrics; a separate traced pass
// splits each analysis into its layers. See README.md.
//
//	acbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-trace-dir DIR]
//	acbench compare [-bench BENCHMARK.json] BASE_DIR NEW_DIR
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"
)

// metricDef is one declared metric; the lists must equal BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"cpu_ms_per_analysis", "ms"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"alloc_kb_per_analysis", "KiB"},
	{"setup_s", "s"},
	{"verdict_recall", "ratio"},
	{"verdict_precision", "ratio"},
}

var perLayer = []metricDef{
	{"netlist.parse_us", "us"},
	{"netlist.flatten_us", "us"},
	{"mna.compile_us", "us"},
	{"analysis.op_us", "us"},
	{"analysis.newton_iterations", "count"},
	{"analysis.sweep_us", "us"},
	{"analysis.freq_points", "count"},
	{"analysis.factorizations", "count"},
	{"analysis.refactorizations", "count"},
	{"analysis.diag_rows_visited", "count"},
	{"analysis.residual_points", "count"},
	{"analysis.sparse_share", "ratio"},
	{"mna.stamp_ac_ns_per_point", "ns"},
	{"linalg.factor_ns_per_point", "ns"},
	{"linalg.solve_ns_per_node_point", "ns"},
	{"sparse.analyze_us", "us"},
	{"sparse.refactor_ns_per_point", "ns"},
	{"sparse.solve_diag_ns_per_node_point", "ns"},
	{"sparse.residual_ns_per_probe", "ns"},
	{"sparse.fill_nnz", "count"},
	{"sparse.rows_visited_ratio", "ratio"},
	{"stab.analyze_us", "us"},
	{"stab.cluster_us", "us"},
	{"stab.shallow_loops", "count"},
	{"report.render_us", "us"},
	{"report.bytes", "bytes"},
	{"farm.encode_us", "us"},
	{"farm.decode_us", "us"},
	{"farm.item_ms_p50", "ms"},
	{"farm.transport_us", "us"},
	{"farm.cache_hit_ratio", "ratio"},
	{"tool.unattributed_us", "us"},
	{"tool.tracing_overhead_us", "us"},
	{"tool.parallel_efficiency", "ratio"},
	{"analysis.sweep_us.n48", "us"},
	{"analysis.sweep_us.n64", "us"},
	{"analysis.sweep_us.n96", "us"},
	{"analysis.sparse_share.n48", "ratio"},
	{"analysis.sparse_share.n64", "ratio"},
	{"analysis.sparse_share.n96", "ratio"},
}

// config is one benchmark invocation.
type config struct {
	seed      int64
	seconds   float64
	setupReps int
	poolSize  int // 0 = each workload's own size
	timed     bool
	traced    bool
	traceDir  string
}

// metric is one reported value with the spread behind it.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
}

// result is one workload's outcome, as written to the -out file.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics,omitempty"`
	Layers    map[string]metric  `json:"layers,omitempty"`
	Info      map[string]float64 `json:"info,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// runFile is the -out document: every workload of one invocation.
type runFile struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Workloads  []*result `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("acbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "input seed; 1 is the default, 2 is held out")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", -1, "0: timed pass only, 1: traced pass only (default: both)")
	out := fs.String("out", "", "write the run's medians, quartiles and sample counts to this JSON file")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for the traced pass's span JSON and Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "acbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	// Every number is measured in one process at GOMAXPROCS=1: the plain
	// single-threaded baseline, and the default path (Workers=0 resolves
	// to one sweep worker).
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *seconds, setupReps: 9,
		timed: *trace != 1, traced: *trace != 0, traceDir: *traceDir}
	rf := &runFile{Seed: cfg.seed, Seconds: cfg.seconds, GOMAXPROCS: 1, NumCPU: runtime.NumCPU()}
	for _, w := range ws {
		r, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acbench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, r)
		rf.Workloads = append(rf.Workloads, r)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "acbench:", err)
			return 1
		}
	}
	line, err := summaryLine(rf.Workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runWorkload builds the workload's pool and runs the timed chunks, the
// traced pass, or both.
func runWorkload(ctx context.Context, w *workload, cfg config) (*result, error) {
	size := w.size
	if cfg.poolSize > 0 {
		size = cfg.poolSize
	}
	pool, err := buildPool(ctx, w, cfg.seed, size)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Correct: true, Info: map[string]float64{}}
	if cfg.timed {
		tr, err := measure(ctx, w, pool, cfg.seconds, cfg.setupReps)
		if err != nil {
			return nil, err
		}
		r.Metrics = map[string]metric{
			"cpu_ms_per_analysis":   quartileMetric(tr.cpuMS, "ms"),
			"latency_ms_p50":        runMetric(tr.p50, tr.p50MS, "ms"),
			"latency_ms_p90":        runMetric(tr.p90, tr.p90MS, "ms"),
			"alloc_kb_per_analysis": quartileMetric(tr.allocKB, "KiB"),
			"setup_s":               quartileMetric(tr.setupS, "s"),
			"verdict_recall":        {Value: tr.score.recall(), Unit: "ratio", N: tr.score.exact},
			"verdict_precision":     {Value: tr.score.precision(), Unit: "ratio", N: tr.score.reported},
		}
		r.Attempted += tr.attempted
		r.Failed += tr.failed
		r.Failures = append(r.Failures, tr.failures...)
		r.Correct = tr.ok()
		r.Info["latency_samples"] = float64(tr.requests)
		r.Info["error_rate"] = float64(tr.failed) / float64(tr.attempted)
		r.Info["analyses"] = float64(tr.attempted)
		r.Info["raw_cpu_ms_per_analysis"] = median(tr.rawCPUMS)
		r.Info["reference_us"] = tr.sampleUS
		r.Info["speed_samples"] = float64(tr.samples)
		r.Info["sampler_share"] = tr.stolen
	}
	if cfg.traced {
		layers, ta, err := tracedPass(ctx, w, pool, cfg.seed, cfg.seconds, cfg.traceDir)
		if err != nil {
			return nil, err
		}
		r.Layers = map[string]metric{}
		for _, d := range perLayer {
			r.Layers[d.name] = metric{Value: layers[d.name], Unit: d.unit}
		}
		r.Attempted += ta.attempted
		r.Failed += ta.failed
		r.Failures = append(r.Failures, ta.failures...)
		r.Correct = r.Correct && ta.ok()
		r.Info["traced_analyses"] = float64(ta.analyses)
		r.Info["traced_wall_us"] = float64(ta.wall) / float64(time.Microsecond) / float64(ta.analyses)
		r.Info["traced_recall"] = ta.score.recall()
		r.Info["traced_precision"] = ta.score.precision()
	}
	return r, nil
}

func quartileMetric(xs []float64, unit string) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Value: med, Unit: unit, Q1: &q1, Q3: &q3, N: len(xs)}
}

// runMetric is a value taken over the whole run, with the quartiles of
// the same quantity per chunk as its spread.
func runMetric(v float64, perChunk []float64, unit string) metric {
	m := quartileMetric(perChunk, unit)
	m.Value = v
	return m
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printResult prints every metric as "workload metric value unit".
func printResult(w io.Writer, r *result) {
	for _, d := range endToEnd {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.name, fmtFloat(m.Value), m.Unit)
		}
	}
	if r.Metrics != nil {
		fmt.Fprintf(w, "%s latency_samples %s count\n", r.Workload, fmtFloat(r.Info["latency_samples"]))
		fmt.Fprintf(w, "%s error_rate %s ratio\n", r.Workload, fmtFloat(r.Info["error_rate"]))
	}
	for _, d := range perLayer {
		if m, ok := r.Layers[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.name, fmtFloat(m.Value), m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s failure: %s\n", r.Workload, f)
	}
}

// summaryLine is the last line of standard output: one JSON object with
// correct, attempted, failed and metrics. With one workload the metric
// keys are the declared names; with several they carry a "workload."
// prefix.
func summaryLine(rs []*result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	s := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rs {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		prefix := ""
		if len(rs) > 1 {
			prefix = r.Workload + "."
		}
		add := func(ms map[string]metric) {
			for k, m := range ms {
				v := m.Value
				if math.IsNaN(v) || math.IsInf(v, 0) {
					// Only a failed analysis makes a metric non-finite.
					s.Correct = false
					v = math.MaxFloat64
				}
				s.Metrics[prefix+k] = value{v, m.Unit}
			}
		}
		add(r.Metrics)
		add(r.Layers)
	}
	b, err := json.Marshal(s)
	return string(b), err
}
