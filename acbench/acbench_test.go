package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared reads the repository's BENCHMARK.json.
func declared(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func units(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func sameUnits(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, declared %d", what, len(got), len(want))
	}
	for name, m := range got {
		if u, ok := want[name]; !ok || u != m.Unit {
			t.Errorf("%s: metric %s [%s] is not declared with that unit", what, name, m.Unit)
		}
	}
}

func TestMetricListsMatchDeclaration(t *testing.T) {
	spec := declared(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads %v, declared %v", ours, names)
	}
	check := func(what string, defs []metricDef, decl []specMetric) {
		if len(defs) != len(decl) {
			t.Errorf("%s: %d metrics, declared %d", what, len(defs), len(decl))
			return
		}
		for i, d := range defs {
			if d.name != decl[i].Name || d.unit != decl[i].Unit {
				t.Errorf("%s[%d]: %s [%s], declared %s [%s]", what, i, d.name, d.unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// TestWorkloads runs every workload at tiny counts, timed and traced, and
// checks the declared metrics, the verdicts and the fidelity checks (a
// failed fidelity check fails runWorkload).
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e2e, layers := units(endToEnd), units(perLayer)
	pools := map[string]int{"paper-single": 4, "paper-all-nodes": 3, "resonator-field": 2, "corner-batch": 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, seconds: 0.3, setupReps: 2, poolSize: pools[w.name],
				timed: true, traced: true, traceDir: t.TempDir()}
			r, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Info["error_rate"] != 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", r.Correct, r.Failed, r.Attempted, r.Failures)
			}
			for _, k := range []string{"verdict_recall", "verdict_precision"} {
				if v := r.Metrics[k].Value; v != 1 {
					t.Errorf("%s = %v, want 1", k, v)
				}
			}
			if n := r.Info["latency_samples"]; n < 100 {
				t.Errorf("%v latency samples, want at least 100", n)
			}
			if r.Info["traced_recall"] != 1 || r.Info["traced_precision"] != 1 {
				t.Errorf("traced recall %v precision %v, want 1", r.Info["traced_recall"], r.Info["traced_precision"])
			}
			sameUnits(t, "end-to-end", r.Metrics, e2e)
			sameUnits(t, "per-layer", r.Layers, layers)
			if u, wall := r.Layers["tool.unattributed_us"].Value, r.Info["traced_wall_us"]; u > 0.1*wall {
				t.Errorf("unattributed %.1f us of %.1f us analysis wall", u, wall)
			}
		})
	}
}

// TestSummaryLine runs the command for one workload, as BENCHMARK.json
// declares it, and checks that its last line is the result object with
// exactly the declared metrics.
func TestSummaryLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spec := declared(t)
	for _, tc := range []struct {
		trace string
		decl  []specMetric
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var out bytes.Buffer
		args := []string{"--workload", "paper-single", "--seed", "2", "--seconds", "0.3",
			"--trace", tc.trace, "--trace-dir", t.TempDir()}
		if code := benchMain(args, &out); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", tc.trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		var got, want []string
		for k, m := range res.Metrics {
			got = append(got, k+" "+m.Unit)
		}
		for _, d := range tc.decl {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("trace %s: metrics %v, declared %v", tc.trace, got, want)
		}
	}
}

// TestProgramPhasesMerge walks a 96-unknown field, which the default
// solver selection puts on the sparse path, where the program records its
// own diag_solve phase: the phase must land inside the sweep span.
func TestProgramPhasesMerge(t *testing.T) {
	tr := newTracer()
	j := &job{family: "field", text: fieldText(rand.New(rand.NewSource(1)), 48)}
	if _, err := walkCLI(context.Background(), tr, j); err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, s := range tr.spans {
		if s.Program {
			merged++
			if p := tr.spans[s.Parent]; p.Name != "analysis.sweep" || s.StartNS < p.StartNS-2000 || s.EndNS > p.EndNS+2000 {
				t.Errorf("%s merged under %s [%d, %d], span [%d, %d]", s.Name, p.Name, p.StartNS, p.EndNS, s.StartNS, s.EndNS)
			}
		}
	}
	if merged == 0 {
		t.Error("no program phase merged")
	}
}

// TestReferenceAllocatesNothing pins that the machine-speed reference
// neither causes collections nor depends on the heap the workload leaves.
func TestReferenceAllocatesNothing(t *testing.T) {
	ref := newReference()
	if n := testing.AllocsPerRun(3, ref.run); n != 0 {
		t.Errorf("reference run allocates %v times", n)
	}
}

func TestSamplerOver(t *testing.T) {
	ms, nom := time.Millisecond, sampleNominal
	s := &sampler{
		at:   []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 50 * ms, 60 * ms},
		busy: []time.Duration{ms, ms, ms, ms, ms, ms, ms},
		took: []time.Duration{nom, nom, 2 * nom, 2 * nom, 2 * nom, 100 * nom, 100 * nom},
	}
	for _, tc := range []struct {
		from, to time.Duration
		factor   float64
		stolen   time.Duration
	}{
		// Three samples inside, widened by the nearer neighbour on each side.
		{15 * ms, 45 * ms, 0.5, 3 * ms},
		// None inside: the five nearest, all before it.
		{61 * ms, 62 * ms, 0.5, 0},
		{0, 70 * ms, 0.5, 7 * ms},
	} {
		if f, st := s.over(tc.from, tc.to); f != tc.factor || st != tc.stolen {
			t.Errorf("over(%v, %v) = %v, %v, want %v, %v", tc.from, tc.to, f, st, tc.factor, tc.stolen)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := benchMain([]string{"--workload", "no-such-workload"}, &out); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4], n=4) and of range(1, 11).
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{4, 2, 1, 3}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		base, nw []float64
		lower    bool
		want     string
	}{
		{"same", steady, scaled(steady, 1), true, "unchanged"},
		{"faster", steady, scaled(steady, 0.8), true, "improved"},
		{"slower", steady, scaled(steady, 1.2), true, "regressed"},
		{"slower within bound", steady, scaled(steady, 1.04), true, "unchanged"},
		{"ratio dropped", steady, scaled(steady, 0.8), false, "regressed"},
		{"noisy", steady, noisy, true, "unresolved"},
		{"noisy but every run better", noisy, scaled(noisy, 0.3), true, "improved"},
	} {
		if got, _ := verdictOf(tc.base, tc.nw, 0.05, tc.lower); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
