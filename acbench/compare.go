package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the benchmark declaration, BENCHMARK.json.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one declared metric; per-layer metrics have no bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain implements `acbench compare BASE_DIR NEW_DIR`: each
// directory holds N run files written with -out. For every (workload,
// end-to-end metric) it prints each side's median and quartiles and a
// verdict, by the rule of choosing-metrics §8:
//
//   - unresolved: either side's quartile spread, as a share of its median,
//     exceeds the metric's bound, and not every new run beats every base
//     run;
//   - regressed: the new median is worse than the base median by more than
//     the bound;
//   - improved: the new side wins at least nine tenths of all (base, new)
//     pairs, ties counting for neither, and the medians differ by more
//     than the base side's quartile spread;
//   - unchanged: otherwise.
//
// It exits 1 when any pair regressed.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("acbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: acbench compare [-bench BENCHMARK.json] BASE_DIR NEW_DIR")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "acbench compare:", err)
		return 2
	}
	base, err := loadRuns(fs.Arg(0))
	if err == nil {
		var nw map[string]map[string][]float64
		nw, err = loadRuns(fs.Arg(1))
		if err == nil {
			return compareRuns(stdout, spec, base, nw)
		}
	}
	fmt.Fprintln(os.Stderr, "acbench compare:", err)
	return 2
}

// loadRuns reads every *.json run file of dir into workload → metric →
// one value per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no run files in %s", dir)
	}
	sort.Strings(files)
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Workloads {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for k, m := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], m.Value)
			}
		}
	}
	return out, nil
}

func compareRuns(w io.Writer, spec benchSpec, base, nw map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-22s %-30s %-30s %8s  %s\n", "workload", "metric", "base median [q1, q3] n", "new median [q1, q3] n", "change", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := base[wl.Name][m.Name], nw[wl.Name][m.Name]
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-16s %-22s missing on one side\n", wl.Name, m.Name)
				continue
			}
			lower := m.Better == "lower"
			v, change := verdictOf(b, n, m.Bound, lower)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-22s %-30s %-30s %+7.2f%%  %s\n", wl.Name, m.Name, side(b), side(n), 100*change, v)
		}
	}
	return code
}

func side(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", med, q1, q3, len(xs))
}

// verdictOf classifies one (workload, metric) pair. change is the
// relative move of the new median from the base median, positive when
// the value grew.
func verdictOf(base, nw []float64, bound float64, lower bool) (string, float64) {
	bq1, bmed, bq3 := quartiles(base)
	nq1, nmed, nq3 := quartiles(nw)
	change := (nmed - bmed) / math.Abs(bmed)
	worse := change
	if !lower {
		worse = -change
	}
	better := func(x, y float64) bool { // x beats y
		if lower {
			return x < y
		}
		return x > y
	}
	wins, allBetter := 0, true
	for _, x := range nw {
		for _, y := range base {
			if better(x, y) {
				wins++
			} else {
				allBetter = false
			}
		}
	}
	spread := math.Max((bq3-bq1)/math.Abs(bmed), (nq3-nq1)/math.Abs(nmed))
	switch {
	case spread > bound && !allBetter:
		return "unresolved", change
	case worse > bound:
		return "regressed", change
	case float64(wins) >= 0.9*float64(len(base)*len(nw)) && math.Abs(nmed-bmed) > bq3-bq1:
		return "improved", change
	}
	return "unchanged", change
}
