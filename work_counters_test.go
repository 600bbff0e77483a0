package acstab_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

// workCounters are the run-trace counters TestWorkCounters pins. Each
// counts work the default configuration does, so it is exact on every
// machine. Counters derived from floating-point values (the
// ac_residual_decade_* histogram, peaks, loops) are left out: a change
// that moves a noise peak by one ulp must not fail this test.
var workCounters = []string{
	"sweep_freq_points",
	"sweep_nodes",
	"ac_factorizations",
	"ac_refactorizations",
	"ac_solves",
	"ac_diag_solves",
	"ac_diag_rows_visited",
	"ac_diag_fallbacks",
	"ac_residual_points",
	"ac_refinements",
	"ac_residual_breaches",
	"ac_symbolic_builds",
	"ac_symbolic_reuses",
	"ac_refactor_fallbacks",
	"ac_pattern_drift",
	"op_solves",
	"newton_iterations",
	"adaptive_rounds",
	"adaptive_refined_points",
	"adaptive_solve_pairs",
	"adaptive_dense_pairs",
}

// workRun is one traced run of a TestWorkCounters case.
type workRun struct {
	tl       *tool.Tool
	report   *tool.Report // nil for a Single Node run
	counters map[string]int64
}

// runWorkCase runs ckt with default options, Single Node on node or All
// Nodes when node is empty; coarsePPD > 0 enables the adaptive grid. The
// counters are a function of the circuit and options alone, not of the
// machine's CPU count.
func runWorkCase(t *testing.T, name string, ckt *netlist.Circuit, node string, coarsePPD int) workRun {
	t.Helper()
	run := obs.StartRun("work-counters-" + name)
	opts := tool.DefaultOptions()
	opts.CoarsePointsPerDecade = coarsePPD
	opts.Trace = run
	tl, err := tool.New(ckt, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var rep *tool.Report
	if node != "" {
		_, err = tl.SingleNode(context.Background(), node)
	} else {
		rep, err = tl.AllNodes(context.Background())
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run.Finish()
	tr := run.Trace()
	counters := make(map[string]int64, len(workCounters))
	for _, c := range workCounters {
		counters[c] = tr.Counters[c]
	}
	return workRun{tl: tl, report: rep, counters: counters}
}

// TestWorkCounters pins the solver's work counters on the circuits acbench
// draws from, exactly. A change that alters how much work the default
// configuration does fails here by name; a deliberate one re-pins by
// copying the measured JSON the failure logs into
// testdata/work_counters.json and says why. The invariants below the
// golden comparison hold whatever the golden says.
func TestWorkCounters(t *testing.T) {
	runs := map[string]workRun{
		"table1-tank":    runWorkCase(t, "table1-tank", circuits.SecondOrder(0.3, 1e6), "t", 0),
		"fig4-buffer":    runWorkCase(t, "fig4-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults()), "output", 0),
		"table2-full":    runWorkCase(t, "table2-full", circuits.FullCircuit(), "", 0),
		"fig5-bias":      runWorkCase(t, "fig5-bias", circuits.BiasCircuit(circuits.BiasDefaults()), "", 0),
		"transistor":     runWorkCase(t, "transistor", circuits.TransistorOpAmp(), "", 0),
		"field32":        runWorkCase(t, "field32", circuits.ResonatorField(32, 1e5, 0.35), "", 0),
		"field32-coarse": runWorkCase(t, "field32-coarse", circuits.ResonatorField(32, 1e5, 0.35), "", benchCoarsePPD),
	}

	measured := make(map[string]map[string]int64, len(runs))
	names := make([]string, 0, len(runs))
	for name, r := range runs {
		measured[name] = r.counters
		names = append(names, name)
	}
	sort.Strings(names)
	raw, err := os.ReadFile(filepath.Join("testdata", "work_counters.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]int64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for _, c := range workCounters {
			if got := measured[name][c]; got != want[name][c] {
				t.Errorf("%s: %s = %d, golden %d", name, c, got, want[name][c])
			}
		}
	}
	if t.Failed() {
		js, _ := json.MarshalIndent(measured, "", "  ")
		t.Logf("measured counters (copy into testdata/work_counters.json to re-pin):\n%s", js)
	}

	// Reach restriction: the batched diag solves visit a small share of the
	// rows a full forward and backward substitution per node would.
	field := runs["field32"]
	nodes, unknowns := len(field.tl.Sys.NodeNames), field.tl.Sys.NumUnknowns()
	full := field.counters["ac_diag_solves"] * int64(nodes) * 2 * int64(unknowns)
	if full == 0 {
		t.Error("field32: the diag kernel never ran")
	} else if ratio := float64(field.counters["ac_diag_rows_visited"]) / float64(full); !(ratio > 0 && ratio < 0.7) {
		t.Errorf("field32: rows-visited ratio %g, want (0, 0.7): reach restriction regressed", ratio)
	}

	// The adaptive grid solves under half the (node, frequency) pairs of
	// the uniform one and finds the same significant loops.
	coarse := runs["field32-coarse"]
	pairs, dense := coarse.counters["adaptive_solve_pairs"], coarse.counters["adaptive_dense_pairs"]
	if pairs <= 0 || dense <= 0 {
		t.Errorf("field32-coarse: adaptive pair counters missing (solved %d, dense %d)", pairs, dense)
	} else if ratio := float64(pairs) / float64(dense); ratio >= 0.5 {
		t.Errorf("field32-coarse: points-solved ratio %.3f, want < 0.5: the adaptive grid stopped paying for itself", ratio)
	}
	// Both grids also report spurious "loops" from floating-point ripple in
	// the flat stretches between resonances (depth ~1e-13); their count
	// moves with the exact grid, so parity is checked on peaks deep enough
	// to be real resonances.
	significant := func(rep *tool.Report) []stab.Loop {
		var out []stab.Loop
		for _, l := range rep.Loops {
			if l.WorstPeak <= -0.75 {
				out = append(out, l)
			}
		}
		return out
	}
	ul, al := significant(field.report), significant(coarse.report)
	if len(al) != len(ul) {
		t.Errorf("adaptive run found %d significant loops, uniform %d", len(al), len(ul))
	} else {
		for i := range ul {
			if !num.ApproxEqual(al[i].Freq, ul[i].Freq, 0.02, 0) {
				t.Errorf("loop %d: adaptive fn %g vs uniform %g", i, al[i].Freq, ul[i].Freq)
			}
			if !num.ApproxEqual(al[i].Zeta, ul[i].Zeta, 0.1, 0) {
				t.Errorf("loop %d: adaptive zeta %g vs uniform %g", i, al[i].Zeta, ul[i].Zeta)
			}
		}
	}
}
