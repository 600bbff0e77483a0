package acstab_test

import (
	"context"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/tool"
)

// TestSeedCircuitAccuracyGate is the CI accuracy gate: every seed circuit
// sweeps all nodes with the observatory at its defaults and must come out
// with its worst scale-relative backward error at or below the default
// refinement threshold (1e-9) and zero residual breaches. A solver change
// that silently degrades accuracy fails here even if values still look
// plausible downstream.
func TestSeedCircuitAccuracyGate(t *testing.T) {
	seeds := []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"second-order", circuits.SecondOrder(0.35, 1e6)},
		{"opamp-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"bias", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"full", circuits.FullCircuit()},
		{"rc-ladder-40", circuits.RCLadder(40)},
		{"resonator-field-8", circuits.ResonatorField(8, 1e5, 0.35)},
	}
	sawPositive := false
	for _, sc := range seeds {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := obs.StartRun("accuracy-gate-" + sc.name)
			opts := tool.DefaultOptions()
			opts.Trace = run
			tl, err := tool.New(sc.ckt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tl.AllNodes(context.Background()); err != nil {
				t.Fatal(err)
			}
			run.Finish()
			tr := run.Trace()
			if tr.Counters["ac_residual_points"] == 0 {
				t.Fatal("no residual telemetry recorded; observatory disabled?")
			}
			if max := tr.Stats["numerics_residual_max"]; max > 1e-9 {
				t.Errorf("worst backward error %g exceeds the 1e-9 gate", max)
			} else if max > 0 {
				sawPositive = true
			}
			if n := tr.Counters["ac_residual_breaches"]; n != 0 {
				t.Errorf("%d residual breaches on a seed circuit, want 0", n)
			}
		})
	}
	if !sawPositive {
		t.Error("every seed circuit reported a zero residual max; telemetry looks wired wrong")
	}
}
