package tool

import (
	"context"
	"maps"
	"sort"

	"acstab/internal/acerr"
	"acstab/internal/netlist"
	"acstab/internal/stab"
)

// runVariant runs an all-nodes analysis of a copy of ckt with params put
// over its design variables and, when temp is non-nil, at *temp °C. The
// callers check the names. Flatten re-evaluates every value, parameter and
// source spec that reads a design variable, so the override only has to
// reach the copy's Params.
func runVariant(ctx context.Context, ckt *netlist.Circuit, opts Options, params map[string]float64, temp *float64) (*Report, error) {
	if err := acerr.Ctx(ctx); err != nil {
		return nil, err
	}
	mod := cloneForOverride(ckt)
	maps.Copy(mod.Params, params)
	if temp != nil {
		mod.Temp = *temp
	}
	t, err := New(mod, opts)
	if err != nil {
		return nil, err
	}
	return t.AllNodes(ctx)
}

// cloneForOverride copies the circuit with its own Params map, so
// overrides of design variables and temperature don't mutate the caller's
// netlist. Everything else, .nodeset included, is shared read-only.
func cloneForOverride(ckt *netlist.Circuit) *netlist.Circuit {
	c := *ckt
	c.Params = maps.Clone(ckt.Params)
	return &c
}

// TempResult pairs a temperature with its all-nodes report.
type TempResult struct {
	Temp   float64
	Report *Report
	Err    error
}

// RunTemps executes an all-nodes analysis at each temperature (the
// "in-tool sweeps (TEMP etc)" feature from the paper's in-development
// list).
func RunTemps(ctx context.Context, ckt *netlist.Circuit, opts Options, temps []float64) []TempResult {
	sorted := append([]float64(nil), temps...)
	sort.Float64s(sorted)
	out := make([]TempResult, len(sorted))
	for i, temp := range sorted {
		out[i].Temp = temp
		rep, err := runVariant(ctx, ckt, opts, nil, &temp)
		out[i].Report = rep
		out[i].Err = err
	}
	return out
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
