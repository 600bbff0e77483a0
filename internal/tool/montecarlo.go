package tool

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acstab/internal/netlist"
)

// MCSpec configures a Monte Carlo stability run: each design variable in
// Sigma varies log-normally around its nominal value with the given
// relative standard deviation (e.g. 0.05 = 5 %). Deterministic for a
// fixed Seed.
type MCSpec struct {
	Runs int
	Seed int64
	// Sigma maps design-variable names to relative standard deviations.
	Sigma map[string]float64
}

// MonteCarlo checks spec against the circuit and draws the design
// variables of its Runs samples — mismatch/tolerance analysis for loop
// stability, the natural extension of the paper's planned corner
// support. Each sample varies every Sigma variable around its value in
// ckt; the caller runs one all-nodes analysis per sample. The draws take
// the variables in sorted-name order, so a Seed always gives the same
// samples. The circuit is not modified.
func MonteCarlo(ckt *netlist.Circuit, spec MCSpec) ([]map[string]float64, error) {
	if spec.Runs <= 0 {
		return nil, fmt.Errorf("tool: MonteCarlo needs Runs > 0")
	}
	if len(spec.Sigma) == 0 {
		return nil, fmt.Errorf("tool: MonteCarlo needs at least one Sigma entry")
	}
	names := make([]string, 0, len(spec.Sigma))
	for name := range spec.Sigma {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := ckt.Params[name]; !ok {
			return nil, fmt.Errorf("tool: unknown design variable %q", name)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	draws := make([]map[string]float64, spec.Runs)
	for k := range draws {
		vars := make(map[string]float64, len(names))
		for _, name := range names {
			vars[name] = ckt.Params[name] * math.Exp(spec.Sigma[name]*rng.NormFloat64())
		}
		draws[k] = vars
	}
	return draws, nil
}
