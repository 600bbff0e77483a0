package tool

import (
	"context"
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

// MCSample is the outcome of one Monte Carlo draw.
type MCSample struct {
	Variables map[string]float64
	// WorstPeak / Freq / PM of the most dangerous loop (0 if none).
	WorstPeak float64
	FreqHz    float64
	PMDeg     float64
	Err       error
}

// MCResult aggregates a Monte Carlo run.
type MCResult struct {
	Samples []MCSample
	// Failed counts samples whose analysis errored.
	Failed int
}

// MonteCarlo runs repeated all-nodes analyses with randomized design
// variables — mismatch/tolerance analysis for loop stability, the natural
// extension of the paper's planned corner support. The source circuit is
// not modified.
func MonteCarlo(ctx context.Context, ckt *netlist.Circuit, opts Options, spec MCSpec) (*MCResult, error) {
	if spec.Runs <= 0 {
		return nil, fmt.Errorf("tool: MonteCarlo needs Runs > 0")
	}
	if len(spec.Sigma) == 0 {
		return nil, fmt.Errorf("tool: MonteCarlo needs at least one Sigma entry")
	}
	for name := range spec.Sigma {
		if _, ok := ckt.Params[name]; !ok {
			return nil, fmt.Errorf("tool: unknown design variable %q", name)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	res := &MCResult{}
	for k := 0; k < spec.Runs; k++ {
		vars := map[string]float64{}
		for name, sigma := range spec.Sigma {
			nominal := ckt.Params[name]
			vars[name] = nominal * math.Exp(sigma*rng.NormFloat64())
		}
		sample := MCSample{Variables: vars}
		rep, err := runVariant(ctx, ckt, opts, vars, nil)
		if err != nil {
			sample.Err = err
			res.Failed++
		} else if w := WorstLoop(rep); w != nil {
			sample.WorstPeak = w.WorstPeak
			sample.FreqHz = w.Freq
			sample.PMDeg = w.PhaseMarginDeg
		}
		res.Samples = append(res.Samples, sample)
	}
	return res, nil
}

// PMQuantile returns the q-quantile (0..1) of the phase margin across
// successful samples with a resonant loop — e.g. PMQuantile(0.05) is the
// 5th-percentile ("worst plausible") phase margin.
func (r *MCResult) PMQuantile(q float64) (float64, bool) {
	var pms []float64
	for _, s := range r.Samples {
		if s.Err == nil && s.FreqHz > 0 {
			pms = append(pms, s.PMDeg)
		}
	}
	if len(pms) == 0 {
		return 0, false
	}
	sort.Float64s(pms)
	idx := int(q * float64(len(pms)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(pms) {
		idx = len(pms) - 1
	}
	return pms[idx], true
}
