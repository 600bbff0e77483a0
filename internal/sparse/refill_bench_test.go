package sparse_test

import (
	"context"
	"math"
	"testing"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/sparse"
)

// refillSetup is one circuit's AC system at its operating point, recorded
// and analyzed the way a sweep does it: the pattern, its affine recording,
// a value array and a Numeric over the pivot order chosen at the first
// grid frequency.
type refillSetup struct {
	aff  *sparse.Affine
	vals []complex128
	num  *sparse.Numeric
	grid []float64 // angular frequencies
}

func newRefillSetup(b *testing.B, c *netlist.Circuit) *refillSetup {
	b.Helper()
	flat, err := netlist.Flatten(c)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		b.Fatal(err)
	}
	op, err := analysis.New(sys).OP(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var grid []float64
	for _, f := range num.LogGridPPD(1e3, 1e9, 40) {
		grid = append(grid, 2*math.Pi*f)
	}
	rec := sparse.NewRecorder(sys.NumUnknowns())
	sys.StampAC(rec, nil, grid[0], op)
	pat := rec.Compile()
	aff := pat.NewAffine()
	aff.Begin()
	sys.StampAC(aff, aff.RHS(), 1, op)
	if aff.Drift() {
		b.Fatal("affine pass drifted")
	}
	vals := make([]complex128, pat.NNZ())
	aff.FillInto(vals, grid[0])
	sym, err := pat.Analyze(vals)
	if err != nil {
		b.Fatal(err)
	}
	return &refillSetup{aff: aff, vals: vals, num: sym.NewNumeric(), grid: grid}
}

// BenchmarkRefill times one frequency point of the sweep's refill,
// Affine.FillInto then Numeric.Refactor, cycling through a
// 40-points-per-decade grid from 1 kHz to 1 GHz, on the 32-loop resonator
// field (64 unknowns) and on the Table 2 circuit. It is a quick check for
// kernel work, not a gate.
func BenchmarkRefill(b *testing.B) {
	for _, ckt := range []struct {
		name string
		c    *netlist.Circuit
	}{
		{"field32", circuits.ResonatorField(32, 1e5, 0.35)},
		{"table2", circuits.FullCircuit()},
	} {
		st := newRefillSetup(b, ckt.c)
		b.Run(ckt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st.aff.FillInto(st.vals, st.grid[i%len(st.grid)])
				if err := st.num.Refactor(st.vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
