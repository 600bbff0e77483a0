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
// grid frequency, plus the node-voltage unknowns an All Nodes sweep
// injects into.
type refillSetup struct {
	aff   *sparse.Affine
	vals  []complex128
	sym   *sparse.Symbolic
	num   *sparse.Numeric
	grid  []float64 // angular frequencies
	n     int       // unknowns
	nodes []int
}

func newRefillSetup(b testing.TB, c *netlist.Circuit) *refillSetup {
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
	nodes := make([]int, len(sys.NodeNames))
	for i := range nodes {
		nodes[i] = i
	}
	return &refillSetup{aff: aff, vals: vals, sym: sym, num: sym.NewNumeric(), grid: grid, n: sys.NumUnknowns(), nodes: nodes}
}

// BenchmarkRefill times one frequency point of the sweep's refill,
// Affine.FillInto then Numeric.Refactor, cycling through a
// 40-points-per-decade grid from 1 kHz to 1 GHz, on the 32-loop resonator
// field (64 unknowns) and on the Table 2 circuit. Each circuit's "pair"
// arm refills two neighbouring points per iteration with RefactorPair and
// also reports ns/point. It is a quick check for kernel work, not a gate.
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
		num2, vals2 := st.sym.NewNumeric(), make([]complex128, len(st.vals))
		b.Run(ckt.name+"-pair", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := (2 * i) % (len(st.grid) - 1)
				st.aff.FillInto(st.vals, st.grid[k])
				st.aff.FillInto(vals2, st.grid[k+1])
				if err := sparse.RefactorPair(st.num, num2, st.vals, vals2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/point")
		})
	}
}

// BenchmarkSolveDiag times one batched Numeric.SolveDiagInto over every
// node-voltage unknown, the All Nodes sweep's per-point kernel, on the
// 32-loop resonator field, the Table 2 circuit and the transistor op-amp.
// Each iteration solves on the next point's factorization of the same
// 40-points-per-decade grid BenchmarkRefill cycles through (all refilled
// before the timer starts). It is a quick check for kernel work, not a
// gate. Each circuit's "pair" arm runs SolveDiagPair on two neighbouring
// points' factorizations per iteration and also reports ns/point.
func BenchmarkSolveDiag(b *testing.B) {
	for _, ckt := range []namedCircuit{
		{"field32", circuits.ResonatorField(32, 1e5, 0.35)},
		{"table2", circuits.FullCircuit()},
		{"transistor", circuits.TransistorOpAmp()},
	} {
		st := newRefillSetup(b, ckt.c)
		plan, err := st.sym.DiagPlan(st.nodes)
		if err != nil {
			b.Fatal(err)
		}
		var nums []*sparse.Numeric
		for _, omega := range st.grid {
			nm := st.sym.NewNumeric()
			st.aff.FillInto(st.vals, omega)
			if err := nm.Refactor(st.vals); err == nil {
				nums = append(nums, nm)
			}
		}
		if len(nums) == 0 {
			b.Fatalf("%s: no grid point refactored", ckt.name)
		}
		dst := make([]complex128, len(st.nodes))
		b.Run(ckt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := nums[i%len(nums)].SolveDiagInto(dst, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
		dst2 := make([]complex128, len(st.nodes))
		b.Run(ckt.name+"-pair", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := (2 * i) % (len(nums) - 1)
				if errA, errB := sparse.SolveDiagPair(nums[k], nums[k+1], dst, dst2, plan); errA != nil || errB != nil {
					b.Fatal(errA, errB)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/point")
		})
	}
}
