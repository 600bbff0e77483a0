package sparse_test

import (
	"math"
	"runtime"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/sos"
	"acstab/internal/sparse"
)

// namedCircuit is one benchmark circuit and the name a failure reports.
type namedCircuit struct {
	name string
	c    *netlist.Circuit
}

// kernelCircuits are the circuits the benchmark's workloads draw from:
// the Table 1 tanks and the Fig. 4 buffer (paper-single), the Table 2
// circuit, the Fig. 5 bias cell and the transistor op-amp
// (paper-all-nodes, corner-batch) and a 32-loop resonator field
// (resonator-field).
func kernelCircuits() []namedCircuit {
	list := []namedCircuit{
		{"buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"table2", circuits.FullCircuit()},
		{"bias", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"transistor", circuits.TransistorOpAmp()},
		{"field32", circuits.ResonatorField(32, 1e5, 0.35)},
	}
	for _, r := range sos.PaperTable1() {
		if r.Zeta > 0.05 && r.Zeta < 1 {
			list = append(list, namedCircuit{"tank", circuits.SecondOrder(r.Zeta, 1e6)})
		}
	}
	return list
}

// TestSolveDiagBitIdenticalOnCircuits: at every point of the default
// 1 kHz–1 GHz grid, on every circuit the benchmark draws from, each
// driving-point entry of the batched diagonal solve equals the node's
// entry of a full SolveInto. The sweep relies on this when it overwrites
// a kernel value with the residual probe's full solve. == lets the sign
// of a zero differ and nothing else.
func TestSolveDiagBitIdenticalOnCircuits(t *testing.T) {
	for _, ckt := range kernelCircuits() {
		st := newRefillSetup(t, ckt.c)
		plan, err := st.sym.DiagPlan(st.nodes)
		if err != nil {
			t.Fatalf("%s: %v", ckt.name, err)
		}
		dst := make([]complex128, len(st.nodes))
		b := make([]complex128, st.n)
		x := make([]complex128, st.n)
		refilled := 0
		for _, omega := range st.grid {
			st.aff.FillInto(st.vals, omega)
			if err := st.num.Refactor(st.vals); err != nil {
				// The sweep leaves the kernel at a collapsed pivot.
				continue
			}
			refilled++
			if err := st.num.SolveDiagInto(dst, plan); err != nil {
				t.Fatalf("%s at ω=%g: %v", ckt.name, omega, err)
			}
			for i, k := range st.nodes {
				b[k] = 1
				if err := st.num.SolveInto(x, b); err != nil {
					t.Fatalf("%s at ω=%g node %d: %v", ckt.name, omega, k, err)
				}
				b[k] = 0
				if dst[i] != x[k] {
					t.Errorf("%s at ω=%g node %d: diag %v, full %v", ckt.name, omega, k, dst[i], x[k])
				}
			}
		}
		if refilled == 0 {
			t.Errorf("%s: no grid point refactored", ckt.name)
		}
	}
}

// firstBitDiff returns the first index where a and b differ in any bit,
// or -1 when they are identical.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestPairKernelsBitIdenticalOnCircuits: at every pair of neighbouring
// points (k, k+1) of the default grid, on every circuit the benchmark
// draws from, RefactorPair and SolveDiagPair leave each lane bit for bit
// where Refactor and SolveDiagInto leave a Numeric refilled at that point
// alone: L multipliers, U entries, reciprocal pivots, PivotGrowth and
// every Z_kk. A pair fails exactly where either point's own refill does.
func TestPairKernelsBitIdenticalOnCircuits(t *testing.T) {
	for _, ckt := range kernelCircuits() {
		st := newRefillSetup(t, ckt.c)
		plan, err := st.sym.DiagPlan(st.nodes)
		if err != nil {
			t.Fatalf("%s: %v", ckt.name, err)
		}
		nn := len(st.nodes)
		single := [2]*sparse.Numeric{st.sym.NewNumeric(), st.sym.NewNumeric()}
		pair := [2]*sparse.Numeric{st.num, st.sym.NewNumeric()}
		vals := [2][]complex128{st.vals, make([]complex128, len(st.vals))}
		want := [2][]complex128{make([]complex128, nn), make([]complex128, nn)}
		got := [2][]complex128{make([]complex128, nn), make([]complex128, nn)}
		paired := 0
		for k := 0; k+1 < len(st.grid); k++ {
			var singleErr [2]error
			for l := range 2 {
				st.aff.FillInto(vals[l], st.grid[k+l])
				singleErr[l] = single[l].Refactor(vals[l])
			}
			err := sparse.RefactorPair(pair[0], pair[1], vals[0], vals[1])
			if wantOK := singleErr[0] == nil && singleErr[1] == nil; (err == nil) != wantOK {
				t.Errorf("%s at ω=%g,%g: pair refill error %v, single refills %v, %v",
					ckt.name, st.grid[k], st.grid[k+1], err, singleErr[0], singleErr[1])
				continue
			}
			if err != nil {
				continue
			}
			paired++
			var pairErr [2]error
			pairErr[0], pairErr[1] = sparse.SolveDiagPair(pair[0], pair[1], got[0], got[1], plan)
			for l := range 2 {
				omega := st.grid[k+l]
				if err := single[l].SolveDiagInto(want[l], plan); (err == nil) != (pairErr[l] == nil) {
					t.Fatalf("%s lane %d at ω=%g: pair diag error %v, single %v", ckt.name, l, omega, pairErr[l], err)
				}
				wl, wu, wd := single[l].Factors()
				gl, gu, gd := pair[l].Factors()
				for _, f := range []struct {
					name      string
					want, got []complex128
				}{{"lval", wl, gl}, {"uval", wu, gu}, {"udinv", wd, gd}, {"Z_kk", want[l], got[l]}} {
					if i := firstBitDiff(f.want, f.got); i >= 0 {
						t.Fatalf("%s lane %d at ω=%g: %s[%d] = %v, single-point kernel %v",
							ckt.name, l, omega, f.name, i, f.got[i], f.want[i])
					}
				}
				if g, w := pair[l].PivotGrowth(), single[l].PivotGrowth(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s lane %d at ω=%g: PivotGrowth %v, single-point refill %v", ckt.name, l, omega, g, w)
				}
			}
		}
		if paired == 0 {
			t.Errorf("%s: no pair of grid points refactored", ckt.name)
		}
	}
}

// planAllocs measures one DiagPlan build over every node-voltage unknown:
// allocations per build (testing.AllocsPerRun) and bytes per build
// (runtime.MemStats.TotalAlloc over the same number of builds).
func planAllocs(t *testing.T, st *refillSetup) (allocs float64, bytes uint64) {
	t.Helper()
	const runs = 50
	build := func() {
		if _, err := st.sym.DiagPlan(st.nodes); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(runs, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDiagPlanAllocation: compiling the plan allocates no more than
// building the reach-list plan it replaced did on the Table 2 circuit and
// the 32-loop resonator field. The ceilings are that plan's figures, 17
// allocations and 1712 bytes, 19 and 4272 (Go 1.24, linux/amd64); the
// compiled plan takes 3 allocations on both.
func TestDiagPlanAllocation(t *testing.T) {
	for _, c := range []struct {
		name      string
		ckt       *netlist.Circuit
		maxAllocs float64
		maxBytes  uint64
	}{
		{"table2", circuits.FullCircuit(), 17, 1712},
		{"field32", circuits.ResonatorField(32, 1e5, 0.35), 19, 4272},
	} {
		allocs, bytes := planAllocs(t, newRefillSetup(t, c.ckt))
		t.Logf("%s: %v allocs, %d bytes per DiagPlan", c.name, allocs, bytes)
		if allocs > c.maxAllocs || bytes > c.maxBytes {
			t.Errorf("%s: DiagPlan made %v allocations and %d bytes, want at most %v and %d",
				c.name, allocs, bytes, c.maxAllocs, c.maxBytes)
		}
	}
}
