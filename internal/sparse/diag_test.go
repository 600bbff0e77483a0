package sparse

import (
	"testing"
)

// TestSolveDiagAgreesWithSolveInto: on the ladder pattern across many
// value sets, the batched diagonal extraction must produce exactly the
// Z_kk a full forward+backward substitution does, for every node: the
// terms it drops subtract exact zeros. == lets the sign of a zero differ
// and nothing else.
func TestSolveDiagAgreesWithSolveInto(t *testing.T) {
	const n = 24
	pat, vals := compile(n, ladderStamp(n, 1e6))
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	plan, err := sym.DiagPlan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, n)
	b := make([]complex128, n)
	x := make([]complex128, n)
	for _, omega := range []float64{1, 1e3, 1e6, 1e9, 1e12} {
		calls := ladderStamp(n, omega)
		vals.Begin()
		replay(vals, calls)
		if err := num.Refactor(vals.Values()); err != nil {
			t.Fatalf("omega %g: %v", omega, err)
		}
		if err := num.SolveDiagInto(dst, plan); err != nil {
			t.Fatalf("omega %g: %v", omega, err)
		}
		for k := 0; k < n; k++ {
			b[k] = 1
			if err := num.SolveInto(x, b); err != nil {
				t.Fatalf("omega %g node %d: %v", omega, k, err)
			}
			b[k] = 0
			if dst[k] != x[k] {
				t.Errorf("omega %g node %d: diag %v vs full %v", omega, k, dst[k], x[k])
			}
		}
	}
}

// TestSolveDiagSubsetAndOrder: the plan preserves caller node order and
// works for arbitrary subsets, including repeated nodes.
func TestSolveDiagSubsetAndOrder(t *testing.T) {
	const n = 16
	pat, vals := compile(n, ladderStamp(n, 1e5))
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	if err := num.Refactor(vals.Values()); err != nil {
		t.Fatal(err)
	}
	nodes := []int{9, 2, 2, 15, 0}
	plan, err := sym.DiagPlan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, len(nodes))
	if err := num.SolveDiagInto(dst, plan); err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, n)
	x := make([]complex128, n)
	for i, k := range nodes {
		b[k] = 1
		if err := num.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		b[k] = 0
		if dst[i] != x[k] {
			t.Errorf("node %d (slot %d): diag %v vs full %v", k, i, dst[i], x[k])
		}
	}
	if dst[1] != dst[2] {
		t.Errorf("repeated node solved inconsistently: %v vs %v", dst[1], dst[2])
	}
}

// TestSolveDiagAllocationFree pins the steady-state contract of the
// batched diagonal solve: restamp + refactor + SolveDiagInto must not
// allocate at all once the plan and numeric storage exist.
func TestSolveDiagAllocationFree(t *testing.T) {
	const n = 32
	calls := ladderStamp(n, 1e6)
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	plan, err := sym.DiagPlan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, n)
	allocs := testing.AllocsPerRun(50, func() {
		vals.Begin()
		replay(vals, calls)
		if vals.Drift() {
			t.Fatal("drift")
		}
		if err := num.Refactor(vals.Values()); err != nil {
			t.Fatal(err)
		}
		if err := num.SolveDiagInto(dst, plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state restamp+refactor+diag-solve allocated %v times per run, want 0", allocs)
	}
}

// TestDiagPlanErrors: out-of-range nodes are rejected at plan time; a plan
// built for one symbolic analysis is rejected by another's numeric; a
// mis-sized dst is rejected.
func TestDiagPlanErrors(t *testing.T) {
	const n = 8
	pat, vals := compile(n, ladderStamp(n, 1e4))
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sym.DiagPlan([]int{n}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := sym.DiagPlan([]int{-1}); err == nil {
		t.Error("negative node accepted")
	}
	plan, err := sym.DiagPlan([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	if err := num.Refactor(vals.Values()); err != nil {
		t.Fatal(err)
	}
	if err := num.SolveDiagInto(make([]complex128, 3), plan); err == nil {
		t.Error("mis-sized dst accepted")
	}
	// A numeric over a different symbolic must reject the plan.
	pat2, vals2 := compile(n, ladderStamp(n, 1e4))
	sym2, err := pat2.Analyze(vals2.Values())
	if err != nil {
		t.Fatal(err)
	}
	num2 := sym2.NewNumeric()
	if err := num2.Refactor(vals2.Values()); err != nil {
		t.Fatal(err)
	}
	if err := num2.SolveDiagInto(make([]complex128, 2), plan); err == nil {
		t.Error("plan from a different symbolic accepted")
	}
	if err := num2.SolveDiagInto(make([]complex128, 2), nil); err == nil {
		t.Error("nil plan accepted")
	}
}

// blockStamp builds a block-diagonal stamp stream: k independent 3-node
// blocks, the shape of the resonator-field workload where reach
// restriction pays the most.
func blockStamp(k int, omega float64) []stampCall {
	var calls []stampCall
	for blk := 0; blk < k; blk++ {
		base := 3 * blk
		for a := 0; a < 3; a++ {
			calls = append(calls, stampCall{base + a, base + a,
				complex(1e-3*float64(a+1), omega*1e-12)})
		}
		for a := 0; a < 2; a++ {
			v := complex(1e-4, omega*1e-13)
			calls = append(calls,
				stampCall{base + a, base + a + 1, -v},
				stampCall{base + a + 1, base + a, -v})
		}
	}
	return calls
}

// TestDiagPlanReachRestriction: on a block-diagonal system the reach sets
// must stay inside each node's own block — RowsPerSolve far below the
// full-substitution row count — and the restricted solve must still agree
// with the full one.
func TestDiagPlanReachRestriction(t *testing.T) {
	const blocks = 8
	n := 3 * blocks
	calls := blockStamp(blocks, 1e6)
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	plan, err := sym.DiagPlan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Each node's reach is at most its own 3-row block, forward and back.
	if got, limit := plan.RowsPerSolve(), int64(n*6); got > limit {
		t.Errorf("RowsPerSolve = %d, want <= %d on a block-diagonal system", got, limit)
	}
	if full := plan.RowsFull(); full != int64(n)*2*int64(n) {
		t.Errorf("RowsFull = %d, want %d", plan.RowsFull(), int64(n)*2*int64(n))
	}
	if ratio := float64(plan.RowsPerSolve()) / float64(plan.RowsFull()); ratio > 0.2 {
		t.Errorf("rows-visited ratio %g, want well under 0.2 for independent blocks", ratio)
	}
	num := sym.NewNumeric()
	if err := num.Refactor(vals.Values()); err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, n)
	if err := num.SolveDiagInto(dst, plan); err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, n)
	x := make([]complex128, n)
	for k := 0; k < n; k++ {
		b[k] = 1
		if err := num.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		b[k] = 0
		if dst[k] != x[k] {
			t.Errorf("node %d: diag %v vs full %v", k, dst[k], x[k])
		}
	}
}
