package sparse

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"acstab/internal/acerr"
	"acstab/internal/linalg"
)

// factorCalls records one stamp pass and runs a fresh two-phase
// factorization (Analyze, then Factor) on its values.
func factorCalls(n int, calls []stampCall) (*Pattern, *Vals, *Numeric, error) {
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		return pat, vals, nil, err
	}
	num := sym.NewNumeric()
	return pat, vals, num, num.Factor(vals.Values())
}

// denseOf replays a stamp pass into a dense matrix, the oracle the sparse
// solutions are checked against.
func denseOf(n int, calls []stampCall) *linalg.CMatrix {
	m := linalg.NewCMatrix(n)
	replay(m, calls)
	return m
}

// denseSolve solves the stamp pass's system with the dense LU.
func denseSolve(t *testing.T, n int, calls []stampCall, b []complex128) []complex128 {
	t.Helper()
	f, err := linalg.CFactor(denseOf(n, calls))
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// solve runs one allocating SolveInto.
func solve(num *Numeric, b []complex128) ([]complex128, error) {
	x := make([]complex128, len(b))
	return x, num.SolveInto(x, b)
}

// checkResidual asserts A·x = b entrywise against the dense form of calls.
func checkResidual(t *testing.T, n int, calls []stampCall, x, b []complex128, tol float64) {
	t.Helper()
	ax := denseOf(n, calls).MulVec(x)
	for i := range b {
		if d := cmplx.Abs(ax[i] - b[i]); d > tol {
			t.Fatalf("residual %g at %d", d, i)
		}
	}
}

func TestSolveKnown(t *testing.T) {
	// [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
	calls := []stampCall{{0, 0, 2}, {0, 1, 1}, {1, 0, 1}, {1, 1, 3}}
	_, _, num, err := factorCalls(2, calls)
	if err != nil {
		t.Fatal(err)
	}
	x, err := solve(num, []complex128{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-0.8) > 1e-12 || cmplx.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

// TestAddAccumulates: duplicate stamps of one position share a slot and
// sum, matching MNA stamping.
func TestAddAccumulates(t *testing.T) {
	pat, vals := compile(2, []stampCall{{0, 0, 1}, {0, 0, complex(2, 1)}, {1, 1, 0}})
	if pat.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", pat.NNZ())
	}
	if got := vals.Values()[pat.SlotOf(0, 0)]; got != complex(3, 1) {
		t.Errorf("(0,0) = %v, want (3+1i)", got)
	}
	if pat.SlotOf(1, 0) != -1 {
		t.Error("unstamped position has a slot")
	}
}

// TestZeroPreservesStructure: Begin clears the values and keeps the
// pattern, so a second stamp pass lands in the same slots without drift.
func TestZeroPreservesStructure(t *testing.T) {
	calls := []stampCall{{0, 1, 3}, {1, 1, 1}}
	pat, vals := compile(2, calls)
	vals.Begin()
	for _, v := range vals.Values() {
		if v != 0 {
			t.Fatal("Begin should clear the values")
		}
	}
	vals.Add(0, 1, 2)
	vals.Add(1, 1, 1)
	if vals.Drift() {
		t.Error("reuse after Begin drifted")
	}
	if got := vals.Values()[pat.SlotOf(0, 1)]; got != 2 {
		t.Errorf("reuse after Begin: (0,1) = %v, want 2", got)
	}
}

func TestPivotingZeroDiagonal(t *testing.T) {
	// MNA-like pattern with a zero diagonal (ideal source branch).
	calls := []stampCall{
		{0, 0, 1e-3}, {0, 2, 1},
		{1, 1, 2e-3}, {1, 2, -1},
		{2, 0, 1}, {2, 1, -1},
		// a[2][2] = 0
	}
	_, _, num, err := factorCalls(3, calls)
	if err != nil {
		t.Fatal(err)
	}
	b := []complex128{0, 0, 5}
	x, err := solve(num, b)
	if err != nil {
		t.Fatal(err)
	}
	checkResidual(t, 3, calls, x, b, 1e-9)
}

func TestSingular(t *testing.T) {
	_, _, _, err := factorCalls(2, []stampCall{{0, 0, 1}, {1, 0, 2}})
	if !errors.Is(err, acerr.ErrSingularMatrix) {
		t.Fatalf("error %v, want singular", err)
	}
}

func TestEmptyMatrixSingular(t *testing.T) {
	_, _, _, err := factorCalls(3, nil)
	if !errors.Is(err, acerr.ErrSingularMatrix) {
		t.Fatalf("error %v, want singular", err)
	}
}

// TestFactorSkipsCollapseGuard: a pivot far below its row's magnitude but
// within singularTol of its column is usable. Analyze accepts it, so
// Factor must too, while Refactor, reusing the order at other values,
// rejects it as collapsed.
func TestFactorSkipsCollapseGuard(t *testing.T) {
	calls := []stampCall{{0, 0, 1e-13}, {0, 1, 1}, {1, 1, 1}}
	pat, vals, num, err := factorCalls(2, calls)
	if err != nil {
		t.Fatalf("fresh factorization rejected a matrix Analyze accepted: %v", err)
	}
	b := []complex128{1, 2}
	x, err := solve(num, b)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSolve(t, 2, calls, b)
	if d := maxRelDiff(want, x); d > 1e-9 {
		t.Errorf("fresh factorization deviates from dense by %g", d)
	}
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	if err := sym.NewNumeric().Refactor(vals.Values()); !errors.Is(err, acerr.ErrSingularMatrix) {
		t.Errorf("Refactor error %v, want the collapsed-pivot guard", err)
	}
}

// Property: the two-phase factorization agrees with the dense solve on
// random sparse diagonally dominant systems.
func TestAgreesWithDenseQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		var calls []stampCall
		for i := 0; i < n; i++ {
			sum := 0.0
			// A few off-diagonal entries per row.
			k := 1 + r.Intn(4)
			for t := 0; t < k; t++ {
				j := r.Intn(n)
				if j == i {
					continue
				}
				v := complex(r.NormFloat64(), r.NormFloat64())
				calls = append(calls, stampCall{i, j, v})
				sum += cmplx.Abs(v)
			}
			calls = append(calls, stampCall{i, i, complex(sum+1+r.Float64(), r.NormFloat64())})
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		_, _, num, err := factorCalls(n, calls)
		if err != nil {
			return false
		}
		xs, err := solve(num, b)
		if err != nil {
			return false
		}
		df, err := linalg.CFactor(denseOf(n, calls))
		if err != nil {
			return false
		}
		xd, err := df.Solve(b)
		if err != nil {
			return false
		}
		for i := range xs {
			if cmplx.Abs(xs[i]-xd[i]) > 1e-8*(1+cmplx.Abs(xd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestFactorReuseMultiRHS: one factorization serves every unit right-hand
// side, the all-nodes sweep's use of it.
func TestFactorReuseMultiRHS(t *testing.T) {
	n := 10
	r := rand.New(rand.NewSource(5))
	var calls []stampCall
	for i := 0; i < n; i++ {
		calls = append(calls,
			stampCall{i, i, complex(5+r.Float64(), r.NormFloat64())},
			stampCall{i, (i + 1) % n, complex(r.NormFloat64(), 0)})
	}
	_, _, num, err := factorCalls(n, calls)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		b := make([]complex128, n)
		b[k] = 1
		x, err := solve(num, b)
		if err != nil {
			t.Fatal(err)
		}
		checkResidual(t, n, calls, x, b, 1e-10)
	}
}

func TestTridiagonalLowFill(t *testing.T) {
	// A tridiagonal system should factor with O(n) fill.
	n := 200
	var calls []stampCall
	for i := 0; i < n; i++ {
		calls = append(calls, stampCall{i, i, 4})
		if i > 0 {
			calls = append(calls, stampCall{i, i - 1, -1})
		}
		if i < n-1 {
			calls = append(calls, stampCall{i, i + 1, -1})
		}
	}
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	if sym.FillIn() > 4*n {
		t.Errorf("fill %d exceeds 4n = %d", sym.FillIn(), 4*n)
	}
	num := sym.NewNumeric()
	if err := num.Factor(vals.Values()); err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = 1
	}
	x, err := solve(num, b)
	if err != nil {
		t.Fatal(err)
	}
	checkResidual(t, n, calls, x, b, 1e-10)
}

func TestRHSLengthMismatch(t *testing.T) {
	_, _, num, err := factorCalls(2, []stampCall{{0, 0, 1}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := num.SolveInto(make([]complex128, 2), []complex128{1}); err == nil {
		t.Error("expected error")
	}
}
