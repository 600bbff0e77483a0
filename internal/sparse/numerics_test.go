package sparse

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"acstab/internal/linalg"
)

// setupLadder compiles an n-node ladder and returns its refactored
// Numeric plus the supporting state.
func setupLadder(t *testing.T, n int, omega float64) (*Pattern, *Vals, *Numeric) {
	t.Helper()
	calls := ladderStamp(n, omega)
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	if err := num.Refactor(vals.Values()); err != nil {
		t.Fatal(err)
	}
	return pat, vals, num
}

// TestResidualInf: a solved system reports a residual near machine
// epsilon; a deliberately corrupted solution reports a large one; and the
// residual vector left in r is exactly b − A·x.
func TestResidualInf(t *testing.T) {
	const n = 20
	pat, vals, num := setupLadder(t, n, 1e6)
	rng := rand.New(rand.NewSource(11))
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, n)
	if err := num.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	r := make([]complex128, n)
	eta, err := pat.ResidualInf(vals.Values(), x, b, r)
	if err != nil {
		t.Fatal(err)
	}
	if eta <= 0 || eta > 1e-12 {
		t.Errorf("healthy solve residual = %g, want (0, 1e-12]", eta)
	}
	// r must be the actual residual: recompute it from the dense form.
	r2 := make([]complex128, n)
	eta2, err := denseOf(n, ladderStamp(n, 1e6)).ResidualInf(x, b, r2)
	if err != nil {
		t.Fatal(err)
	}
	// The two accumulate in different orders, so they agree only to
	// rounding — both must still be at noise level for a healthy solve.
	for i := range r {
		if cabs(r[i]-r2[i]) > 1e-14 {
			t.Fatalf("pattern and dense residual vectors disagree at %d: %v vs %v", i, r[i], r2[i])
		}
	}
	if eta2 <= 0 || eta2 > 1e-12 {
		t.Errorf("dense-form backward error = %g, want (0, 1e-12]", eta2)
	}

	// Corrupt the solution: the backward error must see it.
	x[n/2] *= 2
	if bad, _ := pat.ResidualInf(vals.Values(), x, b, r); bad < 1e-6 {
		t.Errorf("corrupted solve residual = %g, want large", bad)
	}
}

// TestResidualInfZeroSystem: the degenerate denominators follow the
// documented rule — all-zero system is perfect, nonzero residual over a
// zero scale is +Inf.
func TestResidualInfZeroSystem(t *testing.T) {
	pat, vals := compile(2, nil)
	x := make([]complex128, 2)
	b := make([]complex128, 2)
	r := make([]complex128, 2)
	eta, err := pat.ResidualInf(vals.Values(), x, b, r)
	if err != nil {
		t.Fatal(err)
	}
	if eta != 0 {
		t.Errorf("all-zero system residual = %g, want 0", eta)
	}
	b[0] = 1 // r = b ≠ 0 but A and x are zero, so bnorm > 0 → finite
	if eta, _ = pat.ResidualInf(vals.Values(), x, b, r); eta != 1 {
		t.Errorf("zero-matrix nonzero-b residual = %g, want 1", eta)
	}
}

// TestRefineInto: one refinement step on a perturbed solution restores
// the residual to near the unperturbed level.
func TestRefineInto(t *testing.T) {
	const n = 24
	pat, vals, num := setupLadder(t, n, 1e5)
	b := make([]complex128, n)
	b[2] = 1
	x := make([]complex128, n)
	if err := num.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	// Perturb x by a relative 1e-6 everywhere: the residual degrades to
	// ~1e-6 and one refinement pulls it back down.
	for i := range x {
		x[i] *= 1 + 1e-6
	}
	r := make([]complex128, n)
	d := make([]complex128, n)
	before, err := pat.ResidualInf(vals.Values(), x, b, r)
	if err != nil {
		t.Fatal(err)
	}
	if before < 1e-9 {
		t.Fatalf("perturbed residual %g unexpectedly small", before)
	}
	if err := num.RefineInto(x, r, d); err != nil {
		t.Fatal(err)
	}
	after, err := pat.ResidualInf(vals.Values(), x, b, r)
	if err != nil {
		t.Fatal(err)
	}
	if after > before/1e3 || after > 1e-12 {
		t.Errorf("refinement: residual %g -> %g, want a drop below 1e-12", before, after)
	}
}

// TestPivotGrowth: a well-scaled ladder reports modest growth; growth is
// refreshed per refactorization.
func TestPivotGrowth(t *testing.T) {
	_, _, num := setupLadder(t, 16, 1e6)
	g := num.PivotGrowth()
	if g <= 0 || g > 1e3 {
		t.Errorf("ladder pivot growth = %g, want (0, 1e3]", g)
	}
}

// TestSolveConjTransInto: x solving Aᴴx = b must satisfy the residual
// identity against the explicitly conjugate-transposed matrix.
func TestSolveConjTransInto(t *testing.T) {
	const n = 18
	_, vals, num := setupLadder(t, n, 1e7)
	rng := rand.New(rand.NewSource(5))
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, n)
	if err := num.SolveConjTransInto(x, b); err != nil {
		t.Fatal(err)
	}
	// Build Aᴴ explicitly in dense form and check its residual for (x, b).
	mh := linalg.NewCMatrix(n)
	for _, c := range ladderStamp(n, 1e7) {
		mh.Add(c.j, c.i, cmplx.Conj(c.v))
	}
	r := make([]complex128, n)
	eta, err := mh.ResidualInf(x, b, r)
	if err != nil {
		t.Fatal(err)
	}
	if eta > 1e-12 {
		t.Errorf("conjugate-transpose solve backward error = %g, want <= 1e-12", eta)
	}
	// The scatter row must be back to all-zero (the SolveInto invariant).
	if err := num.SolveInto(x, b); err != nil {
		t.Errorf("SolveInto after SolveConjTransInto: %v", err)
	}
	_ = vals
}

// TestCondEst1: the estimate is bounded below by ‖A‖₁‖A⁻¹e_j‖₁-style
// probes and within a small factor of the true 1-norm condition number of
// a small dense-checkable system.
func TestCondEst1(t *testing.T) {
	const n = 10
	_, vals, num := setupLadder(t, n, 1e6)
	v := make([]complex128, n)
	z := make([]complex128, n)
	est, err := num.CondEst1(vals.Values(), v, z)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1 {
		t.Errorf("condition estimate %g < 1 (κ is always >= 1)", est)
	}
	// Exact κ₁ from explicit inversion via n unit solves.
	anorm := 0.0
	cols := make([][]complex128, n)
	m := denseOf(n, ladderStamp(n, 1e6))
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += cabs1(m.At(i, j))
		}
		if sum > anorm {
			anorm = sum
		}
		e := make([]complex128, n)
		e[j] = 1
		x := make([]complex128, n)
		if err := num.SolveInto(x, e); err != nil {
			t.Fatal(err)
		}
		cols[j] = x
	}
	invNorm := 0.0
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += cabs1(cols[j][i])
		}
		if sum > invNorm {
			invNorm = sum
		}
	}
	exact := anorm * invNorm
	if est > exact*1.01 {
		t.Errorf("estimate %g exceeds exact κ₁ %g (must be a lower bound up to rounding)", est, exact)
	}
	if est < exact/10 {
		t.Errorf("estimate %g is more than 10x below exact κ₁ %g", est, exact)
	}
}

// TestNumericsAllocationFree: the residual + refinement cycle on
// preallocated scratch must not allocate — it rides the per-frequency hot
// path.
func TestNumericsAllocationFree(t *testing.T) {
	const n = 32
	pat, vals, num := setupLadder(t, n, 1e6)
	b := make([]complex128, n)
	b[0] = 1
	x := make([]complex128, n)
	r := make([]complex128, n)
	d := make([]complex128, n)
	allocs := testing.AllocsPerRun(50, func() {
		if err := num.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if _, err := pat.ResidualInf(vals.Values(), x, b, r); err != nil {
			t.Fatal(err)
		}
		if err := num.RefineInto(x, r, d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("solve+residual+refine allocated %v times per run, want 0", allocs)
	}
}
