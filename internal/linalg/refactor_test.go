package linalg

import (
	"errors"
	"math"
	"testing"

	"acstab/internal/acerr"
)

// TestNearSingularReal: a rank-deficient-to-working-precision matrix must
// be reported singular instead of silently producing a garbage solution.
// The third row is the sum of the first two plus a perturbation far below
// the scale of the entries, so elimination collapses the last pivot to
// ~1e-15 of the matrix scale.
func TestNearSingularReal(t *testing.T) {
	m := NewMatrix(3)
	r0 := []float64{1, 2, 3}
	r1 := []float64{4, 5, 6}
	for j := 0; j < 3; j++ {
		m.Set(0, j, r0[j])
		m.Set(1, j, r1[j])
		m.Set(2, j, r0[j]+r1[j])
	}
	m.Add(2, 2, 1e-14) // nearly, but not exactly, dependent
	_, err := Factor(m)
	if err == nil {
		t.Fatal("near-singular matrix factored without error")
	}
	if !errors.Is(err, ErrSingular) || !errors.Is(err, acerr.ErrSingularMatrix) {
		t.Fatalf("error %v does not wrap ErrSingular/acerr.ErrSingularMatrix", err)
	}
}

// TestNearSingularComplex mirrors the real-valued regression on CFactor.
func TestNearSingularComplex(t *testing.T) {
	m := NewCMatrix(3)
	r0 := []complex128{1 + 1i, 2, 3 - 1i}
	r1 := []complex128{4, 5 + 2i, 6}
	for j := 0; j < 3; j++ {
		m.Set(0, j, r0[j])
		m.Set(1, j, r1[j])
		m.Set(2, j, r0[j]+r1[j])
	}
	m.Add(2, 2, complex(1e-14, 0))
	if _, err := CFactor(m); err == nil {
		t.Fatal("near-singular complex matrix factored without error")
	} else if !errors.Is(err, acerr.ErrSingularMatrix) {
		t.Fatalf("error %v does not wrap acerr.ErrSingularMatrix", err)
	}
}

// TestIllScaledNotSingular: a gigantic entry sharing a column with a ±1
// voltage-source pivot (the overflowing-transistor shape that shows up
// mid-Newton) must NOT be misclassified as singular — the pivot is
// full-size within its own row.
func TestIllScaledNotSingular(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 0, 5e16) // huge conductances from an overflowed exponential
	m.Set(0, 1, 1)
	m.Set(0, 2, 5e16)
	m.Set(1, 0, 1) // voltage-source rows: honest ±1 entries
	m.Set(2, 1, 1)
	m.Set(2, 2, 1)
	f, err := Factor(m)
	if err != nil {
		t.Fatalf("ill-scaled but regular matrix rejected: %v", err)
	}
	// b = A * [1 1 1]: the ±1 pivots must survive the 5e16 column scale.
	x, err := f.Solve([]float64{5e16 + 1 + 5e16, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 1, 1} {
		if math.Abs(x[i]-want) > 1e-6 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

// TestFactorIntoReuse: repeated factorizations into the same LU reuse
// storage and keep producing correct solutions, including right after a
// singular failure.
func TestFactorIntoReuse(t *testing.T) {
	m := NewCMatrix(2)
	var f *CLU
	for k := 1; k <= 4; k++ {
		m.Zero()
		m.Set(0, 0, complex(float64(k), 1))
		m.Set(0, 1, 1)
		m.Set(1, 0, 1)
		m.Set(1, 1, complex(0, float64(k)))
		var err error
		f, err = CFactorInto(f, m)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		b := []complex128{complex(float64(k), 0), 1i}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Verify residual instead of a closed form.
		r := m.MulVec(x)
		for i := range b {
			if d := r[i] - b[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
				t.Errorf("k=%d: residual %v at %d", k, d, i)
			}
		}
	}
	// Singular input: the error must not poison the reused storage.
	m.Zero()
	m.Set(0, 0, 1)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 1)
	if _, err := CFactorInto(f, m); err == nil {
		t.Fatal("singular matrix accepted")
	}
	m.Zero()
	m.Set(0, 0, 2)
	m.Set(1, 1, 2)
	f, err := CFactorInto(f, m)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]complex128{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

// TestFactorInPlaceReuse: stamping into an LU's own Matrix and factoring
// in place gives bit for bit the factors and solution of Factor on a
// separate copy, again and again on the same storage, including right
// after a singular failure.
func TestFactorInPlaceReuse(t *testing.T) {
	f := NewLU(3)
	stamp := func(m *Matrix, k float64) {
		m.Zero()
		m.Set(0, 0, 1e-3*k)
		m.Set(0, 1, 2)
		m.Set(1, 0, 3+k)
		m.Set(1, 2, -1)
		m.Set(2, 1, 1/k)
		m.Set(2, 2, 5)
	}
	b := []float64{1, -2, 0.5}
	for k := 1.0; k <= 4; k++ {
		if k == 3 {
			// All-equal rows are singular; the failure must not poison
			// the storage for the next factorization.
			m := f.Matrix()
			for i := range m.Data {
				m.Data[i] = 1
			}
			if err := f.FactorInPlace(); err == nil {
				t.Fatal("singular matrix accepted")
			}
		}
		ref := NewMatrix(3)
		stamp(ref, k)
		want, err := Factor(ref)
		if err != nil {
			t.Fatal(err)
		}
		stamp(f.Matrix(), k)
		if err := f.FactorInPlace(); err != nil {
			t.Fatalf("k=%g: %v", k, err)
		}
		for i, v := range want.m.Data {
			if math.Float64bits(f.m.Data[i]) != math.Float64bits(v) {
				t.Fatalf("k=%g: factor entry %d = %v, Factor gives %v", k, i, f.m.Data[i], v)
			}
		}
		if f.Det() != want.Det() {
			t.Errorf("k=%g: det %v, Factor gives %v", k, f.Det(), want.Det())
		}
		x := make([]float64, 3)
		if err := f.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		wantX, err := want.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) {
				t.Errorf("k=%g: x[%d] = %v, Factor gives %v", k, i, x[i], wantX[i])
			}
		}
	}
}

// TestSolveIntoAllocationFree: the in-place solve paths, real and
// complex, must not allocate — they run per node per frequency in the
// all-nodes sweep.
func TestSolveIntoAllocationFree(t *testing.T) {
	n := 16
	rm := NewMatrix(n)
	cm := NewCMatrix(n)
	for i := 0; i < n; i++ {
		rm.Set(i, i, 2)
		cm.Set(i, i, complex(2, 1))
		if i > 0 {
			rm.Set(i, i-1, -1)
			rm.Set(i-1, i, -1)
			cm.Set(i, i-1, -1)
			cm.Set(i-1, i, -1)
		}
	}
	rf, err := Factor(rm)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := CFactor(cm)
	if err != nil {
		t.Fatal(err)
	}
	rb, rx := make([]float64, n), make([]float64, n)
	cb, cx := make([]complex128, n), make([]complex128, n)
	rb[0], cb[0] = 1, 1
	if a := testing.AllocsPerRun(50, func() {
		if err := rf.SolveInto(rx, rb); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("real SolveInto allocated %v times per run, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := cf.SolveInto(cx, cb); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("complex SolveInto allocated %v times per run, want 0", a)
	}
}
