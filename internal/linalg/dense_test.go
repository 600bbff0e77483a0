package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	n := 5
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	b := []float64{1, 2, 3, 4, 5}
	x, err := SolveDense(m, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-14 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestSolveKnown(t *testing.T) {
	// [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := SolveDense(m, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("x = %v, want [0.8 1.4]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	m := NewMatrix(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := SolveDense(m, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-14 || math.Abs(x[1]-2) > 1e-14 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSingular(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := SolveDense(m, []float64{1, 1}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestDet(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-(-2)) > 1e-12 {
		t.Errorf("det = %g, want -2", f.Det())
	}
}

func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := rng.NormFloat64()
				m.Set(i, j, v)
				sum += math.Abs(v)
			}
		}
		m.Set(i, i, sum+1+rng.Float64())
	}
	return m
}

// Property: for random diagonally dominant A and random x, solving A y = A x
// recovers x.
func TestSolveRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		m := randomDiagDominant(r, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := m.MulVec(x)
		y, err := SolveDense(m, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// csolve factors m and solves m x = b in one call.
func csolve(m *CMatrix, b []complex128) ([]complex128, error) {
	f, err := CFactor(m)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

func TestCSolveKnown(t *testing.T) {
	// (1+j) x = 2 -> x = 1-j
	m := NewCMatrix(1)
	m.Set(0, 0, complex(1, 1))
	x, err := csolve(m, []complex128{2})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(1, -1)) > 1e-14 {
		t.Errorf("x = %v, want 1-1i", x[0])
	}
}

func TestCSolvePivot(t *testing.T) {
	m := NewCMatrix(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, complex(0, 1))
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := csolve(m, []complex128{complex(0, 2), 5})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-5) > 1e-14 || cmplx.Abs(x[1]-2) > 1e-14 {
		t.Errorf("x = %v", x)
	}
}

func TestCSolveRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		m := NewCMatrix(n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := complex(r.NormFloat64(), r.NormFloat64())
					m.Set(i, j, v)
					sum += cmplx.Abs(v)
				}
			}
			m.Set(i, i, complex(sum+1, r.NormFloat64()))
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		b := m.MulVec(x)
		y, err := csolve(m, b)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-8*(1+cmplx.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCLUReuseMultiRHS(t *testing.T) {
	n := 6
	rng := rand.New(rand.NewSource(3))
	m := NewCMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		m.Add(i, i, complex(10, 0))
	}
	f, err := CFactor(m)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		b := make([]complex128, n)
		b[k] = 1
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		// Check A x = e_k.
		ax := m.MulVec(x)
		for i := range ax {
			want := complex(0, 0)
			if i == k {
				want = 1
			}
			if cmplx.Abs(ax[i]-want) > 1e-10 {
				t.Fatalf("column %d residual %g", k, cmplx.Abs(ax[i]-want))
			}
		}
		// SolveColumn agrees.
		v, err := f.SolveColumn(k, k)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(v-x[k]) > 1e-12 {
			t.Fatalf("SolveColumn mismatch at %d", k)
		}
	}
}

func TestSolveRHSLengthMismatch(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	f, _ := Factor(m)
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("expected length error")
	}
	cm := NewCMatrix(2)
	cm.Set(0, 0, 1)
	cm.Set(1, 1, 1)
	cf, _ := CFactor(cm)
	if _, err := cf.Solve([]complex128{1}); err == nil {
		t.Error("expected length error")
	}
}

func TestMatrixStampAccumulate(t *testing.T) {
	m := NewMatrix(2)
	m.Add(0, 0, 1)
	m.Add(0, 0, 2)
	if m.At(0, 0) != 3 {
		t.Error("Add should accumulate")
	}
	m.Zero()
	if m.At(0, 0) != 0 {
		t.Error("Zero should clear")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone should be independent")
	}
}
