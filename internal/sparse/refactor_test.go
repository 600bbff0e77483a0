package sparse

import (
	"errors"
	"math/rand"
	"testing"

	"acstab/internal/acerr"
)

// stampCall is one recorded (i,j,value) triple, replayed in order to mimic
// a deterministic MNA stamping pass.
type stampCall struct {
	i, j int
	v    complex128
}

// ladderStamp builds the stamp stream of an n-node RC-ladder-like system:
// a tridiagonal conductance pattern with duplicate accumulation, the same
// shape MNA stamping produces. The values depend on omega so one pattern
// serves many "frequencies".
func ladderStamp(n int, omega float64) []stampCall {
	var calls []stampCall
	for k := 0; k < n-1; k++ {
		g := complex(1/(1e3*float64(k+1)), 0)
		jc := complex(0, omega*1e-12*float64(k+1))
		v := g + jc
		calls = append(calls,
			stampCall{k, k, v}, stampCall{k + 1, k + 1, v},
			stampCall{k, k + 1, -v}, stampCall{k + 1, k, -v})
	}
	for k := 0; k < n; k++ {
		calls = append(calls, stampCall{k, k, complex(1e-4, omega*1e-13)})
	}
	return calls
}

type adder interface{ Add(i, j int, v complex128) }

func replay(a adder, calls []stampCall) {
	for _, c := range calls {
		a.Add(c.i, c.j, c.v)
	}
}

// compile records one pass and returns the frozen pattern plus its Vals.
func compile(n int, calls []stampCall) (*Pattern, *Vals) {
	rec := NewRecorder(n)
	replay(rec, calls)
	pat := rec.Compile()
	vals := pat.NewVals()
	vals.Begin()
	replay(vals, calls)
	return pat, vals
}

func maxRelDiff(a, b []complex128) float64 {
	md := 0.0
	for i := range a {
		d := cabs(a[i] - b[i])
		s := cabs(a[i])
		if s < 1 {
			s = 1
		}
		if d/s > md {
			md = d / s
		}
	}
	return md
}

func cabs(v complex128) float64 {
	re, im := real(v), imag(v)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	if re > im {
		return re + im/2 // cheap upper-ish bound, fine for test tolerances
	}
	return im + re/2
}

// TestRefactorAgreesWithFactor sweeps one symbolic analysis across many
// value sets and checks the fixed-pivot refactorization solves to the same
// answer as a from-scratch dense partial-pivoting factorization.
func TestRefactorAgreesWithFactor(t *testing.T) {
	const n = 24
	pat, vals := compile(n, ladderStamp(n, 1e6))
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	rng := rand.New(rand.NewSource(7))
	for _, omega := range []float64{1, 1e3, 1e6, 1e9, 1e12} {
		calls := ladderStamp(n, omega)
		vals.Begin()
		replay(vals, calls)
		if vals.Drift() {
			t.Fatalf("omega %g: unexpected drift", omega)
		}
		if err := num.Refactor(vals.Values()); err != nil {
			t.Fatalf("omega %g: %v", omega, err)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := make([]complex128, n)
		if err := num.SolveInto(x, b); err != nil {
			t.Fatalf("omega %g: %v", omega, err)
		}
		want := denseSolve(t, n, calls, b)
		if d := maxRelDiff(want, x); d > 1e-9 {
			t.Errorf("omega %g: refactor solution deviates by %g", omega, d)
		}
	}
}

// TestRefactorAllocationFree is the steady-state allocation contract of
// the AC hot path: restamp + refactor + solve must not allocate at all.
func TestRefactorAllocationFree(t *testing.T) {
	const n = 32
	calls := ladderStamp(n, 1e6)
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()
	b := make([]complex128, n)
	x := make([]complex128, n)
	b[0] = 1
	allocs := testing.AllocsPerRun(50, func() {
		vals.Begin()
		replay(vals, calls)
		if vals.Drift() {
			t.Fatal("drift")
		}
		if err := num.Refactor(vals.Values()); err != nil {
			t.Fatal(err)
		}
		if err := num.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state restamp+refactor+solve allocated %v times per run, want 0", allocs)
	}
}

// TestDriftDetection: a stamp pass that deviates from the recorded stream
// (extra call, missing call, or different position order) must be flagged.
func TestDriftDetection(t *testing.T) {
	const n = 8
	calls := ladderStamp(n, 1e3)
	pat, vals := compile(n, calls)

	// Extra call appended.
	vals.Begin()
	replay(vals, calls)
	vals.Add(0, n-1, 1)
	if !vals.Drift() {
		t.Error("extra stamp call not detected")
	}

	// Missing final call.
	vals.Begin()
	replay(vals, calls[:len(calls)-1])
	if !vals.Drift() {
		t.Error("missing stamp call not detected")
	}

	// Same count, different positions.
	vals.Begin()
	swapped := append([]stampCall(nil), calls...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	replay(vals, swapped)
	if !vals.Drift() {
		t.Error("reordered stamp stream not detected")
	}

	// The pristine stream still verifies after all that.
	vals.Begin()
	replay(vals, calls)
	if vals.Drift() {
		t.Error("false positive on pristine stream")
	}
	_ = pat
}

// TestRefactorSingularFallback: values that collapse a pivot under the
// frozen order must surface ErrSingular (wrapping acerr.ErrSingularMatrix)
// rather than emit garbage, and the Numeric must stay usable afterwards.
func TestRefactorSingularFallback(t *testing.T) {
	const n = 6
	calls := ladderStamp(n, 1e6)
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	num := sym.NewNumeric()

	// Zero every value: all pivots collapse.
	dead := make([]complex128, len(vals.Values()))
	if err := num.Refactor(dead); err == nil {
		t.Fatal("refactor accepted an all-zero matrix")
	} else if !errors.Is(err, acerr.ErrSingularMatrix) {
		t.Fatalf("error %v does not wrap ErrSingularMatrix", err)
	}

	// The workspace invariant must survive the error: a good refactor
	// right after still agrees with a from-scratch dense factorization.
	vals.Begin()
	replay(vals, calls)
	if err := num.Refactor(vals.Values()); err != nil {
		t.Fatalf("refactor after singular failure: %v", err)
	}
	b := make([]complex128, n)
	b[n-1] = 1
	x := make([]complex128, n)
	if err := num.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	want := denseSolve(t, n, calls, b)
	if d := maxRelDiff(want, x); d > 1e-9 {
		t.Errorf("post-error refactor deviates by %g", d)
	}
}

// TestAnalyzeSingular: the symbolic phase itself rejects a numerically
// dead column.
func TestAnalyzeSingular(t *testing.T) {
	rec := NewRecorder(3)
	rec.Add(0, 0, 0)
	rec.Add(1, 1, 0)
	rec.Add(2, 2, 0)
	rec.Add(0, 1, 0)
	pat := rec.Compile()
	vals := pat.NewVals()
	vals.Begin()
	vals.Add(0, 0, 1)
	vals.Add(1, 1, 1)
	vals.Add(2, 2, 0) // column 2 is structurally present but numerically dead
	vals.Add(0, 1, 0.5)
	if _, err := pat.Analyze(vals.Values()); err == nil {
		t.Fatal("Analyze accepted a dead column")
	} else if !errors.Is(err, acerr.ErrSingularMatrix) {
		t.Fatalf("error %v does not wrap ErrSingularMatrix", err)
	}
}

// TestSymbolicSharedAcrossNumerics: one Symbolic, several Numerics (the
// parallel-worker arrangement) all produce the same solutions.
func TestSymbolicSharedAcrossNumerics(t *testing.T) {
	const n = 16
	calls := ladderStamp(n, 1e5)
	pat, vals := compile(n, calls)
	sym, err := pat.Analyze(vals.Values())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, n)
	b[3] = 1
	var ref []complex128
	for w := 0; w < 3; w++ {
		num := sym.NewNumeric()
		if err := num.Refactor(vals.Values()); err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		if err := num.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = append([]complex128(nil), x...)
			continue
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("worker %d deviates at %d", w, i)
			}
		}
	}
}
