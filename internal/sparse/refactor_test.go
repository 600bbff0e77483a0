package sparse

import (
	"errors"
	"math"
	"math/cmplx"
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

// TestPairKernelsAllocationFree is the same contract for the sweep's
// two-lane kernels: refilling and extracting two points with RefactorPair
// and SolveDiagPair must not allocate at all.
func TestPairKernelsAllocationFree(t *testing.T) {
	const n = 32
	pat, va := compile(n, ladderStamp(n, 1e6))
	_, vb := compile(n, ladderStamp(n, 2e6))
	sym, err := pat.Analyze(va.Values())
	if err != nil {
		t.Fatal(err)
	}
	a, b := sym.NewNumeric(), sym.NewNumeric()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	plan, err := sym.DiagPlan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	da, db := make([]complex128, n), make([]complex128, n)
	allocs := testing.AllocsPerRun(50, func() {
		if err := RefactorPair(a, b, va.Values(), vb.Values()); err != nil {
			t.Fatal(err)
		}
		if errA, errB := SolveDiagPair(a, b, da, db, plan); errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state pair refill+diag-solve allocated %v times per run, want 0", allocs)
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

	// A pair fails when either lane collapses, and leaves both scatter
	// rows all zero.
	vals.Begin()
	replay(vals, calls)
	other := sym.NewNumeric()
	for _, lanes := range [][2][]complex128{{dead, vals.Values()}, {vals.Values(), dead}} {
		if err := RefactorPair(num, other, lanes[0], lanes[1]); !errors.Is(err, acerr.ErrSingularMatrix) {
			t.Fatalf("pair refill with one dead lane: error %v, want one wrapping ErrSingularMatrix", err)
		}
		for _, nm := range []*Numeric{num, other} {
			for i, v := range nm.w {
				if v != 0 {
					t.Fatalf("scatter entry %d = %v after a collapsed pair", i, v)
				}
			}
		}
	}

	// The workspace invariant must survive the error: a good refactor
	// right after still agrees with a from-scratch dense factorization.
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

// modulusGuard is the reference collapsed-pivot rule on moduli, which the
// refill's squared guard must reproduce: the pivot d of a row passes when
// |d| > tol·scale and |d| is finite, scale being the row's largest
// modulus (NaN moduli ignored). It also returns the row's growth
// |d|/scale and the ratio |d|/(tol·scale) the decision turns on.
func modulusGuard(d complex128, row []complex128, tol float64) (ok bool, g, ratio float64) {
	scale := 0.0
	for _, v := range row {
		if a := cmplx.Abs(v); a > scale {
			scale = a
		}
	}
	ad := cmplx.Abs(d)
	if scale > 0 {
		g = ad / scale
	}
	return ad > tol*scale && !math.IsInf(ad, 0), g, ad / (tol * scale)
}

// withinULP reports whether a and b differ by at most k units in the last
// place of b.
func withinULP(a, b float64, k int) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= float64(k)*(math.Nextafter(math.Abs(b), math.Inf(1))-math.Abs(b))
}

// TestSquaredPivotGuard: the refill's guard on squared magnitudes accepts
// and rejects exactly as the modulus rule does, except where |d|/(tol·scale)
// lies within 4 ulp of 1, and PivotGrowth matches the modulus growth within
// 4 ulp. The rows carry entries from 1e-300 to 1e300, zero, NaN and Inf
// pivots, pivots within a few ulp of the boundary, and rows around 1e200 and
// 1e-170 whose squares overflow or underflow, which must take the absGuard
// fallback.
func TestSquaredPivotGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cplx := func(mag float64) complex128 {
		return cmplx.Rect(mag, 2*math.Pi*rng.Float64())
	}
	logMag := func(lo, hi float64) float64 {
		return math.Pow(10, lo+(hi-lo)*rng.Float64())
	}
	const tol = refactorPivTol
	eps := math.Nextafter(1, 2) - 1

	// The 2x2 system [[a, b], [c, e]], pivoted row 0 first: step 0 tests
	// the pivot a against its row, step 1 the pivot e − (c·(1/a))·b
	// against [c, e], exactly the arithmetic of the refill.
	rec := NewRecorder(2)
	for _, ij := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		rec.Add(ij[0], ij[1], 0)
	}
	pat := rec.Compile()
	slot := func(i, j int) int { return pat.SlotOf(i, j) }
	vals := make([]complex128, 4)
	vals[slot(0, 0)], vals[slot(0, 1)], vals[slot(1, 0)], vals[slot(1, 1)] = 1, 0.5, 0.5, 1
	sym, err := pat.Analyze(vals)
	if err != nil {
		t.Fatal(err)
	}
	if sym.perm[0] != 0 {
		t.Fatalf("analysis pivoted row %d first, want row 0", sym.perm[0])
	}
	num := sym.NewNumeric()

	// byAbs and bySquares count the rows of the checked systems each guard
	// decided, as the refill decides them.
	var checked, rejected, byAbs, bySquares int
	check := func(a, b, c, e complex128) {
		t.Helper()
		vals[slot(0, 0)], vals[slot(0, 1)], vals[slot(1, 0)], vals[slot(1, 1)] = a, b, c, e
		d1 := e - c*(1/a)*b
		ok0, g0, r0 := modulusGuard(a, []complex128{a, b}, tol)
		ok1, g1, r1 := modulusGuard(d1, []complex128{c, e}, tol)
		if math.Abs(r0-1) <= 4*eps || (ok0 && math.Abs(r1-1) <= 4*eps) {
			return // within rounding of the boundary: either decision is right
		}
		err := num.Refactor(vals)
		if wantOK := ok0 && ok1; (err == nil) != wantOK {
			t.Fatalf("a=%v b=%v c=%v e=%v: refill error %v, modulus rule accepts %v (ratios %g, %g)",
				a, b, c, e, err, wantOK, r0, r1)
		}
		checked++
		rows := [][]complex128{{a, b}, {c, e}}[:1]
		if ok0 {
			rows = append(rows, []complex128{c, e})
		}
		for k, row := range rows {
			scale2 := 0.0
			for _, v := range row {
				scale2 = max(scale2, abs2(v))
			}
			if decided, _ := sqGuard(abs2([]complex128{a, d1}[k]), scale2, tol*tol); decided {
				bySquares++
			} else {
				byAbs++
			}
		}
		if err != nil {
			rejected++
			return
		}
		if want := math.Max(g0, g1); !withinULP(num.PivotGrowth(), want, 4) {
			t.Fatalf("a=%v b=%v c=%v e=%v: PivotGrowth %v, modulus growth %v", a, b, c, e, num.PivotGrowth(), want)
		}
	}

	// Random rows over the whole range; row 0 mostly passes, so step 1
	// sees every kind of row.
	for i := 0; i < 20000; i++ {
		a := cplx(logMag(-300, 300))
		b := a * cplx(logMag(-20, 11))
		check(a, b, cplx(logMag(-300, 300)), cplx(logMag(-300, 300)))
	}
	// Pivots from a few ulp to a few thousand ulp off the boundary, on
	// scales the squares decide.
	before := bySquares
	for i := 0; i < 2000; i++ {
		c := cplx(logMag(-120, 140))
		off := float64(rng.Intn(4001)-2000) * eps
		check(1, 0, c, cplx(cmplx.Abs(c)*tol*(1+off)))
	}
	if bySquares-before < 3000 {
		t.Errorf("squares decided %d rows of the near-boundary systems, want most of ~4000", bySquares-before)
	}
	// Rows whose squares overflow (about 1e200) or underflow (about
	// 1e-170): plain squares would misjudge them, so they must take the
	// fallback.
	before = byAbs
	for _, m := range []float64{1e200, 1e-170} {
		for i := 0; i < 100; i++ {
			check(1, 0, cplx(m*logMag(-3, 3)), cplx(m*logMag(-8, 0)))
		}
	}
	if byAbs-before != 200 {
		t.Errorf("absGuard decided %d of the 200 extreme rows, want all", byAbs-before)
	}
	// Zero, NaN and Inf pivots, and a U entry with an infinite and a NaN
	// part. That entry's modulus is +Inf, so the modulus rule rejects
	// every pivot of its row; its square is NaN, which the max builtin
	// carries into the row scale, leaving the row to absGuard. (c = 0
	// keeps the entry out of row 1, which would otherwise reject.)
	for _, e := range []complex128{0, complex(math.NaN(), 0), complex(0, math.Inf(1)), cmplx.Inf()} {
		check(1, 0, 1e-3, e)
	}
	check(1, complex(math.Inf(1), math.NaN()), 0, 1)
	t.Logf("%d systems checked, %d rejected; rows decided by squares %d, by absGuard %d",
		checked, rejected, bySquares, byAbs)
}
