// Package sparse implements the sparse complex LU solver of the AC sweeps.
//
// The sparsity pattern of an AC sweep's matrix (the union of the G and C
// stamps) is identical at every frequency, so the factorization is split
// in two phases and the pivot-order search and fill-in analysis run only
// once per sweep:
//
//   - Recorder captures the (i,j) call stream of one stamping pass and
//     freezes it into a Pattern: a CSR layout plus a per-call slot table,
//     so every later stamping pass writes straight into a flat value
//     array (Vals) with no maps and no allocations.
//   - Affine (affine.go) records one pass at ω = 1 as the split G + jωC,
//     from which a sweep fills Vals at any ω without stamping again.
//   - Pattern.Analyze runs the threshold/Markowitz pivot search once and
//     records the elimination order and the exact fill-in pattern of L
//     and U as index arrays (Symbolic).
//   - Symbolic.NewNumeric allocates the value arrays and workspaces once;
//     Numeric.Refactor refills them for new values (a fixed-pivot-order
//     Gilbert–Peierls pass) and Numeric.SolveInto back-substitutes in
//     place. Both are allocation-free, which keeps the per-frequency
//     inner loop of the all-nodes sweep out of the garbage collector.
//     Numeric.Factor is the same fill on the values the pivot order was
//     just chosen from: Analyze followed by Factor is a complete fresh
//     factorization.
//
// Reusing a pivot order chosen at one frequency at another is safe for
// the diagonally dominant MNA systems this repo sweeps, but it is guarded
// anyway: Vals and Affine carry an order-sensitive structural checksum
// (pattern drift falls back to a fresh factorization) and the refill
// rejects pivots that collapse relative to their row scale (numeric drift
// falls back the same way). The refill compares squared magnitudes and
// measures with cmplx.Abs only the rows whose squares would overflow or
// underflow.
package sparse

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"acstab/internal/acerr"
)

// ErrSingular is returned when no usable pivot exists. It wraps
// acerr.ErrSingularMatrix so the condition is recognizable across the
// public API boundary via errors.Is.
var ErrSingular = fmt.Errorf("sparse: %w", acerr.ErrSingularMatrix)

// pivotThreshold is the relative-magnitude threshold for accepting a pivot
// candidate. Sparsity is used only as a tie-break among candidates whose
// magnitude is within this factor of the column maximum. Small thresholds
// (the classic Sparse 1.3 default of 0.1) permit elimination multipliers up
// to 1/threshold, which compounds across deep ladder/chain networks into
// catastrophic growth (observed: ~6.6 per stage on an 80-stage RC ladder).
// Keeping the threshold near 1 makes the factorization behave like partial
// pivoting — multipliers stay near 1 and diagonally dominant MNA systems
// factor with essentially no element growth — while still letting the
// sparser of two equal-magnitude candidates win.
const pivotThreshold = 0.99

// singularTol is the relative pivot threshold for declaring a matrix
// numerically singular: a pivot column whose best remaining candidate is
// below this fraction of its scale cannot produce meaningful solution
// digits in a float64 factorization. The scale is min(column max, pivot
// row max) over the *original* matrix — a pivot must be collapsed
// relative to both its own column and its own row to count as singular.
// Either test alone misfires on honestly ill-scaled MNA systems: a ±1
// voltage-source pivot is perfectly usable even when a transistor
// conductance elsewhere in the column dwarfs it, and a lone gmin
// conductance is fine despite being tiny in absolute terms.
const singularTol = 1e-13

// FNV-1a parameters for the structural checksum of a stamp-call stream.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Pattern is the frozen structure of a stamped matrix: the CSR layout of
// every position one assembly pass touches, the recorded order of Add
// calls mapping each call to its slot in a value array, and a structural
// checksum of the call stream used to detect pattern drift.
type Pattern struct {
	n      int
	rowPtr []int32 // len n+1
	col    []int32 // len nnz; ascending within each row
	seq    []int32 // Add-call index -> slot in the value array
	sig    uint64  // FNV-1a over the (i,j) call stream
}

// N returns the matrix dimension.
func (p *Pattern) N() int { return p.n }

// Checksum returns the FNV-1a structural checksum of the recorded stamp
// stream. Two circuits whose assembly passes issue the same (i, j) call
// sequence share a checksum, and a circuit whose stamping changed (drift)
// does not — which makes it the content fingerprint the worker's
// compiled-system cache validates entries against.
func (p *Pattern) Checksum() uint64 { return p.sig }

// NNZ returns the number of distinct structural positions.
func (p *Pattern) NNZ() int { return len(p.col) }

// SlotOf returns the value-array slot of structural position (i, j), or -1
// when the pattern has no entry there. It lets tests and diagnostics
// address individual entries of a Vals array without replaying a stamp
// pass.
func (p *Pattern) SlotOf(i, j int) int {
	if i < 0 || i >= p.n {
		return -1
	}
	for s := p.rowPtr[i]; s < p.rowPtr[i+1]; s++ {
		if p.col[s] == int32(j) {
			return int(s)
		}
	}
	return -1
}

// Recorder captures the structure of one stamping pass. It implements the
// same Add interface the stamping code targets; values are ignored, only
// the (i,j) stream matters. Record exactly one pass, then Compile.
type Recorder struct {
	n     int
	calls []int64 // i*n + j per Add call, in call order
}

// NewRecorder returns a Recorder for an n-by-n system.
func NewRecorder(n int) *Recorder { return &Recorder{n: n} }

// Add records the position of one stamp call.
func (r *Recorder) Add(i, j int, v complex128) {
	r.calls = append(r.calls, int64(i)*int64(r.n)+int64(j))
}

// Compile freezes the recorded call stream into a Pattern.
func (r *Recorder) Compile() *Pattern {
	n := r.n
	p := &Pattern{n: n, seq: make([]int32, len(r.calls)), sig: fnvOffset}
	// Dedup positions and sort them row-major for the CSR layout; a call's
	// slot is then its key's rank among the unique keys.
	uniq := slices.Clone(r.calls)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	p.rowPtr = make([]int32, n+1)
	p.col = make([]int32, len(uniq))
	for s, k := range uniq {
		i, j := int(k/int64(n)), int(k%int64(n))
		p.rowPtr[i+1]++
		p.col[s] = int32(j)
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	for t, k := range r.calls {
		s, _ := slices.BinarySearch(uniq, k)
		p.seq[t] = int32(s)
		p.sig = (p.sig ^ uint64(k)) * fnvPrime
	}
	return p
}

// Vals is a flat value array matching a Pattern. It implements the stamp
// Add interface by replaying the recorded call sequence: each call lands
// in its precomputed slot with no map lookups and no allocations. A
// structural checksum accumulated during the replay detects stamp passes
// that deviate from the recorded pattern (Drift).
type Vals struct {
	p   *Pattern
	v   []complex128
	t   int
	sig uint64
}

// NewVals returns an empty value array for the pattern.
func (p *Pattern) NewVals() *Vals {
	return &Vals{p: p, v: make([]complex128, len(p.col))}
}

// Begin resets the values and the call cursor for a new stamping pass.
func (v *Vals) Begin() {
	for i := range v.v {
		v.v[i] = 0
	}
	v.t = 0
	v.sig = fnvOffset
}

// Add accumulates one stamp call into its recorded slot.
func (v *Vals) Add(i, j int, val complex128) {
	key := int64(i)*int64(v.p.n) + int64(j)
	v.sig = (v.sig ^ uint64(key)) * fnvPrime
	if v.t < len(v.p.seq) {
		v.v[v.p.seq[v.t]] += val
	}
	v.t++
}

// Drift reports whether the stamping pass since Begin deviated
// structurally (different call count or call stream) from the pattern.
// When it does, the values are meaningless and the caller must fall back
// to a fresh factorization of a newly recorded pattern.
func (v *Vals) Drift() bool {
	return v.t != len(v.p.seq) || v.sig != v.p.sig
}

// Values exposes the stamped CSR value array (aliased, not copied).
func (v *Vals) Values() []complex128 { return v.v }

// Symbolic is the value-independent half of a factorization: the pivot
// order chosen by one full threshold/Markowitz analysis and the complete
// fill-in pattern of L and U as CSR-style index arrays. It is immutable
// after Analyze and safe to share read-only across worker goroutines;
// each worker owns its Numeric.
type Symbolic struct {
	pat  *Pattern
	n    int
	perm []int32 // elimination step -> original row index
	// L pattern grouped by target step: for step k, lsrc[lptr[k]:lptr[k+1]]
	// lists the source steps that update row k, in ascending order.
	lptr []int32
	lsrc []int32
	// U pattern: for step k, ucol[uptr[k]:uptr[k+1]] lists the surviving
	// columns of pivot row k (all > k), ascending. Columns are eliminated
	// in natural order, so step k pivots column k.
	uptr []int32
	ucol []int32
}

// FillIn returns the number of L multipliers plus U entries (diagonal
// included), a measure of factorization fill.
func (s *Symbolic) FillIn() int { return len(s.lsrc) + len(s.ucol) + s.n }

// Analyze runs the one-time pivot search and fill analysis on the pattern
// with the given values (one stamped frequency point of the sweep). The
// pivot choice is numeric — threshold partial pivoting with the Markowitz
// sparsity tie-break (see pivotThreshold and singularTol) — but the
// recorded elimination order and fill pattern are value-independent: fill
// positions are kept even when a value happens to cancel, so the pattern
// is closed under the elimination at every other frequency.
func (p *Pattern) Analyze(vals []complex128) (*Symbolic, error) {
	n := p.n
	if len(vals) != len(p.col) {
		return nil, fmt.Errorf("sparse: values length %d, want %d", len(vals), len(p.col))
	}
	// Working rows as unordered (column, value) slices, one-time cost (the
	// numeric phase never sees them). Every row starts as a capacity-capped
	// window of one shared copy of the pattern, so only a row that takes
	// fill reallocates. Structural entries are kept even when numerically
	// zero.
	nnz := len(p.col)
	colBuf := append(make([]int32, 0, nnz), p.col...)
	valBuf := append(make([]complex128, 0, nnz), vals...)
	wcol := make([][]int32, n)
	wval := make([][]complex128, n)
	scales := make([]float64, 2*n)
	colScale, rowScale := scales[:n], scales[n:]
	for i := 0; i < n; i++ {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		wcol[i], wval[i] = colBuf[lo:hi:hi], valBuf[lo:hi:hi]
		for idx := lo; idx < hi; idx++ {
			c := p.col[idx]
			a := cmplx.Abs(vals[idx])
			if a > colScale[c] {
				colScale[c] = a
			}
			if a > rowScale[i] {
				rowScale[i] = a
			}
		}
	}
	ptrs := make([]int32, 3*n+2)
	sym := &Symbolic{
		pat:  p,
		n:    n,
		perm: ptrs[:n:n],
		lptr: ptrs[n : 2*n+1 : 2*n+1],
		uptr: ptrs[2*n+1:],
		// Fill only adds to the pattern, so its U part is a fair first
		// guess at the final size.
		ucol: make([]int32, 0, nnz),
	}
	// lrows[i] collects the source steps updating original row i, in
	// ascending step order; it is complete once row i becomes a pivot.
	lrows := make([][]int32, n)
	eliminated := make([]bool, n)
	// pos scatters the target row's columns to their slice positions
	// during an update; -1 everywhere between updates.
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	// cand lists this step's rows holding the pivot column (ascending) and
	// where in each row that entry sits.
	type candidate struct{ row, at int32 }
	cand := make([]candidate, 0, n)
	for k := 0; k < n; k++ {
		col := int32(k)
		cand = cand[:0]
		for i := 0; i < n; i++ {
			if eliminated[i] {
				continue
			}
			for t, c := range wcol[i] {
				if c == col {
					cand = append(cand, candidate{int32(i), int32(t)})
					break
				}
			}
		}
		maxMag := 0.0
		maxRow := -1
		for _, cd := range cand {
			if a := cmplx.Abs(wval[cd.row][cd.at]); a > maxMag {
				maxMag, maxRow = a, int(cd.row)
			}
		}
		// The min(column, pivot row) scale rule: see singularTol.
		scale := colScale[col]
		if maxRow >= 0 && rowScale[maxRow] < scale {
			scale = rowScale[maxRow]
		}
		if maxMag <= singularTol*scale {
			return nil, fmt.Errorf("%w (column %d)", ErrSingular, col)
		}
		best := candidate{row: -1}
		for _, cd := range cand {
			if cmplx.Abs(wval[cd.row][cd.at]) < pivotThreshold*maxMag {
				continue
			}
			if best.row == -1 || len(wcol[cd.row]) < len(wcol[best.row]) {
				best = cd
			}
		}
		piv := best.row
		eliminated[piv] = true
		sym.perm[k] = piv
		pivCol, pivVal := wcol[piv], wval[piv]
		pd := pivVal[best.at]
		if pd == 0 {
			// Structural entry with a cancelled value: elimination still
			// needs the position, but the analysis values cannot divide by
			// it. Threshold pivoting never selects it while a nonzero
			// candidate exists, so reaching here means the column is
			// numerically dead at the analysis frequency.
			return nil, fmt.Errorf("%w (column %d)", ErrSingular, col)
		}
		for _, cd := range cand {
			i := cd.row
			if i == piv {
				continue
			}
			rc, rv := wcol[i], wval[i]
			mult := rv[cd.at] / pd
			// Drop the eliminated entry (row order is irrelevant).
			last := len(rc) - 1
			rc[cd.at], rv[cd.at] = rc[last], rv[last]
			rc, rv = rc[:last], rv[:last]
			for t, c := range rc {
				pos[c] = int32(t)
			}
			for t, c := range pivCol {
				if c == col {
					continue
				}
				// Keep fill positions even when the update cancels, so the
				// recorded pattern is valid for every value set. A new
				// position is written as 0 - mult*pv, the same arithmetic as
				// updating an explicit zero.
				if at := pos[c]; at >= 0 {
					rv[at] = rv[at] - mult*pivVal[t]
				} else {
					rc = append(rc, c)
					rv = append(rv, 0-mult*pivVal[t])
				}
			}
			for _, c := range rc {
				pos[c] = -1
			}
			wcol[i], wval[i] = rc, rv
			lrows[i] = append(lrows[i], int32(k))
		}
		// The pivot row's L sources are final: freeze them, then its
		// surviving columns as the U row of step k.
		sym.lptr[k+1] = sym.lptr[k] + int32(len(lrows[piv]))
		sym.lsrc = append(sym.lsrc, lrows[piv]...)
		lrows[piv] = nil
		u0 := len(sym.ucol)
		for _, c := range pivCol {
			if c != col {
				sym.ucol = append(sym.ucol, c)
			}
		}
		slices.Sort(sym.ucol[u0:])
		sym.uptr[k+1] = int32(len(sym.ucol))
	}
	return sym, nil
}

// refactorPivTol rejects a refactorization pivot that collapsed below
// this fraction of its row's input magnitude. The pivot order was chosen
// at a different frequency; when the values at the current frequency make
// that order numerically unusable, Refactor reports ErrSingular and the
// caller falls back to a fresh factorization (Analyze, then Factor).
const refactorPivTol = 1e-12

// Numeric is a numeric factorization over a fixed Symbolic pattern. All
// storage is allocated once; Refactor and SolveInto never allocate. A
// Numeric is not safe for concurrent use — give each worker its own.
type Numeric struct {
	sym  *Symbolic
	lval []complex128 // aligned with sym.lsrc
	uval []complex128 // aligned with sym.ucol
	// udinv holds the reciprocals of the U diagonal: the substitution
	// loops multiply by them instead of dividing, which keeps the slow
	// runtime complex-division path out of the per-node inner loop.
	udinv []complex128
	w     []complex128 // dense scatter row, all-zero between calls
	// growth is the pivot-growth factor of the last successful refill:
	// max over steps of |u_kk| / (input magnitude of the pivot row). The
	// guard already has both magnitudes, squared, so tracking it costs one
	// division per row and one square root per refill; see PivotGrowth.
	growth float64
}

// NewNumeric allocates the numeric storage for the pattern, all value
// arrays in one block.
func (s *Symbolic) NewNumeric() *Numeric {
	nl, nu := len(s.lsrc), len(s.ucol)
	buf := make([]complex128, nl+nu+2*s.n)
	return &Numeric{
		sym:   s,
		lval:  buf[:nl:nl],
		uval:  buf[nl : nl+nu : nl+nu],
		udinv: buf[nl+nu : nl+nu+s.n : nl+nu+s.n],
		w:     buf[nl+nu+s.n:],
	}
}

// Refactor refills the factorization from a freshly stamped value array
// (Vals.Values with Drift() false). It replays the recorded elimination —
// no pivot search, no maps, no allocations: one Gilbert–Peierls pass per
// row over the precomputed fill pattern. On a pivot failure the numeric
// state is invalid and the error wraps acerr.ErrSingularMatrix; the
// caller should analyze the values afresh and Factor them.
func (nm *Numeric) Refactor(vals []complex128) error {
	return nm.fill(vals, refactorPivTol)
}

// Factor fills the factorization from the values its Symbolic was just
// analyzed on, completing a fresh two-phase factorization. It is Refactor
// without the collapsed-pivot guard: Analyze already chose every pivot on
// these values, so Factor accepts exactly what Analyze accepted and fails
// only on a pivot that rounds to zero or overflows.
func (nm *Numeric) Factor(vals []complex128) error {
	return nm.fill(vals, 0)
}

// safeSq2Min and safeSq2Max bound the squared magnitudes the refill's
// guard compares. A sum of two squares in [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰] neither
// overflowed nor lost digits to underflow, so comparing squares decides
// as comparing moduli does, up to rounding. A row whose pivot or largest
// entry falls outside (moduli beyond about 3e150 or below about 3e-151,
// a zero, NaN or Inf) is decided by absGuard instead.
const (
	safeSq2Min = 0x1p-1000
	safeSq2Max = 0x1p1000
)

// abs2 is the squared modulus re² + im², with no Hypot.
func abs2(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// sqGuard is the collapsed-pivot guard on squared magnitudes: ad2 = |d|²
// of the pivot, scale2 the largest squared input magnitude of its row,
// tol2 the squared tolerance. decided is false when either square leaves
// the safe range; the row then needs absGuard.
func sqGuard(ad2, scale2, tol2 float64) (decided, ok bool) {
	if !sqSafe(ad2, scale2) {
		return false, false
	}
	return true, ad2 > tol2*scale2
}

// sqSafe reports whether both squares lie in the range where comparing
// them decides as comparing moduli does (see safeSq2Min).
func sqSafe(ad2, scale2 float64) bool {
	return ad2 >= safeSq2Min && ad2 <= safeSq2Max && scale2 >= safeSq2Min && scale2 <= safeSq2Max
}

// absGuard is the guard on moduli, for the rows sqGuard cannot decide: d
// passes when |d| > tol·scale and is finite, scale being the largest
// modulus in row. It returns the row's growth |d|/scale (0 for a zero
// scale). !(x > y) also catches NaN.
func absGuard(d complex128, row []complex128, tol float64) (g float64, ok bool) {
	scale := 0.0
	for _, v := range row {
		if a := cmplx.Abs(v); a > scale {
			scale = a
		}
	}
	ad := cmplx.Abs(d)
	if !(ad > tol*scale) || math.IsInf(ad, 0) {
		return 0, false
	}
	if scale > 0 {
		g = ad / scale
	}
	return g, true
}

// fill is the Gilbert–Peierls refill behind Refactor and Factor. It
// rejects a pivot not above pivTol times its row's input magnitude,
// comparing squared magnitudes (sqGuard, falling back to absGuard), and
// takes the one square root of the growth factor at the end.
func (nm *Numeric) fill(vals []complex128, pivTol float64) error {
	sym, p := nm.sym, nm.sym.pat
	if len(vals) != len(p.col) {
		return fmt.Errorf("sparse: values length %d, want %d", len(vals), len(p.col))
	}
	n := sym.n
	w := nm.w
	tol2 := pivTol * pivTol
	// growth2 is the largest squared growth of the rows sqGuard decided,
	// growth the largest plain growth of the rows absGuard decided.
	growth2, growth := 0.0, 0.0
	for k := 0; k < n; k++ {
		row := sym.perm[k]
		lo, hi := p.rowPtr[row], p.rowPtr[row+1]
		// The max builtin propagates a NaN square (an entry with an
		// infinite and a NaN part), which sends the row to absGuard just
		// as an overflowed square does.
		scale2 := 0.0
		for idx := lo; idx < hi; idx++ {
			v := vals[idx]
			w[p.col[idx]] = v
			scale2 = max(scale2, abs2(v))
		}
		for t := sym.lptr[k]; t < sym.lptr[k+1]; t++ {
			s := sym.lsrc[t]
			mult := w[s] * nm.udinv[s] // pivot column of step s is s
			w[s] = 0
			nm.lval[t] = mult
			if mult != 0 {
				for ui := sym.uptr[s]; ui < sym.uptr[s+1]; ui++ {
					w[sym.ucol[ui]] -= mult * nm.uval[ui]
				}
			}
		}
		d := w[k]
		w[k] = 0
		for ui := sym.uptr[k]; ui < sym.uptr[k+1]; ui++ {
			c := sym.ucol[ui]
			nm.uval[ui] = w[c]
			w[c] = 0
		}
		ad2 := abs2(d)
		if decided, ok := sqGuard(ad2, scale2, tol2); decided {
			if !ok {
				return nm.collapsed(k)
			}
			if g2 := ad2 / scale2; g2 > growth2 {
				growth2 = g2
			}
		} else if g, ok := absGuard(d, vals[lo:hi], pivTol); ok {
			if g > growth {
				growth = g
			}
		} else {
			return nm.collapsed(k)
		}
		nm.udinv[k] = 1 / d
	}
	nm.growth = max(math.Sqrt(growth2), growth)
	return nil
}

// collapsed reports a rejected pivot at step k. It scrubs the scatter row
// so the next refill starts from the all-zero invariant.
func (nm *Numeric) collapsed(k int) error {
	clear(nm.w)
	return fmt.Errorf("%w (refactor pivot %d collapsed)", ErrSingular, k)
}

// SolveInto solves A x = b into the caller's x, in place: no allocations.
// b is unchanged and must not alias x.
func (nm *Numeric) SolveInto(x, b []complex128) error {
	sym := nm.sym
	n := sym.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("sparse: rhs/solution length %d/%d, want %d", len(b), len(x), n)
	}
	for k := 0; k < n; k++ {
		x[k] = b[sym.perm[k]]
	}
	// Forward substitution in elimination order (unit lower triangular).
	for k := 0; k < n; k++ {
		s := x[k]
		for t := sym.lptr[k]; t < sym.lptr[k+1]; t++ {
			if m := nm.lval[t]; m != 0 {
				s -= m * x[sym.lsrc[t]]
			}
		}
		x[k] = s
	}
	// Back substitution; U columns of step k are all > k, so overwriting
	// x[k] never clobbers a value a later (lower-index) step still needs.
	for k := n - 1; k >= 0; k-- {
		s := x[k]
		for ui := sym.uptr[k]; ui < sym.uptr[k+1]; ui++ {
			s -= nm.uval[ui] * x[sym.ucol[ui]]
		}
		x[k] = s * nm.udinv[k]
	}
	return checkFinite(x)
}

// checkFinite returns ErrSingular when the solution contains a non-finite
// component — the downstream stability analysis must never see Inf/NaN
// masquerading as an impedance. The common all-finite case is a tight
// branch-free accumulation: v-v is exactly 0 for finite v and NaN for
// Inf/NaN, so one bad component poisons the accumulator. Only on failure
// does the slow per-component scan run to name the offending index.
func checkFinite(x []complex128) error {
	acc := 0.0
	for _, v := range x {
		re, im := real(v), imag(v)
		acc += (re - re) + (im - im)
	}
	if acc == 0 {
		return nil
	}
	for i, v := range x {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return fmt.Errorf("%w (non-finite solution component %d)", ErrSingular, i)
		}
	}
	return fmt.Errorf("%w (non-finite solution)", ErrSingular)
}
