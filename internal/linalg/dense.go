// Package linalg implements the dense linear solvers used by the MNA
// engine: LU factorization with partial pivoting for real and complex
// square systems, with reusable factorizations for multiple right-hand
// sides (the fast path of the all-nodes stability sweep).
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"

	"acstab/internal/acerr"
)

// ErrSingular is returned when factorization encounters an (effectively)
// singular matrix. It wraps acerr.ErrSingularMatrix so the condition is
// recognizable across the public API boundary via errors.Is.
var ErrSingular = fmt.Errorf("linalg: %w", acerr.ErrSingularMatrix)

// singularTol is the relative pivot threshold for declaring a matrix
// numerically singular: a pivot whose magnitude falls below this fraction
// of its scale carries no meaningful solution digits in float64, so
// factoring through it would only launder Inf/NaN into downstream
// analyses. The scale is min(column max, pivot row max) over the
// *original* matrix: a pivot must be collapsed relative to both its own
// column and its own row to count as singular. Either test alone misfires
// on honestly ill-scaled MNA systems — a ±1 voltage-source pivot is
// perfectly usable even when an overflowing transistor conductance
// (~1e16) elsewhere in the column dwarfs it, and a lone gmin conductance
// is fine despite being tiny in absolute terms.
const singularTol = 1e-13

// Matrix is a dense real matrix in row-major order.
type Matrix struct {
	N    int
	Data []float64 // len N*N
}

// NewMatrix returns an n-by-n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add accumulates into element (i,j). This is the MNA "stamp" primitive.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Zero clears all entries, preserving storage.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			s += fmt.Sprintf("%12.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// LU holds an LU factorization with partial pivoting of a real matrix.
// Its storage doubles as the matrix to factor (see Matrix and
// FactorInPlace), so a caller that assembles a system every iteration can
// stamp straight into it and factor without a copy.
type LU struct {
	n        int
	m        Matrix // the matrix before FactorInPlace, the factors after
	piv      []int
	sign     int
	colScale []float64 // original per-column max magnitude (singularity test)
	rowScale []float64 // original per-row max magnitude, indexed by original row
}

// NewLU allocates a factorization workspace for n-by-n systems. Its
// Matrix starts zeroed.
func NewLU(n int) *LU {
	return &LU{n: n, m: Matrix{N: n, Data: make([]float64, n*n)}, piv: make([]int, n),
		colScale: make([]float64, n), rowScale: make([]float64, n)}
}

// Matrix returns the factorization's own storage as an n-by-n matrix.
// Whatever it holds when FactorInPlace runs is the matrix factored; after
// that it holds the factors, so it must be refilled (Zero and re-stamp)
// before the next factorization.
func (f *LU) Matrix() *Matrix { return &f.m }

// Factor computes the LU factorization of m (m is not modified): it
// copies m into a new LU's storage and factors it there.
func Factor(m *Matrix) (*LU, error) {
	f := NewLU(m.N)
	copy(f.m.Data, m.Data)
	if err := f.FactorInPlace(); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInPlace factors the matrix held in f.Matrix(), overwriting it
// with the factors. On error the storage remains reusable but its
// contents are invalid.
func (f *LU) FactorInPlace() error {
	n, lu := f.n, f.m.Data
	f.sign = 1
	for i := range f.piv {
		f.piv[i] = i
	}
	for j := range f.colScale {
		f.colScale[j] = 0
		f.rowScale[j] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := math.Abs(lu[i*n+j])
			if a > f.colScale[j] {
				f.colScale[j] = a
			}
			if a > f.rowScale[i] {
				f.rowScale[i] = a
			}
		}
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: find largest magnitude in column k at/below row k.
		p, pmax := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > pmax {
				p, pmax = i, a
			}
		}
		// A numerically collapsed pivot — not just an exactly zero one — is
		// singular; NaN input is caught here too (comparisons with NaN are
		// false, so !(pmax > x) fires).
		scale := f.colScale[k]
		if rs := f.rowScale[f.piv[p]]; rs < scale {
			scale = rs
		}
		if !(pmax > singularTol*scale) {
			return fmt.Errorf("%w (column %d)", ErrSingular, k)
		}
		if p != k {
			rk, rp := lu[k*n:k*n+n], lu[p*n:p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		d := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / d
			lu[i*n+k] = l
			if l != 0 {
				ri, rk := lu[i*n:i*n+n], lu[k*n:k*n+n]
				for j := k + 1; j < n; j++ {
					ri[j] -= l * rk[j]
				}
			}
		}
	}
	return nil
}

// Solve solves A x = b using the factorization; b is unchanged.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b into the caller's x without allocating. The
// substitution runs in place on x; b is unchanged and must not alias x.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n || len(x) != f.n {
		return fmt.Errorf("linalg: rhs/solution length %d/%d, want %d", len(b), len(x), f.n)
	}
	n, lu := f.n, f.m.Data
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s / lu[i*n+i]
	}
	// Guard: a factorization that slipped past the pivot test must not
	// hand non-finite "solutions" to Newton or the sweep. v-v is 0 for
	// finite v and NaN otherwise, so the all-finite case is branch-free.
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += x[i] - x[i]
	}
	if acc != 0 {
		for i := 0; i < n; i++ {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				return fmt.Errorf("%w (non-finite solution component %d)", ErrSingular, i)
			}
		}
	}
	return nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.m.Data[i*f.n+i]
	}
	return d
}

// SolveDense factors m and solves m x = b in one call.
func SolveDense(m *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(m)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// CMatrix is a dense complex matrix in row-major order.
type CMatrix struct {
	N    int
	Data []complex128
}

// NewCMatrix returns an n-by-n zero complex matrix.
func NewCMatrix(n int) *CMatrix {
	return &CMatrix{N: n, Data: make([]complex128, n*n)}
}

// At returns element (i,j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.N+j] }

// Set assigns element (i,j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.N+j] = v }

// Add accumulates into element (i,j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.N+j] += v }

// Zero clears all entries, preserving storage.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	c := NewCMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// ResidualInf fills r = b − A·x and returns the scale-relative backward
// error ‖r‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) — the dense counterpart of the sparse
// pattern's residual, using the same ℓ1 modulus |re|+|im| so dense and
// sparse points quote comparable health numbers. One fused pass, no
// allocations.
func (m *CMatrix) ResidualInf(x, b, r []complex128) (float64, error) {
	n := m.N
	if len(x) != n || len(b) != n || len(r) != n {
		return 0, fmt.Errorf("linalg: residual vector lengths %d/%d/%d, want %d", len(x), len(b), len(r), n)
	}
	var anorm, xnorm, bnorm, rnorm float64
	for i := 0; i < n; i++ {
		acc := b[i]
		rowSum := 0.0
		row := m.Data[i*n : i*n+n]
		for j, v := range row {
			acc -= v * x[j]
			rowSum += math.Abs(real(v)) + math.Abs(imag(v))
		}
		r[i] = acc
		if rowSum > anorm {
			anorm = rowSum
		}
		if a := math.Abs(real(acc)) + math.Abs(imag(acc)); a > rnorm {
			rnorm = a
		}
		if a := math.Abs(real(b[i])) + math.Abs(imag(b[i])); a > bnorm {
			bnorm = a
		}
		if a := math.Abs(real(x[i])) + math.Abs(imag(x[i])); a > xnorm {
			xnorm = a
		}
	}
	den := anorm*xnorm + bnorm
	if den == 0 {
		if rnorm == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return rnorm / den, nil
}

// CLU holds an LU factorization with partial pivoting of a complex matrix.
type CLU struct {
	n        int
	lu       []complex128
	piv      []int
	colScale []float64 // original per-column max magnitude (singularity test)
	rowScale []float64 // original per-row max magnitude, indexed by original row
}

// CFactor computes the complex LU factorization of m (m is not modified).
func CFactor(m *CMatrix) (*CLU, error) {
	f, err := CFactorInto(nil, m)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// CFactorInto computes the complex LU factorization of m, reusing f's
// storage when it matches m's size; pass nil (or a differently sized f)
// to allocate. This is the dense counterpart of the sparse refactor path:
// an AC sweep factors a same-size matrix at every frequency, so the
// factorization storage is paid for once. On error the returned
// factorization's storage remains reusable but its contents are invalid.
// m is not modified.
func CFactorInto(f *CLU, m *CMatrix) (*CLU, error) {
	n := m.N
	if f == nil || f.n != n {
		f = &CLU{n: n, lu: make([]complex128, n*n), piv: make([]int, n),
			colScale: make([]float64, n), rowScale: make([]float64, n)}
	}
	copy(f.lu, m.Data)
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for j := range f.colScale {
		f.colScale[j] = 0
		f.rowScale[j] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := cmplx.Abs(lu[i*n+j])
			if a > f.colScale[j] {
				f.colScale[j] = a
			}
			if a > f.rowScale[i] {
				f.rowScale[i] = a
			}
		}
	}
	for k := 0; k < n; k++ {
		p, pmax := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu[i*n+k]); a > pmax {
				p, pmax = i, a
			}
		}
		// Collapsed or NaN pivots are singular, not just exactly zero ones
		// (!(x > y) is also true when x is NaN).
		scale := f.colScale[k]
		if rs := f.rowScale[f.piv[p]]; rs < scale {
			scale = rs
		}
		if !(pmax > singularTol*scale) {
			return f, fmt.Errorf("%w (column %d)", ErrSingular, k)
		}
		if p != k {
			rk, rp := lu[k*n:k*n+n], lu[p*n:p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		d := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / d
			lu[i*n+k] = l
			if l != 0 {
				ri, rk := lu[i*n:i*n+n], lu[k*n:k*n+n]
				for j := k + 1; j < n; j++ {
					ri[j] -= l * rk[j]
				}
			}
		}
	}
	return f, nil
}

// Solve solves A x = b using the factorization; b is unchanged.
// A single factorization may be reused for many right-hand sides, which is
// the key optimization of the all-nodes stability sweep (one LU per
// frequency point serves current injection at every node).
func (f *CLU) Solve(b []complex128) ([]complex128, error) {
	x := make([]complex128, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b into the caller's x without allocating: the
// substitution runs in place on x. b is unchanged and must not alias x.
// This is the per-node inner step of the all-nodes sweep, so it must stay
// off the allocator.
func (f *CLU) SolveInto(x, b []complex128) error {
	if len(b) != f.n || len(x) != f.n {
		return fmt.Errorf("linalg: rhs/solution length %d/%d, want %d", len(b), len(x), f.n)
	}
	n, lu := f.n, f.lu
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s / lu[i*n+i]
	}
	// Same branch-free finiteness guard as the real SolveInto.
	acc := 0.0
	for i := 0; i < n; i++ {
		re, im := real(x[i]), imag(x[i])
		acc += (re - re) + (im - im)
	}
	if acc != 0 {
		for i := 0; i < n; i++ {
			if cmplx.IsNaN(x[i]) || cmplx.IsInf(x[i]) {
				return fmt.Errorf("%w (non-finite solution component %d)", ErrSingular, i)
			}
		}
	}
	return nil
}

// SolveColumn solves A x = e_k (unit vector excitation at index k) and
// returns only component idx of the solution. It avoids allocating the RHS.
func (f *CLU) SolveColumn(k, idx int) (complex128, error) {
	b := make([]complex128, f.n)
	b[k] = 1
	x, err := f.Solve(b)
	if err != nil {
		return 0, err
	}
	return x[idx], nil
}

// MulVec computes y = m * x for a real matrix.
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		s := 0.0
		row := m.Data[i*m.N : i*m.N+m.N]
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVec computes y = m * x for a complex matrix.
func (m *CMatrix) MulVec(x []complex128) []complex128 {
	y := make([]complex128, m.N)
	for i := 0; i < m.N; i++ {
		s := complex(0, 0)
		row := m.Data[i*m.N : i*m.N+m.N]
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}
