package analysis

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"acstab/internal/acerr"
	"acstab/internal/linalg"
	"acstab/internal/mna"
	"acstab/internal/netlist"
)

// Pole is one natural frequency of the linearized circuit.
type Pole struct {
	// S is the pole location in rad/s (complex frequency).
	S complex128
	// FreqHz is |S|/2π, the natural frequency in Hz.
	FreqHz float64
	// Zeta is the damping ratio -Re(S)/|S| (negative for RHP poles).
	Zeta float64
}

// Poles computes the natural frequencies of the circuit linearized at op —
// the generalized eigenvalues of the MNA pencil (G + sC)x = 0 — via
// shift-invert reduction to a standard eigenproblem:
//
//	M = (G + σC)⁻¹ C,   pole s = σ − 1/μ for each eigenvalue μ of M.
//
// Poles with |s| outside [2π·minHz, 2π·maxHz] are dropped (the pencil's
// infinite eigenvalues from resistive rows land at μ ≈ 0 and are filtered
// the same way). Exact pole locations are the validation ground truth for
// the stability-plot estimates, and the classic "pole-zero analysis" of
// Analog Artist.
//
// The dense reduction is O(n³): appropriate for the circuit sizes of this
// repository's workloads (hundreds of unknowns).
func (s *Sim) Poles(ctx context.Context, op *mna.OpPoint, minHz, maxHz float64) ([]Pole, error) {
	g, c := s.pencil(op)
	return pencilEigen(ctx, g, c, minHz, maxHz, "pole analysis")
}

// pencil recovers G and C from the AC stamp: A(ω) = G + jωC is linear in
// ω, so G is the stamp at ω = 0 and C the difference to the one at ω = 1.
func (s *Sim) pencil(op *mna.OpPoint) (g, c *linalg.CMatrix) {
	n := s.Sys.NumUnknowns()
	g = linalg.NewCMatrix(n)
	s.Sys.StampAC(g, nil, 0, op)
	a1 := linalg.NewCMatrix(n)
	s.Sys.StampAC(a1, nil, 1, op)
	c = linalg.NewCMatrix(n)
	for i := range c.Data {
		c.Data[i] = (a1.Data[i] - g.Data[i]) / complex(0, 1)
	}
	return g, c
}

// pencilEigen returns the finite generalized eigenvalues s of the pencil
// (G + sC)x = 0 with |s| in [2π·minHz, 2π·maxHz], sorted by frequency.
// Errors carry the analysis name what.
func pencilEigen(ctx context.Context, g, c *linalg.CMatrix, minHz, maxHz float64, what string) ([]Pole, error) {
	// Shift: real positive, away from LHP poles, scaled to the band.
	sigma := 2 * math.Pi * math.Sqrt(math.Max(minHz, 1)*math.Max(maxHz, 1))
	var m *linalg.CMatrix
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		m, err = shiftInvert(ctx, g, c, complex(sigma, 0))
		if err == nil {
			break
		}
		sigma *= 1.7183 // nudge off an unlucky pole
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", what, err)
	}
	mu, err := linalg.Eigenvalues(m)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", what, err)
	}
	lo, hi := 2*math.Pi*minHz, 2*math.Pi*maxHz
	var out []Pole
	for _, u := range mu {
		if cmplx.Abs(u) < 1e-300 {
			continue // infinite eigenvalue of the pencil
		}
		p := complex(sigma, 0) - 1/u
		mag := cmplx.Abs(p)
		if mag < lo || mag > hi {
			continue
		}
		out = append(out, Pole{S: p, FreqHz: mag / (2 * math.Pi), Zeta: -real(p) / mag})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].FreqHz < out[b].FreqHz })
	return out, nil
}

// shiftInvert computes (G + σC)⁻¹ C column by column; a canceled ctx
// aborts between columns.
func shiftInvert(ctx context.Context, g, c *linalg.CMatrix, sigma complex128) (*linalg.CMatrix, error) {
	n := g.N
	b := linalg.NewCMatrix(n)
	for i := range b.Data {
		b.Data[i] = g.Data[i] + sigma*c.Data[i]
	}
	f, err := linalg.CFactor(b)
	if err != nil {
		return nil, err
	}
	m := linalg.NewCMatrix(n)
	col := make([]complex128, n)
	for j := 0; j < n; j++ {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			col[i] = c.At(i, j)
		}
		x, err := f.Solve(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			m.Set(i, j, x[i])
		}
	}
	return m, nil
}

// ComplexPolePairs filters poles to one representative per conjugate pair
// with meaningful imaginary part (|Im| > tol*|s|), sorted by frequency.
func ComplexPolePairs(poles []Pole, tol float64) []Pole {
	if tol <= 0 {
		tol = 1e-6
	}
	var out []Pole
	for _, p := range poles {
		if imag(p.S) <= 0 {
			continue
		}
		if math.Abs(imag(p.S)) < tol*cmplx.Abs(p.S) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TransferZeros computes the finite zeros of the transfer function from
// an independent source's excitation to a node voltage: the values of s
// where the output nulls. They are the generalized eigenvalues of the
// augmented pencil
//
//	[ G + sC   b ] [x]   [0]
//	[ e_outᵀ   0 ] [k] = [0]
//
// (b is the source's excitation vector, e_out selects the observed node),
// solved with the same shift-invert + QR machinery as Poles. The paper's
// footnote 2 is about exactly these: a complex zero close to a complex
// pole suppresses the pole's stability-plot peak, so exact zero locations
// are the ground truth for interpreting positive peaks.
func (s *Sim) TransferZeros(ctx context.Context, op *mna.OpPoint, src, outNode string, minHz, maxHz float64) ([]Pole, error) {
	n := s.Sys.NumUnknowns()
	outIdx, ok := s.Sys.NodeOf(outNode)
	if !ok || outIdx < 0 {
		return nil, fmt.Errorf("analysis: cannot observe node %q", outNode)
	}
	// Excitation vector of the named source with unit AC drive.
	bvec, err := s.unitExcitation(src)
	if err != nil {
		return nil, err
	}

	g, c := s.pencil(op)

	// Augmented pencil of size n+1.
	m := n + 1
	ga := linalg.NewCMatrix(m)
	ca := linalg.NewCMatrix(m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ga.Set(i, j, g.At(i, j))
			ca.Set(i, j, c.At(i, j))
		}
		ga.Set(i, n, bvec[i])
	}
	ga.Set(n, outIdx, 1)

	return pencilEigen(ctx, ga, ca, minHz, maxHz, "zero analysis")
}

// unitExcitation builds the AC RHS vector of the named independent source
// driven with unit magnitude and zero phase.
func (s *Sim) unitExcitation(src string) ([]complex128, error) {
	e := s.Sys.Ckt.Element(src)
	if e == nil {
		return nil, fmt.Errorf("analysis: no source %q", src)
	}
	n := s.Sys.NumUnknowns()
	b := make([]complex128, n)
	switch e.Type {
	case netlist.VSource:
		br, ok := s.Sys.BranchOf(src)
		if !ok {
			return nil, fmt.Errorf("analysis: %q has no branch", src)
		}
		b[br] = 1
	case netlist.ISource:
		ip, _ := s.Sys.NodeOf(e.Nodes[0])
		in, _ := s.Sys.NodeOf(e.Nodes[1])
		if ip >= 0 {
			b[ip] -= 1
		}
		if in >= 0 {
			b[in] += 1
		}
	default:
		return nil, fmt.Errorf("analysis: %q is not an independent source", src)
	}
	return b, nil
}
