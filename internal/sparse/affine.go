package sparse

// Affine is the once-per-sweep form of the AC matrix. Every MNA stamp call
// issues a value g + jω·c whose real part g does not depend on ω, so one
// stamping pass at ω = 1 records the whole sweep:
//
//   - G, the per-slot sums of the calls' real parts;
//   - C, the calls' imaginary coefficients c in call order (zeros
//     skipped), each tagged with its slot;
//   - the right-hand side, which no stamp makes frequency dependent.
//
// FillInto then writes the matrix at any ω as complex(G[s], Σ ω·c_t) with
// no stamping at all. The fill is bitwise identical to a Vals replay at
// that ω, for every finite ω ≥ 0: at ω = 1 a call's value is exactly
// complex(g, c), at ω it is exactly complex(g, ω·c) (the stamps form ω·c
// as one rounded product), and a Vals slot accumulates the real and
// imaginary parts independently, starting from +0, in call order — the
// order FillInto sums the ω·c products in. A skipped zero coefficient
// only ever added a signed zero, which cannot change a sum that starts
// at +0.
//
// The recording pass accumulates the same structural checksum as Vals, so
// Drift detects a stamp stream that deviates from the pattern.
type Affine struct {
	p     *Pattern
	g     []float64
	terms []affineTerm
	rhs   []complex128
	t     int
	sig   uint64
}

// affineTerm is one stamp call's imaginary coefficient and its slot.
type affineTerm struct {
	slot int32
	c    float64
}

// NewAffine returns an empty affine recorder for the pattern.
func (p *Pattern) NewAffine() *Affine {
	return &Affine{p: p, g: make([]float64, len(p.col)), rhs: make([]complex128, p.n)}
}

// Begin resets the recorder for a new stamping pass: the stamps go to
// Add at ω = 1, and the right-hand side into RHS.
func (a *Affine) Begin() {
	clear(a.g)
	clear(a.rhs)
	a.terms = a.terms[:0]
	a.t = 0
	a.sig = fnvOffset
}

// Add records one stamp call made at ω = 1.
func (a *Affine) Add(i, j int, val complex128) {
	key := int64(i)*int64(a.p.n) + int64(j)
	a.sig = (a.sig ^ uint64(key)) * fnvPrime
	if a.t < len(a.p.seq) {
		s := a.p.seq[a.t]
		a.g[s] += real(val)
		if c := imag(val); c != 0 {
			a.terms = append(a.terms, affineTerm{s, c})
		}
	}
	a.t++
}

// Drift reports whether the pass since Begin deviated structurally from
// the pattern, exactly like Vals.Drift; the recording is then unusable.
func (a *Affine) Drift() bool {
	return a.t != len(a.p.seq) || a.sig != a.p.sig
}

// RHS returns the right-hand side vector the pass stamps into (aliased).
// It is zeroed by Begin and, once stamped, holds the excitation at every ω.
func (a *Affine) RHS() []complex128 { return a.rhs }

// FillInto writes the matrix values at angular frequency omega into dst,
// a value array of the pattern (Vals.Values), overwriting it.
func (a *Affine) FillInto(dst []complex128, omega float64) {
	dst = dst[:len(a.g)]
	for s, g := range a.g {
		dst[s] = complex(g, 0)
	}
	for _, t := range a.terms {
		e := &dst[t.slot]
		*e = complex(real(*e), imag(*e)+omega*t.c)
	}
}
