package sparse

// Factors exposes a Numeric's L multipliers, U entries and reciprocal U
// diagonal to the package's external tests.
func (nm *Numeric) Factors() (lval, uval, udinv []complex128) {
	return nm.lval, nm.uval, nm.udinv
}
