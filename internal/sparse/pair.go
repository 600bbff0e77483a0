package sparse

// Two-lane forms of the sweep's per-point kernels. A sweep refills and
// extracts every grid point under one Symbolic, so two points share every
// index the kernels decode: the pivot permutation, the L and U patterns
// and the diag plan's programs. The pair kernels run two Numerics of one
// Symbolic through one pass over those indices, which lets the two lanes'
// independent chains of complex multiplies and divides overlap. Each
// lane's arithmetic is the single-point kernel's, operation for operation
// and in the same order, so each lane ends bit for bit where Refactor or
// SolveDiagInto would have left it.

import (
	"fmt"
	"math"
)

// RefactorPair refills a from va and b from vb, two Numerics of one
// Symbolic, in one interleaved pass. Each lane does exactly Refactor's
// arithmetic: the same squared/modulus guard, the same growth factor,
// the same skipped zero multipliers and the same all-zero scatter row
// afterwards. It never allocates. If either lane's pivot collapses, it
// scrubs both scatter rows and returns an error wrapping ErrSingular;
// both Numerics are then invalid, and the caller refills each point on
// its own (Refactor) to learn which one collapsed.
func RefactorPair(a, b *Numeric, va, vb []complex128) error {
	sym := a.sym
	if b.sym != sym {
		return fmt.Errorf("sparse: pair refill over two symbolic analyses")
	}
	p := sym.pat
	if len(va) != len(p.col) || len(vb) != len(p.col) {
		return fmt.Errorf("sparse: values length %d/%d, want %d", len(va), len(vb), len(p.col))
	}
	wa, wb := a.w, b.w
	// tol2 rounded as fill rounds it: the product of two float64s, not
	// the exact constant.
	pivTol := float64(refactorPivTol)
	tol2 := pivTol * pivTol
	var ga2, ga, gb2, gb float64 // each lane's growth, as in fill
	for k := 0; k < sym.n; k++ {
		row := sym.perm[k]
		lo, hi := p.rowPtr[row], p.rowPtr[row+1]
		sa2, sb2 := 0.0, 0.0
		for idx := lo; idx < hi; idx++ {
			c, x, y := p.col[idx], va[idx], vb[idx]
			wa[c], wb[c] = x, y
			sa2 = max(sa2, abs2(x))
			sb2 = max(sb2, abs2(y))
		}
		for t := sym.lptr[k]; t < sym.lptr[k+1]; t++ {
			s := sym.lsrc[t]
			ma, mb := wa[s]*a.udinv[s], wb[s]*b.udinv[s]
			wa[s], wb[s] = 0, 0
			a.lval[t], b.lval[t] = ma, mb
			u0, u1 := sym.uptr[s], sym.uptr[s+1]
			cols := sym.ucol[u0:u1]
			switch ua, ub := a.uval[u0:u1], b.uval[u0:u1]; {
			case ma != 0 && mb != 0:
				for j, c := range cols {
					wa[c] -= ma * ua[j]
					wb[c] -= mb * ub[j]
				}
			case ma != 0:
				for j, c := range cols {
					wa[c] -= ma * ua[j]
				}
			case mb != 0:
				for j, c := range cols {
					wb[c] -= mb * ub[j]
				}
			}
		}
		da, db := wa[k], wb[k]
		wa[k], wb[k] = 0, 0
		for ui := sym.uptr[k]; ui < sym.uptr[k+1]; ui++ {
			c := sym.ucol[ui]
			a.uval[ui], b.uval[ui] = wa[c], wb[c]
			wa[c], wb[c] = 0, 0
		}
		// fill's guard and growth on each lane (sqGuard, else absGuard).
		// A lane's growth may take a rejected row's ratio: the pair then
		// fails and the growth is never read.
		okA, okB := false, false
		if ad2 := abs2(da); sqSafe(ad2, sa2) {
			okA, ga2 = ad2 > tol2*sa2, max(ga2, ad2/sa2)
		} else if g, ok := absGuard(da, va[lo:hi], pivTol); ok {
			okA, ga = true, max(ga, g)
		}
		if bd2 := abs2(db); sqSafe(bd2, sb2) {
			okB, gb2 = bd2 > tol2*sb2, max(gb2, bd2/sb2)
		} else if g, ok := absGuard(db, vb[lo:hi], pivTol); ok {
			okB, gb = true, max(gb, g)
		}
		if !okA || !okB {
			clear(wb)
			return a.collapsed(k)
		}
		a.udinv[k], b.udinv[k] = 1/da, 1/db
	}
	a.growth, b.growth = max(math.Sqrt(ga2), ga), max(math.Sqrt(gb2), gb)
	return nil
}

// SolveDiagPair runs SolveDiagInto on a into da and on b into db, two
// Numerics of one Symbolic refilled at two frequencies, in one pass over
// the plan's programs. Each lane's arithmetic is SolveDiagInto's, in the
// same order, so each entry equals the single-point kernel's bit for bit.
// It never allocates and restores both scatter rows to all zeros. errA
// and errB report each lane on its own: a lane with a non-finite entry
// fails without failing the other.
func SolveDiagPair(a, b *Numeric, da, db []complex128, plan *DiagPlan) (errA, errB error) {
	sym := a.sym
	if b.sym != sym || plan == nil || plan.sym != sym {
		err := fmt.Errorf("sparse: diag plan was built for a different symbolic analysis")
		return err, err
	}
	if len(da) != plan.Nodes() || len(db) != plan.Nodes() {
		err := fmt.Errorf("sparse: dst length %d/%d, want %d", len(da), len(db), plan.Nodes())
		return err, err
	}
	wa, wb, la, lb := a.w, b.w, a.lval, b.lval
	for i := range da {
		rows := plan.frow[2*plan.fptr[i] : 2*plan.fptr[i+1]]
		bs := plan.bstep[plan.bptr[i]:plan.bptr[i+1]]
		if len(rows) > 0 {
			wa[rows[0]], wb[rows[0]] = 1, 1
			lo := rows[1]
			for r := 3; r < len(rows); r += 2 {
				hi := rows[r]
				terms := plan.fterm[2*lo : 2*hi]
				var accA, accB complex128
				for j := 1; j < len(terms); j += 2 {
					e, s := terms[j-1], terms[j]
					if m := la[e]; m != 0 {
						accA -= m * wa[s]
					}
					if m := lb[e]; m != 0 {
						accB -= m * wb[s]
					}
				}
				wa[rows[r-1]], wb[rows[r-1]] = accA, accB
				lo = hi
			}
		}
		for _, t := range bs {
			accA, accB := wa[t], wb[t]
			u0, u1 := sym.uptr[t], sym.uptr[t+1]
			ua, ub := a.uval[u0:u1], b.uval[u0:u1]
			for j, c := range sym.ucol[u0:u1] {
				accA -= ua[j] * wa[c]
				accB -= ub[j] * wb[c]
			}
			wa[t], wb[t] = accA*a.udinv[t], accB*b.udinv[t]
		}
		k := bs[len(bs)-1]
		da[i], db[i] = wa[k], wb[k]
		for r := 0; r < len(rows); r += 2 {
			wa[rows[r]], wb[rows[r]] = 0, 0
		}
		for _, t := range bs {
			wa[t], wb[t] = 0, 0
		}
	}
	return checkFinite(da), checkFinite(db)
}
