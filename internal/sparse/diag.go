package sparse

// Reach-restricted diagonal extraction: the all-nodes stability sweep only
// ever consumes driving-point impedances Z_kk — inject the unit current
// e_k, read back component k — yet a full SolveInto walks every row of L
// and U per node per frequency. Because e_k is a 1-sparse right-hand side,
// the forward substitution can only make rows reachable from the injection
// step in the elimination DAG nonzero (the Gilbert–Peierls reach), and the
// backward substitution only needs the rows component k transitively
// depends on through the U pattern. Both sets are value-independent, so
// they are computed once per sweep from the Symbolic (DiagPlan) and then
// every frequency's batched solve touches O(|reach|) rows instead of
// O(nnz(L)+nnz(U)) — allocation-free, through the Numeric's existing
// scatter workspace.

import (
	"fmt"
	"slices"
)

// DiagPlan is the frozen road map of a batched diagonal extraction: for a
// fixed Symbolic and a fixed list of injection unknowns, the rows each
// node's reach-restricted forward solve must visit (in elimination order)
// and the suffix of rows its early-terminated backward solve must visit
// (in reverse elimination order). A DiagPlan is immutable after
// Symbolic.DiagPlan and safe to share read-only across sweep workers; the
// per-call scratch lives in each worker's Numeric.
type DiagPlan struct {
	sym   *Symbolic
	nodes []int32 // injection unknowns (columns of A⁻¹), caller order
	// Forward reach: fstep[fptr[i]:fptr[i+1]] lists the elimination steps
	// node i's sparse-RHS forward solve visits, ascending (topological
	// order of the L DAG under the frozen pivot permutation). The first
	// entry is the injection step itself — the step that eliminated the
	// injected row.
	fptr  []int32
	fstep []int32
	// Backward reach: bstep[bptr[i]:bptr[i+1]] lists the steps (== columns,
	// since columns are eliminated in natural order) node i's backward
	// solve visits, descending. The last entry is the node itself.
	bptr  []int32
	bstep []int32
}

// Nodes returns the number of injection nodes the plan covers.
func (p *DiagPlan) Nodes() int { return len(p.nodes) }

// RowsPerSolve returns the total number of rows one batched SolveDiagInto
// call visits (forward plus backward, summed over all nodes) — the
// numerator of the reach-restriction win.
func (p *DiagPlan) RowsPerSolve() int64 {
	return int64(len(p.fstep) + len(p.bstep))
}

// RowsFull returns the rows a full SolveInto per node would visit (every
// row once forward and once backward) — the denominator RowsPerSolve is
// measured against.
func (p *DiagPlan) RowsFull() int64 {
	return int64(len(p.nodes)) * 2 * int64(p.sym.n)
}

// DiagPlan computes the reach sets of a batched diagonal extraction over
// the given injection unknowns. It runs once per sweep (the sets depend
// only on the symbolic pattern, not on values); the transpose of the L
// pattern is built as a scratch adjacency and discarded.
func (s *Symbolic) DiagPlan(nodes []int) (*DiagPlan, error) {
	n := s.n
	p := &DiagPlan{
		sym:   s,
		nodes: make([]int32, len(nodes)),
		fptr:  make([]int32, len(nodes)+1),
		bptr:  make([]int32, len(nodes)+1),
	}
	// All index scratch comes from one allocation.
	scratch := make([]int32, 4*n+1+len(s.lsrc))
	stepOf, scratch := scratch[:n], scratch[n:]
	tptr, scratch := scratch[:n+1], scratch[n+1:]
	next, scratch := scratch[:n], scratch[n:]
	seen, tadj := scratch[:n], scratch[n:]
	// stepOf: original row index -> elimination step. The injected RHS e_k
	// permutes to a single 1 at the step that eliminated row k.
	for k, r := range s.perm {
		stepOf[r] = int32(k)
	}
	// Transpose the L pattern (stored by target row) into source-step ->
	// target-steps adjacency, the edge direction a forward reach follows.
	for _, src := range s.lsrc {
		tptr[src+1]++
	}
	for i := 0; i < n; i++ {
		tptr[i+1] += tptr[i]
	}
	copy(next, tptr[:n])
	for t := 0; t < n; t++ {
		for idx := s.lptr[t]; idx < s.lptr[t+1]; idx++ {
			src := s.lsrc[idx]
			tadj[next[src]] = int32(t)
			next[src]++
		}
	}
	// Per-node DFS with an epoch-stamped visited array so the scratch is
	// shared across nodes without clearing.
	stack := make([]int32, 0, 64)
	epoch := int32(0)
	reach := func(start int32, ptr []int32, adj []int32, out []int32) []int32 {
		epoch++
		stack = stack[:0]
		stack = append(stack, start)
		seen[start] = epoch
		out = append(out, start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for idx := ptr[v]; idx < ptr[v+1]; idx++ {
				w := adj[idx]
				if seen[w] != epoch {
					seen[w] = epoch
					out = append(out, w)
					stack = append(stack, w)
				}
			}
		}
		return out
	}
	for i, node := range nodes {
		if node < 0 || node >= n {
			return nil, fmt.Errorf("sparse: diag node %d out of range [0,%d)", node, n)
		}
		p.nodes[i] = int32(node)
		// Forward reach from the injection step; ascending = topological
		// order (every L edge goes from a lower to a higher step).
		from := len(p.fstep)
		p.fstep = reach(stepOf[node], tptr, tadj, p.fstep)
		slices.Sort(p.fstep[from:])
		p.fptr[i+1] = int32(len(p.fstep))
		// Backward reach from column node via the U pattern; descending so
		// every dependency (a higher column) is solved first.
		from = len(p.bstep)
		p.bstep = reach(int32(node), s.uptr, s.ucol, p.bstep)
		bs := p.bstep[from:]
		slices.Sort(bs)
		slices.Reverse(bs)
		p.bptr[i+1] = int32(len(p.bstep))
	}
	return p, nil
}

// SolveDiagInto computes the driving-point entries dst[i] = (A⁻¹)_{kk} for
// each injection unknown k of the plan, batched through the Numeric's
// scatter workspace: per node, a reach-restricted sparse-RHS forward solve
// followed by an early-terminated backward solve, touching only the rows
// the plan recorded. It never allocates; the scatter row's all-zero
// invariant is restored before returning. The plan must have been built
// from the same Symbolic this Numeric was.
func (nm *Numeric) SolveDiagInto(dst []complex128, plan *DiagPlan) error {
	sym := nm.sym
	if plan == nil || plan.sym != sym {
		return fmt.Errorf("sparse: diag plan was built for a different symbolic analysis")
	}
	if len(dst) != len(plan.nodes) {
		return fmt.Errorf("sparse: dst length %d, want %d", len(dst), len(plan.nodes))
	}
	w := nm.w
	for i := range plan.nodes {
		fs := plan.fstep[plan.fptr[i]:plan.fptr[i+1]]
		bs := plan.bstep[plan.bptr[i]:plan.bptr[i+1]]
		// Permuted RHS: e_k lands as a single 1 at the step that eliminated
		// row k — the lowest forward-reach member. Rows outside the reach
		// stay exactly zero, so they are never loaded.
		w[fs[0]] = 1
		for _, t := range fs {
			acc := w[t]
			for idx := sym.lptr[t]; idx < sym.lptr[t+1]; idx++ {
				if m := nm.lval[idx]; m != 0 {
					acc -= m * w[sym.lsrc[idx]]
				}
			}
			w[t] = acc
		}
		// Early-terminated backward solve: only the columns component k
		// transitively depends on, highest first. Reads outside the
		// forward reach see the exact zero a full solve would.
		for _, t := range bs {
			acc := w[t]
			for ui := sym.uptr[t]; ui < sym.uptr[t+1]; ui++ {
				acc -= nm.uval[ui] * w[sym.ucol[ui]]
			}
			w[t] = acc * nm.udinv[t]
		}
		d := w[plan.nodes[i]]
		// Restore the all-zero scatter invariant (fs and bs may overlap;
		// double-zeroing is harmless).
		for _, t := range fs {
			w[t] = 0
		}
		for _, t := range bs {
			w[t] = 0
		}
		dst[i] = d
	}
	return checkFinite(dst)
}
