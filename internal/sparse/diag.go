package sparse

// Reach-restricted diagonal extraction: the all-nodes stability sweep only
// ever consumes driving-point impedances Z_kk — inject the unit current
// e_k, read back component k — yet a full SolveInto walks every row of L
// and U per node per frequency. Because e_k is a 1-sparse right-hand side,
// the forward substitution can only make rows reachable from the injection
// step in the elimination DAG nonzero (the Gilbert–Peierls reach), and the
// backward substitution only needs the rows component k transitively
// depends on through the U pattern. Both sets are value-independent, so
// DiagPlan compiles them once per sweep from the Symbolic into one forward
// program per node, keeping only the forward rows the backward solve
// reads and only the L terms whose source can be nonzero. Every
// frequency's batched solve then runs those programs: allocation-free,
// through the Numeric's existing scatter workspace.

import (
	"fmt"
	"slices"
)

// DiagPlan is the compiled form of a batched diagonal extraction: for a
// fixed Symbolic and a fixed list of injection unknowns, one straight-line
// forward program per node and the suffix of rows its early-terminated
// backward solve must visit (in reverse elimination order). The forward
// program is the node's forward reach with its dead work removed:
//
//   - Row liveness: a forward row is kept only if a backward row reads it,
//     directly (the row is in the backward reach) or through another kept
//     forward row. Any other row's value never reaches component k.
//   - Zero sources: in a kept row, only the L terms whose source step lies
//     in the node's forward reach are kept. Every other source row is an
//     exact zero for a unit injection, so its term subtracts an exact zero.
//
// A DiagPlan is immutable after Symbolic.DiagPlan and safe to share
// read-only across concurrent sweeps; the per-call scratch lives in each
// sweep's Numeric.
type DiagPlan struct {
	sym *Symbolic
	// Forward program: node i runs the rows r in [fptr[i], fptr[i+1]),
	// each a pair (step, term end) = frow[2r], frow[2r+1], in ascending
	// step order (topological order of the L DAG under the frozen pivot
	// permutation). The first row is the injection step, the step that
	// eliminated the injected row: it gets w[step] = 1 and has no terms.
	// Every later row r computes w[step] = -Σ lval[e]·w[s] over the
	// (lval index e, source step s) pairs fterm[2*lo:2*hi], where hi is
	// its term end and lo the previous row's, in SolveInto's order. A
	// node whose injection step no backward row reads has no rows at all.
	fptr  []int32
	frow  []int32
	fterm []int32
	// Backward reach: bstep[bptr[i]:bptr[i+1]] lists the steps (== columns,
	// since columns are eliminated in natural order) node i's backward
	// solve visits, descending. The last entry is node i's injection
	// unknown itself (a column of A⁻¹), so the plan stores no node list.
	bptr  []int32
	bstep []int32
}

// Nodes returns the number of injection nodes the plan covers.
func (p *DiagPlan) Nodes() int { return len(p.bptr) - 1 }

// RowsPerSolve returns the total number of rows one batched SolveDiagInto
// call visits: the kept forward rows of every node's program plus its
// backward rows. It is the numerator of the reach-restriction win.
func (p *DiagPlan) RowsPerSolve() int64 {
	return int64(len(p.frow)/2 + len(p.bstep))
}

// RowsFull returns the rows a full SolveInto per node would visit (every
// row once forward and once backward) — the denominator RowsPerSolve is
// measured against.
func (p *DiagPlan) RowsFull() int64 {
	return int64(p.Nodes()) * 2 * int64(p.sym.n)
}

// DiagPlan compiles the batched diagonal extraction over the given
// injection unknowns. It runs once per sweep (the programs depend only on
// the symbolic pattern, not on values). Two passes over the nodes compile
// each program, the first only to size the plan's one index block; the
// transpose of the L pattern and the reach scratch share one block that
// is discarded.
func (s *Symbolic) DiagPlan(nodes []int) (*DiagPlan, error) {
	n := s.n
	for _, node := range nodes {
		if node < 0 || node >= n {
			return nil, fmt.Errorf("sparse: diag node %d out of range [0,%d)", node, n)
		}
	}
	scratch := make([]int32, 4*n+1+len(s.lsrc))
	b := &planBuilder{sym: s}
	b.stepOf, scratch = scratch[:n:n], scratch[n:]
	b.tptr, scratch = scratch[:n+1:n+1], scratch[n+1:]
	b.queue, scratch = scratch[:n:n], scratch[n:]
	b.seen, b.tadj = scratch[:n:n], scratch[n:]
	// stepOf: original row index -> elimination step. The injected RHS e_k
	// permutes to a single 1 at the step that eliminated row k.
	for k, r := range s.perm {
		b.stepOf[r] = int32(k)
	}
	// Transpose the L pattern (stored by target row) into source-step ->
	// target-steps adjacency, the edge direction a forward reach follows.
	// The queue serves as the fill cursor until the reaches need it.
	for _, src := range s.lsrc {
		b.tptr[src+1]++
	}
	for i := 0; i < n; i++ {
		b.tptr[i+1] += b.tptr[i]
	}
	next := b.queue
	copy(next, b.tptr[:n])
	for t := 0; t < n; t++ {
		for idx := s.lptr[t]; idx < s.lptr[t+1]; idx++ {
			src := s.lsrc[idx]
			b.tadj[next[src]] = int32(t)
			next[src]++
		}
	}
	// Size the plan, then compile every node's program into it.
	var rows, terms, back int
	for _, node := range nodes {
		r, t, bk := b.compile(int32(node), nil)
		rows, terms, back = rows+r, terms+t, back+bk
	}
	nn := len(nodes)
	buf := make([]int32, 2*nn+2+2*rows+2*terms+back)
	p := &DiagPlan{sym: s}
	p.fptr, buf = buf[:nn+1], buf[nn+1:]
	p.bptr, buf = buf[:nn+1], buf[nn+1:]
	p.frow, buf = buf[:0:2*rows], buf[2*rows:]
	p.fterm, p.bstep = buf[:0:2*terms], buf[2*terms:2*terms]
	for i, node := range nodes {
		b.compile(int32(node), p)
		p.fptr[i+1] = int32(len(p.frow) / 2)
		p.bptr[i+1] = int32(len(p.bstep))
	}
	return p, nil
}

// planBuilder holds DiagPlan's scratch, all carved from one block.
type planBuilder struct {
	sym        *Symbolic
	stepOf     []int32 // original row -> elimination step
	tptr, tadj []int32 // L pattern by source step
	queue      []int32 // breadth-first queue and reach list
	// seen stamps rows with three values per node (see compile) drawn
	// from a growing epoch, so it needs no clearing between nodes.
	seen  []int32
	epoch int32
}

// compile builds node's forward program and backward reach and returns
// their sizes: kept forward rows, kept L terms and backward rows. With a
// non-nil p it also appends them to p's streams, which must have room.
func (b *planBuilder) compile(node int32, p *DiagPlan) (rows, terms, back int) {
	s, seen := b.sym, b.seen
	// This node's stamps: inB for a row of the backward reach the forward
	// reach has not met, reached for a forward-reached row no backward row
	// reads (yet), live for a forward row a backward row reads, directly
	// or through another live row.
	b.epoch += 3
	inB, reached, live := b.epoch-2, b.epoch-1, b.epoch
	// Backward reach from column node via the U pattern, breadth first
	// with the list as its queue. Emitted descending, so every dependency
	// (a higher column) is solved first; sizing only needs its stamps.
	bs := b.queue[:0]
	if p != nil {
		bs = p.bstep[len(p.bstep):]
	}
	bs = append(bs, node)
	seen[node] = inB
	for q := 0; q < len(bs); q++ {
		for ui := s.uptr[bs[q]]; ui < s.uptr[bs[q]+1]; ui++ {
			if c := s.ucol[ui]; seen[c] != inB {
				seen[c] = inB
				bs = append(bs, c)
			}
		}
	}
	back = len(bs)
	if p != nil {
		slices.Sort(bs)
		slices.Reverse(bs)
		p.bstep = p.bstep[:len(p.bstep)+back]
	}
	// Forward reach from the injection step, ascending = topological
	// order (every L edge goes from a lower to a higher step). A reached
	// row of the backward reach is live at once.
	mark := func(t int32) {
		if seen[t] == inB {
			seen[t] = live
		} else {
			seen[t] = reached
		}
	}
	inj := b.stepOf[node]
	fr := append(b.queue[:0], inj)
	mark(inj)
	for q := 0; q < len(fr); q++ {
		v := fr[q]
		for idx := b.tptr[v]; idx < b.tptr[v+1]; idx++ {
			if t := b.tadj[idx]; seen[t] != reached && seen[t] != live {
				mark(t)
				fr = append(fr, t)
			}
		}
	}
	slices.Sort(fr)
	// A live row makes its reached sources live. Sources are lower steps,
	// so one descending pass settles every row.
	for j := len(fr) - 1; j >= 0; j-- {
		t := fr[j]
		if seen[t] != live {
			continue
		}
		for idx := s.lptr[t]; idx < s.lptr[t+1]; idx++ {
			if src := s.lsrc[idx]; seen[src] == reached {
				seen[src] = live
			}
		}
	}
	// Every reached source of a live row is live, so the kept terms are
	// exactly those whose source is live.
	for _, t := range fr {
		if seen[t] != live {
			continue
		}
		rows++
		for idx := s.lptr[t]; idx < s.lptr[t+1]; idx++ {
			if src := s.lsrc[idx]; seen[src] == live {
				terms++
				if p != nil {
					p.fterm = append(p.fterm, idx, src)
				}
			}
		}
		if p != nil {
			p.frow = append(p.frow, t, int32(len(p.fterm)/2))
		}
	}
	return rows, terms, back
}

// SolveDiagInto computes the driving-point entries dst[i] = (A⁻¹)_{kk} for
// each injection unknown k of the plan, batched through the Numeric's
// scatter workspace: per node, the plan's forward program followed by an
// early-terminated backward solve. Each entry equals the node's entry of
// a full SolveInto; the terms the program drops subtract exact zeros, so
// at most the sign of a zero result can differ. It never allocates; the
// scatter row's all-zero invariant is restored before returning. The plan
// must have been built from the same Symbolic this Numeric was.
func (nm *Numeric) SolveDiagInto(dst []complex128, plan *DiagPlan) error {
	sym := nm.sym
	if plan == nil || plan.sym != sym {
		return fmt.Errorf("sparse: diag plan was built for a different symbolic analysis")
	}
	if len(dst) != plan.Nodes() {
		return fmt.Errorf("sparse: dst length %d, want %d", len(dst), plan.Nodes())
	}
	w, lval := nm.w, nm.lval
	for i := range dst {
		rows := plan.frow[2*plan.fptr[i] : 2*plan.fptr[i+1]]
		bs := plan.bstep[plan.bptr[i]:plan.bptr[i+1]]
		// Permuted RHS: e_k lands as a single 1 at the injection step,
		// the program's first row. Rows the program leaves out are never
		// loaded; the backward solve reads them as the zeros they are.
		if len(rows) > 0 {
			w[rows[0]] = 1
			lo := rows[1]
			for r := 3; r < len(rows); r += 2 {
				hi := rows[r]
				terms := plan.fterm[2*lo : 2*hi]
				var acc complex128 // only the injection row has a nonzero RHS
				for j := 1; j < len(terms); j += 2 {
					if m := lval[terms[j-1]]; m != 0 {
						acc -= m * w[terms[j]]
					}
				}
				w[rows[r-1]] = acc
				lo = hi
			}
		}
		// Early-terminated backward solve: only the columns component k
		// transitively depends on, highest first.
		for _, t := range bs {
			acc := w[t]
			for ui := sym.uptr[t]; ui < sym.uptr[t+1]; ui++ {
				acc -= nm.uval[ui] * w[sym.ucol[ui]]
			}
			w[t] = acc * nm.udinv[t]
		}
		d := w[bs[len(bs)-1]] // component k
		// Restore the all-zero scatter invariant: the program's rows and
		// the backward rows are all the kernel wrote (they may overlap;
		// double-zeroing is harmless).
		for r := 0; r < len(rows); r += 2 {
			w[rows[r]] = 0
		}
		for _, t := range bs {
			w[t] = 0
		}
		dst[i] = d
	}
	return checkFinite(dst)
}
