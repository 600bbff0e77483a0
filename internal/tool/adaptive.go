package tool

// The two-level adaptive sweep engine. The stability plot P(ω) is flat
// away from complex pole/zero pairs, so most of a dense uniform grid's
// solver work confirms nothing: a coarse pass at a few points per decade
// finds every candidate resonance, and recursive bisection of only the
// intervals the stencil signal marks as interesting (stab.RefinePlan)
// recovers full peak resolution at a fraction of the solve count.
//
// Refinement is decided per node from that node's own samples: no matter
// how nodes are grouped into sweep calls, a node's final grid — and the
// diag-kernel values on it, which are per-node independent — depends only
// on the node itself. Each round, all
// nodes that want more resolution are swept together over the union of
// their wanted frequencies, so every new frequency is stamped and
// refactored once per round and the fixed per-sweep cost — reach-plan
// construction, workspace setup — is paid per round, not per distinct
// want-list. A node may get solved at a few
// frequencies it did not ask for; those values are dropped, which is safe
// because solutions are per-(node, frequency) independent.

import (
	"context"
	"math"
	"sort"

	"acstab/internal/acerr"
	"acstab/internal/mna"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/stab"
)

const (
	// defRefineThreshold is the default |P| refinement trigger: the
	// single-real-pole dip bottoms out at 0.5, so anything deeper hints at
	// a complex pair worth resolving.
	defRefineThreshold = 0.5
	// maxRefineRoundsCap bounds the bisection rounds regardless of the
	// coarse/fine ratio (each round halves interval widths, so 20 rounds
	// cover a 10^6 resolution ratio with room to spare).
	maxRefineRoundsCap = 20
)

// adaptive reports whether this run uses the two-level sweep.
func (t *Tool) adaptive() bool { return t.Opts.CoarsePointsPerDecade > 0 }

// refineOptions maps the run options onto the stab refinement knobs: the
// threshold tier targets twice the coarse density (enough to bracket
// every extremum) and the peak tier the full refinement cap.
func (t *Tool) refineOptions() stab.RefineOptions {
	wide := 2 * t.Opts.CoarsePointsPerDecade
	if wide > t.Opts.RefinePointsPerDecade {
		wide = t.Opts.RefinePointsPerDecade
	}
	return stab.RefineOptions{
		Threshold: t.Opts.RefineThreshold,
		WideDU:    math.Ln10 / float64(wide),
		PeakDU:    math.Ln10 / float64(t.Opts.RefinePointsPerDecade),
	}
}

// maxRefineRounds is how many bisection rounds the coarse-to-cap ratio
// can need: log2(cap/coarse) halvings plus slack for the threshold tier
// discovering new hot intervals as peaks sharpen. It is 0 unless adaptive
// grids are on.
func (t *Tool) maxRefineRounds() int {
	if !t.adaptive() {
		return 0
	}
	r := 2
	for ppd := t.Opts.CoarsePointsPerDecade; ppd < t.Opts.RefinePointsPerDecade; ppd *= 2 {
		r++
	}
	if r > maxRefineRoundsCap {
		r = maxRefineRoundsCap
	}
	return r
}

// refiner is one node's refinement ask for the current round.
type refiner struct {
	i     int       // index into the sweep's node list
	want  []float64 // ascending new frequencies this node needs
	wantU []float64 // ln(want), the exact midpoint values from the plan
}

// unionFreqs merges the rounds' ascending want-lists into one ascending
// deduplicated frequency list. Wanted midpoints are exact IEEE values
// computed from grid endpoints, so nodes that bisect the same interval
// produce bit-identical frequencies and dedup by equality is exact.
func unionFreqs(refiners []refiner) []float64 {
	n := 0
	for _, r := range refiners {
		n += len(r.want)
	}
	all := make([]float64, 0, n)
	for _, r := range refiners {
		all = append(all, r.want...)
	}
	sort.Float64s(all)
	out := all[:0]
	for _, f := range all {
		if len(out) == 0 || out[len(out)-1] != f {
			out = append(out, f)
		}
	}
	return out
}

// subsetVals extracts a node's wanted values from the union sweep's
// column: want is an ascending subsequence of union, so one two-pointer
// pass matches every entry.
func subsetVals(union []float64, col []complex128, want []float64) []complex128 {
	vals := make([]complex128, len(want))
	u := 0
	for j, f := range want {
		for union[u] != f {
			u++
		}
		vals[j] = col[u]
		u++
	}
	return vals
}

// nodeGrid is one node's accumulated adaptive samples: the frequency grid
// and impedance column plus the log-domain shadows (u = ln f, lnm =
// ln|z|) the refinement stencil reads, carried across rounds so only new
// points ever pay a logarithm.
type nodeGrid struct {
	freqs []float64
	zs    []complex128
	u     []float64
	lnm   []float64
}

// merge splices the newly solved (r.want, vals) points into the node's
// ascending arrays. want is ascending and strictly interior to freqs'
// span, so a single merge pass suffices.
func (g *nodeGrid) merge(r refiner, vals []complex128) {
	n := len(g.freqs) + len(r.want)
	outF := make([]float64, 0, n)
	outZ := make([]complex128, 0, n)
	outU := make([]float64, 0, n)
	outL := make([]float64, 0, n)
	i, j := 0, 0
	for i < len(g.freqs) || j < len(r.want) {
		if j >= len(r.want) || (i < len(g.freqs) && g.freqs[i] <= r.want[j]) {
			outF = append(outF, g.freqs[i])
			outZ = append(outZ, g.zs[i])
			outU = append(outU, g.u[i])
			outL = append(outL, g.lnm[i])
			i++
		} else {
			z := vals[j]
			outF = append(outF, r.want[j])
			outZ = append(outZ, z)
			outU = append(outU, r.wantU[j])
			outL = append(outL, stab.LogMag(math.Hypot(real(z), imag(z))))
			j++
		}
	}
	g.freqs, g.zs, g.u, g.lnm = outF, outZ, outU, outL
}

// refine runs up to maxRounds bisection rounds over the first-pass samples
// of the nodes idx, all on the grid of ax, replacing each refined node's
// freqs[i] and cols[i],
// and returns the distinct frequencies it factored (the sum of the rounds'
// unions). It also publishes the adaptive trace counters:
//
//	adaptive_rounds         refinement rounds executed
//	adaptive_refined_points (node, frequency) points added by refinement
//	adaptive_solve_pairs    total (node, frequency) points solved
//	adaptive_dense_pairs    what the dense uniform sweep would have solved
func (t *Tool) refine(ctx context.Context, op *mna.OpPoint, idx []int, maxRounds int, ax *stab.Axis, freqs [][]float64, cols [][]complex128) (int64, error) {
	if len(idx) == 0 {
		return 0, nil
	}
	sp := obs.StartPhase(t.Opts.Trace, "refine_sweep")
	defer sp.End()
	// Every node starts on the one first-pass grid, so its log shadow is
	// the shared axis's until a merge gives a node its own arrays; merge
	// only reads it.
	grid, u := ax.Freqs(), ax.Logs()
	grids := make([]nodeGrid, len(idx))
	for i := range grids {
		lnm := make([]float64, len(grid))
		for j, z := range cols[i] {
			lnm[j] = stab.LogMag(math.Hypot(real(z), imag(z)))
		}
		grids[i] = nodeGrid{freqs: grid, zs: cols[i], u: u, lnm: lnm}
	}
	solvePairs := int64(len(grid)) * int64(len(idx))
	var points, rounds, refined int64

	ropt := t.refineOptions()
	for round := 0; round < maxRounds; round++ {
		if err := acerr.Ctx(ctx); err != nil {
			return 0, err
		}
		// Per-node refinement decisions; every node that wants more
		// resolution joins this round's union sweep.
		var refiners []refiner
		for i := range grids {
			g := &grids[i]
			want, wantU := stab.RefinePlanLogs(g.freqs, g.u, g.lnm, ropt)
			if len(want) == 0 {
				continue
			}
			refiners = append(refiners, refiner{i: i, want: want, wantU: wantU})
			refined += int64(len(want))
		}
		if len(refiners) == 0 {
			break
		}
		rounds++
		// One sweep of every refining node over the whole union, so the
		// reach plan and workspace are built once per round, not once per
		// distinct want-list.
		union := unionFreqs(refiners)
		points += int64(len(union))
		solvePairs += int64(len(union)) * int64(len(refiners))
		nodes := make([]int, len(refiners))
		for ri, r := range refiners {
			nodes[ri] = idx[r.i]
		}
		sub, err := t.sweep(ctx, nil, union, op, nodes)
		if err != nil {
			return 0, err
		}
		for ri, r := range refiners {
			grids[r.i].merge(r, subsetVals(union, sub[ri], r.want))
		}
	}
	for i := range grids {
		freqs[i], cols[i] = grids[i].freqs, grids[i].zs
	}

	tr := t.Opts.Trace
	tr.Add("adaptive_rounds", rounds)
	tr.Add("adaptive_refined_points", refined)
	tr.Add("adaptive_solve_pairs", solvePairs)
	densePairs := int64(num.LogGridLen(t.Opts.FStart, t.Opts.FStop, t.Opts.PointsPerDecade)) * int64(len(idx))
	tr.Add("adaptive_dense_pairs", densePairs)
	mAdaptiveRounds.Add(rounds)
	mAdaptiveRefined.Add(refined)
	return points, nil
}
