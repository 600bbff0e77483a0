package main

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"acstab/internal/analysis"
	"acstab/internal/linalg"
	"acstab/internal/sparse"
)

// kernelStats is one kernel-replica measurement: per-point costs of the
// dense (linalg) and sparse (Pattern/Symbolic/Numeric) sweep kernels on
// one workload system and grid.
type kernelStats struct {
	stampNS, factorNS, solveNS               float64
	sparseStampNS, refactorNS, diagNS        float64
	residualNS, analyzeUS, fill, rowsVisited float64
	sparseShipped                            bool
}

// timePass returns the time of one run of pass: the least mean over
// passRounds rounds of at least minRound each, so that a preemption or a
// GC pause in one round does not count.
const (
	passRounds = 5
	minRound   = 4 * time.Millisecond
)

func timePass(pass func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < passRounds; r++ {
		t0 := time.Now()
		for n := 1; ; n++ {
			if err := pass(); err != nil {
				return 0, err
			}
			if d := time.Since(t0); d >= minRound {
				best = min(best, d/time.Duration(n))
				break
			}
		}
	}
	return best, nil
}

// kernelReplica splits one analysis's sweep into its kernels using only
// public calls on that analysis's own matrices and grid: mna.StampAC
// into a dense linalg.CMatrix and into sparse.Vals, linalg.CFactorInto /
// SolveInto, Pattern.Analyze, Numeric.Refactor, Numeric.SolveDiagInto with
// Symbolic.DiagPlan, and Pattern.ResidualInf. Each kernel's time is the
// difference between nested passes (stamp; stamp+factor; ...), so no
// timer sits inside the per-point loop. Both paths are measured whichever
// the default selects. The replica's Z_kk must match the program's
// ImpedanceDiagSweep on the same path to 1e-12 relative.
func kernelReplica(ctx context.Context, w *walked) (kernelStats, error) {
	var ks kernelStats
	sys, op, grid, idx := w.sim.Sys, w.op, w.grid, w.idx
	n := sys.NumUnknowns()
	pts := float64(len(grid))
	nodePts := pts * float64(len(idx))
	omega := func(k int) float64 { return 2 * math.Pi * grid[k] }
	b := make([]complex128, n)
	x := make([]complex128, n)
	zd := make([][]complex128, len(idx))
	zs := make([][]complex128, len(idx))
	for i := range idx {
		zd[i] = make([]complex128, len(grid))
		zs[i] = make([]complex128, len(grid))
	}

	// Dense path.
	dm := linalg.NewCMatrix(n)
	var clu *linalg.CLU
	dense := func(factor, solve bool) func() error {
		return func() (err error) {
			for k := range grid {
				dm.Zero()
				sys.StampAC(dm, nil, omega(k), op)
				if !factor {
					continue
				}
				if clu, err = linalg.CFactorInto(clu, dm); err != nil {
					return err
				}
				if !solve {
					continue
				}
				for i, node := range idx {
					b[node] = 1
					err = clu.SolveInto(x, b)
					b[node] = 0
					if err != nil {
						return err
					}
					zd[i][k] = x[node]
				}
			}
			return nil
		}
	}
	tStamp, err := timePass(dense(false, false))
	if err != nil {
		return ks, err
	}
	tFactor, err := timePass(dense(true, false))
	if err != nil {
		return ks, err
	}
	tSolve, err := timePass(dense(true, true))
	if err != nil {
		return ks, err
	}
	ks.stampNS = float64(tStamp) / pts
	ks.factorNS = float64(tFactor-tStamp) / pts
	ks.solveNS = float64(tSolve-tFactor) / nodePts

	// Sparse path, with the symbolic analysis at the sweep's first point
	// as the program builds it.
	rec := sparse.NewRecorder(n)
	sys.StampAC(rec, nil, omega(0), op)
	pat := rec.Compile()
	vals := pat.NewVals()
	vals.Begin()
	sys.StampAC(vals, nil, omega(0), op)
	var sym *sparse.Symbolic
	tAnalyze, err := timePass(func() (err error) {
		sym, err = pat.Analyze(vals.Values())
		return err
	})
	if err != nil {
		return ks, err
	}
	plan, err := sym.DiagPlan(idx)
	if err != nil {
		return ks, err
	}
	nm := sym.NewNumeric()
	diag := make([]complex128, len(idx))
	r := make([]complex128, n)
	sparsePass := func(refactor, diagSolve bool) func() error {
		return func() error {
			for k := range grid {
				vals.Begin()
				sys.StampAC(vals, nil, omega(k), op)
				if !refactor {
					continue
				}
				if err := nm.Refactor(vals.Values()); err != nil {
					return err
				}
				if !diagSolve {
					continue
				}
				if err := nm.SolveDiagInto(diag, plan); err != nil {
					return err
				}
				for i := range idx {
					zs[i][k] = diag[i]
				}
			}
			return nil
		}
	}
	tSparseStamp, err := timePass(sparsePass(false, false))
	if err != nil {
		return ks, err
	}
	tRefactor, err := timePass(sparsePass(true, false))
	if err != nil {
		return ks, err
	}
	tDiag, err := timePass(sparsePass(true, true))
	if err != nil {
		return ks, err
	}
	// The residual verify runs at every probeEvery-th point on that point's
	// matrix and full solution; both are prepared untimed, so the pass
	// times Pattern.ResidualInf alone.
	const probeEvery = 16 // the program's default residual-probe stride
	var probeVals, probeX [][]complex128
	b[idx[0]] = 1
	for k := 0; k < len(grid); k += probeEvery {
		vals.Begin()
		sys.StampAC(vals, nil, omega(k), op)
		if err := nm.Refactor(vals.Values()); err != nil {
			return ks, err
		}
		if err := nm.SolveInto(x, b); err != nil {
			return ks, err
		}
		probeVals = append(probeVals, append([]complex128(nil), vals.Values()...))
		probeX = append(probeX, append([]complex128(nil), x...))
	}
	tResidual, err := timePass(func() error {
		for p := range probeVals {
			if _, err := pat.ResidualInf(probeVals[p], probeX[p], b, r); err != nil {
				return err
			}
		}
		return nil
	})
	b[idx[0]] = 0
	if err != nil {
		return ks, err
	}
	ks.sparseStampNS = float64(tSparseStamp) / pts
	ks.refactorNS = float64(tRefactor-tSparseStamp) / pts
	ks.diagNS = float64(tDiag-tRefactor) / nodePts
	ks.residualNS = float64(tResidual) / float64(len(probeVals))
	ks.analyzeUS = float64(tAnalyze) / float64(time.Microsecond)
	ks.fill = float64(sym.FillIn())
	ks.rowsVisited = float64(plan.RowsPerSolve()) / float64(plan.RowsFull())
	def := analysis.DefaultOptions()
	ks.sparseShipped = n > def.SparseThreshold

	// Fidelity: each replica path against the program's diagonal sweep
	// forced onto the same path.
	for _, c := range []struct {
		mode analysis.MatrixMode
		got  [][]complex128
	}{{analysis.MatrixDense, zd}, {analysis.MatrixSparse, zs}} {
		sim := analysis.New(sys)
		sim.Opt.Matrix = c.mode
		want, err := sim.ImpedanceDiagSweep(ctx, grid, op, idx)
		if err != nil {
			return ks, err
		}
		for i := range want {
			for k := range want[i] {
				if d := cmplx.Abs(c.got[i][k] - want[i][k]); d > 1e-12*cmplx.Abs(want[i][k]) {
					return ks, fmt.Errorf("kernel replica Z_kk differs from ImpedanceDiagSweep (matrix mode %d) at node %d, %g Hz: relative %.3g",
						c.mode, idx[i], grid[k], d/cmplx.Abs(want[i][k]))
				}
			}
		}
	}
	return ks, nil
}

// kernelMetrics averages the kernel replicas of a pass (one per family of
// the first pool cycle, so the mix matches the workload's).
func kernelMetrics(kss []kernelStats, m map[string]float64) {
	mean := func(f func(kernelStats) float64) float64 {
		s := 0.0
		for _, k := range kss {
			s += f(k)
		}
		return s / float64(len(kss))
	}
	m["mna.stamp_ac_ns_per_point"] = mean(func(k kernelStats) float64 {
		if k.sparseShipped {
			return k.sparseStampNS
		}
		return k.stampNS
	})
	m["linalg.factor_ns_per_point"] = mean(func(k kernelStats) float64 { return k.factorNS })
	m["linalg.solve_ns_per_node_point"] = mean(func(k kernelStats) float64 { return k.solveNS })
	m["sparse.analyze_us"] = mean(func(k kernelStats) float64 { return k.analyzeUS })
	m["sparse.refactor_ns_per_point"] = mean(func(k kernelStats) float64 { return k.refactorNS })
	m["sparse.solve_diag_ns_per_node_point"] = mean(func(k kernelStats) float64 { return k.diagNS })
	m["sparse.residual_ns_per_probe"] = mean(func(k kernelStats) float64 { return k.residualNS })
	m["sparse.fill_nnz"] = mean(func(k kernelStats) float64 { return k.fill })
	m["sparse.rows_visited_ratio"] = mean(func(k kernelStats) float64 { return k.rowsVisited })
}
