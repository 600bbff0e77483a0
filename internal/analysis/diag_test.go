package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"acstab/internal/acerr"
	"acstab/internal/circuits"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/sparse"
)

// allNodeIdx returns every node unknown index of the system.
func allNodeIdx(s *Sim) []int {
	idx := make([]int, s.Sys.NumNodes())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestImpedanceDiagSweepProperty: on randomized RC/RLC ladders the
// reach-restricted diagonal kernel, the full shared-factorization sweep,
// and the dense solver must agree on every Z_kk to 1e-9 scale-relative
// across a multi-decade sweep; the kernel counters must show the diag path
// actually ran with zero fallbacks.
func TestImpedanceDiagSweepProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	freqs := sweepFreqs(30)
	for trial := 0; trial < 4; trial++ {
		stages := 10 + rng.Intn(30)
		s := compile(t, randomLadder(rng, stages))
		op := mustOP(t, s)
		idx := allNodeIdx(s)

		s.Opt.Matrix = MatrixDense
		zd, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		// Dense mode delegates wholesale — same shape, same numbers.
		zdd, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		s.Opt.Matrix = MatrixSparse
		zf, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		solves0, falls0 := mACDiagSolves.Value(), mACDiagFallbacks.Value()
		zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		if d := mACDiagSolves.Value() - solves0; d != int64(len(freqs)) {
			t.Errorf("trial %d: diag solves delta = %d, want %d", trial, d, len(freqs))
		}
		if d := mACDiagFallbacks.Value() - falls0; d != 0 {
			t.Errorf("trial %d: diag fallbacks delta = %d, want 0", trial, d)
		}
		for i := range idx {
			for k := range freqs {
				mag := math.Max(cmplx.Abs(zd[i][k]), 1e-12)
				for _, got := range []struct {
					name string
					z    complex128
				}{{"dense-diag", zdd[i][k]}, {"sparse-full", zf[i][k]}, {"sparse-diag", zg[i][k]}} {
					if d := cmplx.Abs(zd[i][k] - got.z); d > 1e-9*mag {
						t.Fatalf("trial %d node %d f=%g Hz %s: |dz| = %g vs |z| = %g",
							trial, i, freqs[k], got.name, d, mag)
					}
				}
			}
		}
	}
}

// TestDefaultPathSparseEquivalence: under DefaultOptions every paper
// circuit, from the 2-unknown tank to the 64-unknown resonator field,
// sweeps on the sparse two-phase path — one symbolic build, then pivot-free
// refactorizations — and its driving-point diagonal matches the
// forced-dense oracle to the same 1e-9 scale-relative tolerance as
// TestImpedanceDiagSweepProperty.
func TestDefaultPathSparseEquivalence(t *testing.T) {
	freqs := sweepFreqs(40)
	for _, tc := range []struct {
		name string
		ckt  *netlist.Circuit
		n    int // MNA unknowns; 0 = not pinned
	}{
		{"tank", circuits.SecondOrder(0.3, 1e6), 2},
		{"fig4-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults()), 7},
		{"bias-cell", circuits.BiasCircuit(circuits.BiasDefaults()), 10},
		{"table2-full", circuits.FullCircuit(), 17},
		{"transistor-opamp", circuits.TransistorOpAmp(), 0},
		{"field-32", circuits.ResonatorField(32, 1e6, 0.25), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := compile(t, tc.ckt)
			if n := s.Sys.NumUnknowns(); tc.n != 0 && n != tc.n {
				t.Fatalf("%d unknowns, want %d", n, tc.n)
			}
			op := mustOP(t, s)
			idx := allNodeIdx(s)
			s.Trace = obs.StartRun("default-path")
			z, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
			if err != nil {
				t.Fatal(err)
			}
			c := s.Trace.Trace().Counters
			if c["ac_refactorizations"] == 0 || c["ac_symbolic_builds"] != 1 {
				t.Errorf("default path: ac_refactorizations=%d ac_symbolic_builds=%d, want >0 and 1",
					c["ac_refactorizations"], c["ac_symbolic_builds"])
			}
			oracle := New(s.Sys)
			oracle.Opt.Matrix = MatrixDense
			zd, err := oracle.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
			if err != nil {
				t.Fatal(err)
			}
			for i := range idx {
				for k := range freqs {
					mag := math.Max(cmplx.Abs(zd[i][k]), 1e-12)
					if d := cmplx.Abs(zd[i][k] - z[i][k]); d > 1e-9*mag {
						t.Fatalf("node %d f=%g Hz: |dz| = %g vs |z| = %g", i, freqs[k], d, mag)
					}
				}
			}
		})
	}
}

// fallbackIslandCircuit builds a ladder plus a two-node island (zq, zp)
// tied together by a structurally present but numerically negligible
// capacitor. The island registers first so column zq is eliminated while
// row zp is still live — the shape a doctored pivot order needs.
func fallbackIslandCircuit(stages int) *netlist.Circuit {
	c := netlist.NewCircuit("fallback island")
	c.AddR("RQ", "zq", "0", 1e3)
	c.AddR("RP", "zp", "0", 1e3)
	c.AddC("CP", "zp", "0", 1e-12)
	c.AddC("CZ", "zp", "zq", 1e-30)
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	prev := "s0"
	for i := 1; i <= stages; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, 1e3)
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", 1e-12)
		prev = cur
	}
	return c
}

// installSymbolic swaps a prebuilt pattern+symbolic into the Sim-shared AC
// cache, the hook the forcing tests use to start a sweep under a doctored
// or stale analysis.
func installSymbolic(s *Sim, pat *sparse.Pattern, sym *sparse.Symbolic) {
	sh := s.acShared()
	sh.mu.Lock()
	sh.pat, sh.sym = pat, sym
	sh.diagSym, sh.diagPlans = nil, nil
	sh.mu.Unlock()
}

// TestImpedanceDiagRefactorFallback forces every frequency of a diag sweep
// onto the refactor-fallback path: the symbolic analysis is built from
// doctored values that pivot column zq on the (zp, zq) entry, which in the
// real matrix is a ~1e-30 capacitor — each Refactor hits the collapsed-
// pivot guard, falls back to a full factorization, and the diag sweep must
// run the full per-node substitutions for that point. Results must still
// match the dense solver to 1e-9.
func TestImpedanceDiagRefactorFallback(t *testing.T) {
	freqs := sweepFreqs(12)
	s := compile(t, fallbackIslandCircuit(8))
	op := mustOP(t, s)
	sys := s.Sys
	n := sys.NumUnknowns()
	omega0 := 2 * math.Pi * freqs[0]
	rec := sparse.NewRecorder(n)
	sys.StampAC(rec, nil, omega0, op)
	pat := rec.Compile()
	v := pat.NewVals()
	v.Begin()
	sys.StampAC(v, nil, omega0, op)
	if v.Drift() {
		t.Fatal("non-deterministic stamp")
	}
	pIdx, ok := sys.NodeOf("zp")
	if !ok {
		t.Fatal("no zp node")
	}
	qIdx, ok := sys.NodeOf("zq")
	if !ok {
		t.Fatal("no zq node")
	}
	slot := pat.SlotOf(pIdx, qIdx)
	if slot < 0 {
		t.Fatalf("no (zp, zq) entry in the pattern")
	}
	doctored := append([]complex128(nil), v.Values()...)
	doctored[slot] = 1e6 // analyze-time pivot bait, ~0 in the real matrix
	sym, err := pat.Analyze(doctored)
	if err != nil {
		t.Fatal(err)
	}
	s.Opt.Matrix = MatrixSparse
	installSymbolic(s, pat, sym)

	idx := allNodeIdx(s)
	solves0, falls0 := mACDiagSolves.Value(), mACDiagFallbacks.Value()
	zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACDiagFallbacks.Value() - falls0; d != int64(len(freqs)) {
		t.Errorf("diag fallbacks delta = %d, want %d (every frequency collapsed)", d, len(freqs))
	}
	if d := mACDiagSolves.Value() - solves0; d != 0 {
		t.Errorf("diag solves delta = %d, want 0 under forced fallback", d)
	}

	s2 := compile(t, fallbackIslandCircuit(8))
	s2.Opt.Matrix = MatrixDense
	zd, err := s2.ImpedanceMatrixColumns(context.Background(), freqs, mustOP(t, s2), idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		for k := range freqs {
			mag := math.Max(cmplx.Abs(zd[i][k]), 1e-12)
			if d := cmplx.Abs(zd[i][k] - zg[i][k]); d > 1e-9*mag {
				t.Fatalf("node %d f=%g Hz: fallback path |dz| = %g vs |z| = %g",
					i, freqs[k], d, mag)
			}
		}
	}
}

// TestRefactorFallbackAtOnePoint runs each sparse sweep entry under a
// doctored pivot order whose column-zq pivot is the admittance jωC of a
// 1 fF island capacitor. That pivot clears the refill's collapsed-pivot
// guard at every frequency of the sweep but the lowest, where it falls
// below 1e-12 of its row: exactly one point falls back to a fresh
// factorization. That point must carry the refactor_fallback tag, and
// every point must agree with the forced-dense oracle to 1e-9. In the diag
// sweep this catches the shared reach plan being applied to the
// fallback's own factorization, whose pivot order it does not describe.
func TestRefactorFallbackAtOnePoint(t *testing.T) {
	ctx := context.Background()
	freqs := []float64{0.01, 1e7, 1e8, 1e9}
	island := func() *Sim {
		c := fallbackIslandCircuit(8)
		c.AddC("CZ2", "zp", "zq", 1e-15)
		return compile(t, c)
	}
	// columns turns an AC result into the per-unknown rows the impedance
	// sweeps return.
	columns := func(r *ACResult) [][]complex128 {
		out := make([][]complex128, len(r.Sol[0]))
		for i := range out {
			out[i] = make([]complex128, len(r.Sol))
			for k := range r.Sol {
				out[i][k] = r.Sol[k][i]
			}
		}
		return out
	}
	oracle := island()
	oracle.Opt.Matrix = MatrixDense
	opD := mustOP(t, oracle)
	idx := allNodeIdx(oracle)
	wantZ, err := oracle.ImpedanceMatrixColumns(ctx, freqs, opD, idx)
	if err != nil {
		t.Fatal(err)
	}
	wantAC, err := oracle.AC(ctx, freqs, opD)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		want [][]complex128
		run  func(s *Sim) ([][]complex128, error)
	}{
		{"ImpedanceDiagSweep", wantZ, func(s *Sim) ([][]complex128, error) {
			return s.ImpedanceDiagSweep(ctx, freqs, mustOP(t, s), idx)
		}},
		{"ImpedanceMatrixColumns", wantZ, func(s *Sim) ([][]complex128, error) {
			return s.ImpedanceMatrixColumns(ctx, freqs, mustOP(t, s), idx)
		}},
		{"AC", columns(wantAC), func(s *Sim) ([][]complex128, error) {
			r, err := s.AC(ctx, freqs, mustOP(t, s))
			if err != nil {
				return nil, err
			}
			return columns(r), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := island()
			s.Opt.Matrix = MatrixSparse
			pat, sym := marginalPivotSymbolic(t, s, 2*math.Pi*freqs[len(freqs)-1])
			installSymbolic(s, pat, sym)
			run := obs.StartRun("fallback-one-point")
			s.Trace = run
			falls0 := mACRefactorFallbacks.Value()
			got, err := tc.run(s)
			run.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if d := mACRefactorFallbacks.Value() - falls0; d != 1 {
				t.Errorf("refactor fallbacks = %d, want 1 (only %g Hz collapses)", d, freqs[0])
			}
			tagged := false
			for _, p := range run.Trace().SlowPoints {
				if p.FreqHz == freqs[0] && p.Detail != "residual" {
					tagged = true
					if p.Detail != solveKindRefactorFallback {
						t.Errorf("%g Hz solver path = %q, want %q", freqs[0], p.Detail, solveKindRefactorFallback)
					}
				}
			}
			if !tagged {
				t.Errorf("no slow point captured at %g Hz", freqs[0])
			}
			for k := range freqs {
				scale := 0.0
				for i := range tc.want {
					scale = math.Max(scale, cmplx.Abs(tc.want[i][k]))
				}
				for i := range tc.want {
					if d := cmplx.Abs(got[i][k] - tc.want[i][k]); d > 1e-9*scale {
						t.Fatalf("row %d f=%g Hz: |d| = %g vs scale %g", i, freqs[k], d, scale)
					}
				}
			}
		})
	}
}

// driftLadder builds the deterministic ladder the pattern-drift test uses;
// withExtra adds one more resistor between existing nodes, which changes
// the stamp stream but not the node set.
func driftLadder(withExtra bool) *netlist.Circuit {
	c := netlist.NewCircuit("drift ladder")
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	prev := "s0"
	for i := 1; i <= 10; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, 1e3)
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", 1e-12)
		prev = cur
	}
	if withExtra {
		c.AddR("RX", "s2", "s5", 1e4)
	}
	return c
}

// driftSymbolic returns the pattern and symbolic analysis of
// driftLadder(true), analyzed at omega0: installed on a driftLadder(false)
// Sim, its checksum no longer matches that Sim's stamp stream.
func driftSymbolic(t *testing.T, omega0 float64) (*sparse.Pattern, *sparse.Symbolic) {
	t.Helper()
	other := compile(t, driftLadder(true))
	opOther := mustOP(t, other)
	rec := sparse.NewRecorder(other.Sys.NumUnknowns())
	other.Sys.StampAC(rec, nil, omega0, opOther)
	pat := rec.Compile()
	v := pat.NewVals()
	v.Begin()
	other.Sys.StampAC(v, nil, omega0, opOther)
	sym, err := pat.Analyze(v.Values())
	if err != nil {
		t.Fatal(err)
	}
	return pat, sym
}

// TestImpedanceDiagPatternDrift forces the pattern-drift path: the sweep
// starts under a symbolic analysis recorded from a different stamp stream
// (same node set, one extra element), so the first stamped frequency
// trips the drift checksum, invalidates the cache, and the whole sweep
// runs full factorizations — every point a diag fallback, results still
// agreeing with dense.
func TestImpedanceDiagPatternDrift(t *testing.T) {
	freqs := sweepFreqs(10)
	s := compile(t, driftLadder(false))
	op := mustOP(t, s)
	pat, sym := driftSymbolic(t, 2*math.Pi*freqs[0])
	if pat.N() != s.Sys.NumUnknowns() {
		t.Fatal("drift fixture changed the unknown count")
	}
	s.Opt.Matrix = MatrixSparse
	installSymbolic(s, pat, sym)

	idx := allNodeIdx(s)
	drift0, falls0 := mACPatternDrift.Value(), mACDiagFallbacks.Value()
	zg, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := mACPatternDrift.Value() - drift0; d != 1 {
		t.Errorf("pattern drift delta = %d, want 1", d)
	}
	if d := mACDiagFallbacks.Value() - falls0; d != int64(len(freqs)) {
		t.Errorf("diag fallbacks delta = %d, want %d (drift runs out the sweep on full factorizations)", d, len(freqs))
	}

	s.Opt.Matrix = MatrixDense
	zd, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		for k := range freqs {
			mag := math.Max(cmplx.Abs(zd[i][k]), 1e-12)
			if d := cmplx.Abs(zd[i][k] - zg[i][k]); d > 1e-9*mag {
				t.Fatalf("node %d f=%g Hz: drift path |dz| = %g vs |z| = %g",
					i, freqs[k], d, mag)
			}
		}
	}
}

// TestImpedanceDiagSweepSteadyStateAllocs: after the symbolic analysis and
// reach plan exist, the per-frequency loop of the diag sweep must not
// allocate — growing the sweep 8x may not add allocations beyond a small
// fixed slack (result rows grow in size, not count).
func TestImpedanceDiagSweepSteadyStateAllocs(t *testing.T) {
	s := compile(t, driftLadder(false))
	s.Opt.Matrix = MatrixSparse
	op := mustOP(t, s)
	idx := allNodeIdx(s)
	if _, err := s.ImpedanceDiagSweep(context.Background(), sweepFreqs(8), op, idx); err != nil {
		t.Fatal(err)
	}
	measure := func(points int) float64 {
		freqs := sweepFreqs(points)
		return testing.AllocsPerRun(10, func() {
			if _, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(8), measure(64)
	if large > small+8 {
		t.Errorf("allocations scale with sweep length: %v at 8 freqs vs %v at 64 freqs", small, large)
	}
}

// TestSweepScratchCarriesNoState: a sweep that wins the shared workspace
// reuses the scratch the sweep before it left there. An impedance sweep
// right after an AC sweep, which leaves the circuit's own excitation in
// the right-hand side, on the same Sim or a fork of it, gives the bits of
// one on a fresh Sim.
func TestSweepScratchCarriesNoState(t *testing.T) {
	ctx := context.Background()
	s := compile(t, circuits.FullCircuit()) // its AC source is not zeroed
	op := mustOP(t, s)
	idx := allNodeIdx(s)
	freqs := sweepFreqs(40)
	fresh := New(s.Sys)
	wantDiag, err := fresh.ImpedanceDiagSweep(ctx, freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	wantCols, err := fresh.ImpedanceMatrixColumns(ctx, freqs, op, idx)
	if err != nil {
		t.Fatal(err)
	}
	same := func(name string, got, want [][]complex128) {
		t.Helper()
		for i := range want {
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("%s: node %d at %g Hz = %v, want %v", name, i, freqs[k], got[i][k], want[i][k])
				}
			}
		}
	}
	for _, sim := range []*Sim{s, s.Fork()} {
		if _, err := s.AC(ctx, freqs, op); err != nil {
			t.Fatal(err)
		}
		got, err := sim.ImpedanceDiagSweep(ctx, freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		same("diag sweep after AC", got, wantDiag)
		if _, err := s.AC(ctx, freqs, op); err != nil {
			t.Fatal(err)
		}
		if got, err = sim.ImpedanceMatrixColumns(ctx, freqs, op, idx); err != nil {
			t.Fatal(err)
		}
		same("column sweep after AC", got, wantCols)
	}
}

// TestImpedanceDiagTrace: a traced diag sweep carries the diag_solve phase
// span, the diag counters, and slow points tagged with the "diag" solver
// path.
func TestImpedanceDiagTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := compile(t, randomLadder(rng, 25))
	s.Opt.Matrix = MatrixSparse
	op := mustOP(t, s)
	freqs := sweepFreqs(20)
	run := obs.StartRun("diag-trace")
	s.Trace = run
	if _, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, allNodeIdx(s)); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	tr := run.Trace()
	var sawPhase bool
	for _, p := range tr.Phases {
		if p.Phase == "diag_solve" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Error("no diag_solve phase span in the trace")
	}
	if got := tr.Counters["ac_diag_solves"]; got != int64(len(freqs)) {
		t.Errorf("trace ac_diag_solves = %d, want %d", got, len(freqs))
	}
	if tr.Counters["ac_diag_rows_visited"] <= 0 {
		t.Error("trace ac_diag_rows_visited missing")
	}
	if len(tr.SlowPoints) == 0 {
		t.Fatal("no slow points captured")
	}
	for i, p := range tr.SlowPoints {
		if p.Detail != solveKindDiag {
			t.Errorf("slow[%d] solver path = %q, want %q", i, p.Detail, solveKindDiag)
		}
	}
}

// TestImpedanceSweepsNoNodes: an impedance sweep over no nodes returns no
// rows on every path. The diag kernel's residual probe used to read the
// first node unconditionally and panicked on the refactor path.
func TestImpedanceSweepsNoNodes(t *testing.T) {
	s := compile(t, driftLadder(false))
	op := mustOP(t, s)
	for _, m := range []MatrixMode{MatrixSparse, MatrixDense} {
		s.Opt.Matrix = m
		for name, sweep := range map[string]func(context.Context, []float64, *mna.OpPoint, []int) ([][]complex128, error){
			"ImpedanceDiagSweep": s.ImpedanceDiagSweep, "ImpedanceMatrixColumns": s.ImpedanceMatrixColumns,
		} {
			z, err := sweep(context.Background(), sweepFreqs(20), op, nil)
			if err != nil || len(z) != 0 {
				t.Errorf("mode %d %s: %d rows, err %v; want none, nil", m, name, len(z), err)
			}
		}
	}
}

// TestDiagPairCollapseFallback: the diag sweep refills neighbouring grid
// points in pairs, and a pair whose refill collapses runs both its points
// on their own. Under the one-point-fallback island's doctored pivot
// order, the collapsing point sits in the first lane of a pair, in the
// second, and at the odd tail point. Every point's values must equal the
// full substitutions of ImpedanceMatrixColumns (== lets a zero's sign
// differ), and the counters and slow-point tags must be those of one
// fallback among refactored diag points: exactly what a sweep refilling
// one point at a time reports.
func TestDiagPairCollapseFallback(t *testing.T) {
	ctx := context.Background()
	island := func() *Sim {
		c := fallbackIslandCircuit(8)
		c.AddC("CZ2", "zp", "zq", 1e-15)
		s := compile(t, c)
		s.Opt.Matrix = MatrixSparse
		pat, sym := marginalPivotSymbolic(t, s, 2*math.Pi*1e9)
		installSymbolic(s, pat, sym)
		return s
	}
	for _, tc := range []struct {
		name     string
		freqs    []float64
		collapse int
	}{
		{"first lane", []float64{0.01, 1e7, 1e8, 1e9}, 0},
		{"second lane", []float64{1e7, 0.01, 1e8, 1e9}, 1},
		{"tail", []float64{1e7, 1e8, 1e9, 2e9, 0.01}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := island()
			idx := allNodeIdx(ref)
			want, err := ref.ImpedanceMatrixColumns(ctx, tc.freqs, mustOP(t, ref), idx)
			if err != nil {
				t.Fatal(err)
			}
			s := island()
			op := mustOP(t, s)
			run := obs.StartRun("pair-collapse")
			s.Trace = run
			got, err := s.ImpedanceDiagSweep(ctx, tc.freqs, op, idx)
			run.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for i := range idx {
				for k := range tc.freqs {
					if got[i][k] != want[i][k] {
						t.Fatalf("node %d at %g Hz: diag sweep %v, full substitution %v", i, tc.freqs[k], got[i][k], want[i][k])
					}
				}
			}
			// Point 0 runs the sampled residual probe and the fallback point
			// its own residual check; both are one point in the first case.
			n, checked := int64(len(tc.freqs)), int64(2)
			if tc.collapse == 0 {
				checked = 1
			}
			tr := run.Trace()
			for key, v := range map[string]int64{
				"ac_refactorizations":   n - 1,
				"ac_refactor_fallbacks": 1,
				"ac_factorizations":     1,
				"ac_diag_solves":        n - 1,
				"ac_diag_fallbacks":     1,
				"ac_residual_points":    checked,
				"ac_solves":             n * int64(len(idx)),
			} {
				if tr.Counters[key] != v {
					t.Errorf("%s = %d, want %d", key, tr.Counters[key], v)
				}
			}
			tags := map[float64]string{}
			for _, p := range tr.SlowPoints {
				if p.Detail != "residual" {
					tags[p.FreqHz] = p.Detail
				}
			}
			for k, f := range tc.freqs {
				want := solveKindDiag
				if k == tc.collapse {
					want = solveKindRefactorFallback
				}
				if tags[f] != want {
					t.Errorf("%g Hz solver path = %q, want %q", f, tags[f], want)
				}
			}
		})
	}
}

// TestDiagPairNonFiniteLane: a point whose driving-point impedance
// overflows fails the sweep with its own frequency in the error, whether
// it is the first or the second point of its pair. Node t hangs on a
// 1e-306 F capacitor alone: its admittance is finite and passes the
// refill's guard at every frequency, but below about 1e-3 Hz its
// reciprocal overflows.
func TestDiagPairNonFiniteLane(t *testing.T) {
	c := netlist.NewCircuit("overflowing node")
	c.AddC("CT", "t", "0", 1e-306)
	c.AddR("RA", "a", "0", 1e3)
	c.AddC("CA", "a", "0", 1e-12)
	for _, freqs := range [][]float64{{1e-6, 1e9}, {1e9, 1e-6}} {
		s := compile(t, c)
		s.Opt.Matrix = MatrixSparse
		op := s.Sys.Linearize(make([]float64, s.Sys.NumUnknowns()), s.Opt.Gmin)
		_, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, allNodeIdx(s))
		if !errors.Is(err, acerr.ErrSingularMatrix) || !strings.Contains(err.Error(), "impedance at 1e-06 Hz") {
			t.Errorf("sweep over %g Hz: error %v, want a singular-matrix error at 1e-06 Hz", freqs, err)
		}
	}
}
