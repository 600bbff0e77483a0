package analysis

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"acstab/internal/acerr"
	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/sparse"
)

// TestACResidualTelemetry: a healthy sparse sweep verifies every
// frequency point, reports residuals at noise level, observes pivot
// growth and a condition estimate, and flushes the worst points into the
// run trace tagged "residual".
func TestACResidualTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := compile(t, randomLadder(rng, 25))
	s.Opt.Matrix = MatrixSparse
	op := mustOP(t, s)
	freqs := sweepFreqs(24)
	run := obs.StartRun("numerics-telemetry")
	s.Trace = run
	if _, err := s.AC(context.Background(), freqs, op); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	tr := run.Trace()

	if got := tr.Counters["ac_residual_points"]; got != int64(len(freqs)) {
		t.Errorf("ac_residual_points = %d, want %d (every point verified)", got, len(freqs))
	}
	if got := tr.Counters["ac_residual_breaches"]; got != 0 {
		t.Errorf("ac_residual_breaches = %d on a healthy circuit, want 0", got)
	}
	resMax := tr.Stats["numerics_residual_max"]
	if resMax <= 0 || resMax > 1e-12 {
		t.Errorf("numerics_residual_max = %g, want (0, 1e-12]", resMax)
	}
	if g := tr.Stats["numerics_pivot_growth_max"]; g <= 0 {
		t.Errorf("numerics_pivot_growth_max = %g, want > 0", g)
	}
	if c := tr.Stats["numerics_cond_est_max"]; c < 1 {
		t.Errorf("numerics_cond_est_max = %g, want >= 1", c)
	}
	// The per-decade digest must account for every verified point.
	var digest int64
	for d := obs.ResidualDecadeMin; d <= obs.ResidualDecadeMax; d++ {
		digest += tr.Counters[obs.ResidualDecadeKey(d)]
	}
	if digest != int64(len(freqs)) {
		t.Errorf("decade digest sums to %d, want %d", digest, len(freqs))
	}
	if med, ok := obs.MedianResidual(tr.Counters); !ok || med <= 0 || med > 1e-10 {
		t.Errorf("median residual = %g (ok=%v), want (0, 1e-10]", med, ok)
	}
	var health int
	for _, p := range tr.SlowPoints {
		if p.Detail == "residual" {
			health++
			if p.Residual <= 0 {
				t.Errorf("health point at %g Hz has residual %g, want > 0", p.FreqHz, p.Residual)
			}
		}
	}
	if health == 0 || health > obs.MaxHealthPoints {
		t.Errorf("health points = %d, want 1..%d", health, obs.MaxHealthPoints)
	}
}

// TestACResidualDisabled: a negative threshold turns the observatory off —
// no residual counters, no stats, no health points, no error paths.
func TestACResidualDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := compile(t, randomLadder(rng, 20))
	s.Opt.Matrix = MatrixSparse
	s.Opt.ResidualThreshold = -1
	op := mustOP(t, s)
	run := obs.StartRun("numerics-off")
	s.Trace = run
	if _, err := s.AC(context.Background(), sweepFreqs(16), op); err != nil {
		t.Fatal(err)
	}
	run.Finish()
	tr := run.Trace()
	if got := tr.Counters["ac_residual_points"]; got != 0 {
		t.Errorf("ac_residual_points = %d with the observatory disabled, want 0", got)
	}
	if _, ok := tr.Stats["numerics_residual_max"]; ok {
		t.Error("numerics_residual_max stat present with the observatory disabled")
	}
}

// TestACResidualImpossibleThreshold: a threshold below what double
// precision can deliver walks the whole escalation ladder — refinement,
// refactorization — and then surfaces the typed accuracy error.
func TestACResidualImpossibleThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := compile(t, randomLadder(rng, 20))
	s.Opt.Matrix = MatrixSparse
	s.Opt.ResidualThreshold = 1e-30
	op := mustOP(t, s)
	run := obs.StartRun("numerics-impossible")
	s.Trace = run
	_, err := s.AC(context.Background(), sweepFreqs(8), op)
	run.Finish()
	if err == nil {
		t.Fatal("1e-30 threshold produced no error")
	}
	if !errors.Is(err, acerr.ErrAccuracy) {
		t.Fatalf("error %v does not wrap ErrAccuracy", err)
	}
	tr := run.Trace()
	if got := tr.Counters["ac_residual_breaches"]; got < 1 {
		t.Errorf("ac_residual_breaches = %d, want >= 1", got)
	}
	if got := tr.Counters["ac_refinements"]; got < 1 {
		t.Errorf("ac_refinements = %d, want >= 1 (the ladder must try before failing)", got)
	}
}

// marginalPivotSymbolic builds the PR 5 forcing rig with a pivot that is
// bad but not collapsed: the symbolic analysis pivots column zq on the
// (zp, zq) entry, which in the real matrix is a ~1e-18 F capacitor —
// small enough to wreck the elimination's accuracy (multipliers ~1e8),
// large enough to pass the refactor collapsed-pivot guard. Every
// frequency then breaches the residual threshold and must be repaired by
// refinement or escalation, not rejected up front.
func marginalPivotSymbolic(t *testing.T, s *Sim, omega0 float64) (*sparse.Pattern, *sparse.Symbolic) {
	t.Helper()
	op := mustOP(t, s)
	sys := s.Sys
	rec := sparse.NewRecorder(sys.NumUnknowns())
	sys.StampAC(rec, nil, omega0, op)
	pat := rec.Compile()
	v := pat.NewVals()
	v.Begin()
	sys.StampAC(v, nil, omega0, op)
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
		t.Fatal("no (zp, zq) entry in the pattern")
	}
	doctored := append([]complex128(nil), v.Values()...)
	doctored[slot] = 1e6 // analyze-time pivot bait
	sym, err := pat.Analyze(doctored)
	if err != nil {
		t.Fatal(err)
	}
	return pat, sym
}

// compileMarginalIsland compiles fallbackIslandCircuit with two changes
// that turn the collapse rig into a breach rig: the island capacitor is
// raised to 1e-21 F (its MHz admittance clears the refactor
// collapsed-pivot guard instead of tripping it, so the doctored order
// survives Refactor with pivot growth ~1e11), and the island is coupled
// into several ladder nodes so elimination through the bad pivot builds
// fill chains whose cancellation actually accumulates roundoff — a lone
// coupling cancels exactly and stays backward-stable despite the growth.
func compileMarginalIsland(t *testing.T) *Sim {
	t.Helper()
	c := fallbackIslandCircuit(8)
	c.AddC("CZ2", "zp", "zq", 1e-21)
	c.AddR("RQ2", "zq", "s2", 1e3)
	c.AddR("RQ4", "zq", "s4", 1e3)
	c.AddR("RQ6", "zq", "s6", 1e3)
	c.AddR("RP3", "zp", "s3", 1e3)
	c.AddR("RP5", "zp", "s5", 1e3)
	return compile(t, c)
}

// TestACResidualBreachRepaired forces genuine residual breaches: under
// the doctored marginal-pivot order every frequency's refactor solve is
// inaccurate (pivot growth ~1e8), the verify ladder refines and/or
// escalates to a fresh full factorization, and the sweep must complete
// with every final residual back under the threshold — no typed error.
func TestACResidualBreachRepaired(t *testing.T) {
	freqs := []float64{1e6, 2e6, 5e6, 1e7}
	s := compileMarginalIsland(t)
	op := mustOP(t, s)
	s.Opt.Matrix = MatrixSparse
	pat, sym := marginalPivotSymbolic(t, s, 2*math.Pi*freqs[0])
	installSymbolic(s, pat, sym)

	run := obs.StartRun("numerics-breach")
	s.Trace = run
	res, err := s.AC(context.Background(), freqs, op)
	run.Finish()
	if err != nil {
		t.Fatalf("breached sweep did not recover: %v", err)
	}
	tr := run.Trace()
	if got := tr.Counters["ac_residual_breaches"]; got < 1 {
		t.Fatalf("ac_residual_breaches = %d, want >= 1 (the rig failed to force a breach)", got)
	}
	if got := tr.Counters["ac_refinements"]; got < 1 {
		t.Errorf("ac_refinements = %d, want >= 1", got)
	}
	if resMax := tr.Stats["numerics_residual_max"]; resMax > defResidualThreshold {
		t.Errorf("final numerics_residual_max = %g, want <= %g (repair must restore accuracy)",
			resMax, defResidualThreshold)
	}

	// The repaired solutions must match an independent dense solve. The
	// bound is forward error, κ·η — the rig's island makes the system
	// genuinely nastier than a healthy ladder, so this is loose by design.
	s2 := compileMarginalIsland(t)
	s2.Opt.Matrix = MatrixDense
	rd, err := s2.AC(context.Background(), freqs, mustOP(t, s2))
	if err != nil {
		t.Fatal(err)
	}
	n := s.Sys.NumUnknowns()
	for k := range freqs {
		scale := 0.0
		for i := 0; i < n; i++ {
			if a := cmplx.Abs(rd.Sol[k][i]); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
		for i := 0; i < n; i++ {
			if d := cmplx.Abs(rd.Sol[k][i] - res.Sol[k][i]); d > 1e-5*scale {
				t.Fatalf("f=%g Hz unknown %d: repaired sparse deviates from dense by %g (scale %g)",
					freqs[k], i, d, scale)
			}
		}
	}
}

// TestACResidualBoundsTrueError: the textbook forward-error bound — on
// randomized RC/RLC ladders the sparse solution's true deviation from the
// dense reference must be within a modest factor of (condition estimate ×
// reported residual). The reported health numbers are only useful if they
// actually dominate the real error.
func TestACResidualBoundsTrueError(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	freqs := sweepFreqs(20)
	for trial := 0; trial < 4; trial++ {
		s := compile(t, randomLadder(rng, 12+rng.Intn(20)))
		op := mustOP(t, s)
		n := s.Sys.NumUnknowns()

		s.Opt.Matrix = MatrixSparse
		run := obs.StartRun("numerics-bound")
		s.Trace = run
		rs, err := s.AC(context.Background(), freqs, op)
		if err != nil {
			t.Fatal(err)
		}
		run.Finish()
		s.Trace = nil
		tr := run.Trace()
		resMax := tr.Stats["numerics_residual_max"]
		condMax := tr.Stats["numerics_cond_est_max"]
		if resMax <= 0 || condMax < 1 {
			t.Fatalf("trial %d: missing health stats (resMax %g, condMax %g)", trial, resMax, condMax)
		}

		s.Opt.Matrix = MatrixDense
		rd, err := s.AC(context.Background(), freqs, op)
		if err != nil {
			t.Fatal(err)
		}
		// κ is sampled, not tracked per point, so give the bound two orders
		// of slack plus a floor for the dense reference's own roundoff.
		bound := 100*condMax*resMax + 1e-11
		for k := range freqs {
			scale := 0.0
			for i := 0; i < n; i++ {
				if a := cmplx.Abs(rd.Sol[k][i]); a > scale {
					scale = a
				}
			}
			if scale == 0 {
				scale = 1
			}
			for i := 0; i < n; i++ {
				if d := cmplx.Abs(rd.Sol[k][i] - rs.Sol[k][i]); d > bound*scale {
					t.Fatalf("trial %d f=%g Hz unknown %d: true error %g exceeds health bound %g (κ %g, η %g)",
						trial, freqs[k], i, d/scale, bound, condMax, resMax)
				}
			}
		}
	}
}

// TestNumericsHistogramTally: a sweep tallies its pivot-growth and
// residual observations locally and publishes them at flush, leaving each
// histogram as if every value had been observed one at a time — one growth
// per refactorization, one residual per verified point, the same bucket
// counts as a fresh histogram fed the values in sweep order, and a sum
// within 1e-12 relative. The package's histograms are swapped for fresh
// ones for the duration, so the published values are exact rather than
// deltas against whatever earlier tests left in the process-global ones.
func TestNumericsHistogramTally(t *testing.T) {
	for _, tc := range []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"table2", circuits.FullCircuit()},
		{"field8", circuits.ResonatorField(8, 1e6, 0.25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			freqs := sweepFreqs(200)
			wantGrowth, wantRes := tallyReference(t, tc.ckt, freqs)

			defer func(g, r *obs.Histogram) { mACPivotGrowth, mACResidual = g, r }(mACPivotGrowth, mACResidual)
			gotGrowth, gotRes := obs.NewRegistry(), obs.NewRegistry()
			mACPivotGrowth = gotGrowth.HistogramBuckets("h", decadeBounds(-2, 12))
			mACResidual = gotRes.HistogramBuckets("h", decadeBounds(-18, 0))

			s := compile(t, tc.ckt)
			op := mustOP(t, s)
			run := obs.StartRun("tally")
			s.Trace = run
			if _, err := s.ImpedanceDiagSweep(context.Background(), freqs, op, allNodeIdx(s)); err != nil {
				t.Fatal(err)
			}
			run.Finish()
			ctr := run.Trace().Counters
			if ctr["ac_residual_breaches"] != 0 {
				t.Fatalf("%d residual breaches: the reference replays breach-free sweeps only", ctr["ac_residual_breaches"])
			}
			if got, want := mACPivotGrowth.Count(), ctr["ac_refactorizations"]; got != want || got == 0 {
				t.Errorf("pivot growth count = %d, ac_refactorizations = %d", got, want)
			}
			if got, want := mACResidual.Count(), ctr["ac_residual_points"]; got != want || got == 0 {
				t.Errorf("residual count = %d, ac_residual_points = %d", got, want)
			}
			sameHistogram(t, "pivot growth", gotGrowth, wantGrowth)
			sameHistogram(t, "residual", gotRes, wantRes)
		})
	}
}

// tallyReference replays ImpedanceDiagSweep's observations on a fresh
// compile of ckt, observing each value into a fresh histogram one at a
// time: the growth of every refactor-path point, and the residual of the
// first node's full solve at every probed or fallback point.
func tallyReference(t *testing.T, ckt *netlist.Circuit, freqs []float64) (growth, res *obs.Registry) {
	t.Helper()
	growth, res = obs.NewRegistry(), obs.NewRegistry()
	hg := growth.HistogramBuckets("h", decadeBounds(-2, 12))
	hr := res.HistogramBuckets("h", decadeBounds(-18, 0))
	s := compile(t, ckt)
	op := mustOP(t, s)
	fz := s.newACFactorizer(2*math.Pi*freqs[0], op)
	defer fz.flush()
	n := s.Sys.NumUnknowns()
	b, x := make([]complex128, n), make([]complex128, n)
	idx0 := allNodeIdx(s)[0]
	for k, f := range freqs {
		slv, err := fz.at(2*math.Pi*f, nil)
		if err != nil {
			t.Fatal(err)
		}
		refactor := fz.kind == solveKindRefactor
		if refactor {
			hg.Observe(fz.num.PivotGrowth())
		}
		if refactor && k%defResidualProbeEvery != 0 {
			continue
		}
		b[idx0] = 1
		if err := slv.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		eta := fz.pointResidual(x, b)
		b[idx0] = 0
		if eta > fz.resThreshold {
			t.Fatalf("residual %g above threshold at %g Hz", eta, f)
		}
		hr.Observe(eta)
	}
	return growth, res
}

// sameHistogram compares two single-histogram registries: bucket and
// count lines exactly, sums within 1e-12 relative.
func sameHistogram(t *testing.T, what string, got, want *obs.Registry) {
	t.Helper()
	lines := func(r *obs.Registry) (counts []string, sum float64) {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
			if v, ok := strings.CutPrefix(l, "h_sum "); ok {
				var err error
				if sum, err = strconv.ParseFloat(v, 64); err != nil {
					t.Fatal(err)
				}
				continue
			}
			counts = append(counts, l)
		}
		return counts, sum
	}
	gc, gs := lines(got)
	wc, ws := lines(want)
	if !slices.Equal(gc, wc) {
		t.Errorf("%s buckets differ from per-value Observe:\n got %q\nwant %q", what, gc, wc)
	}
	if math.Abs(gs-ws) > 1e-12*math.Abs(ws) {
		t.Errorf("%s sum = %v, per-value Observe gives %v", what, gs, ws)
	}
}
