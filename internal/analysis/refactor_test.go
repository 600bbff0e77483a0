package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"acstab/internal/acerr"
	"acstab/internal/circuits"
	"acstab/internal/netlist"
)

// randomLadder builds a randomized RC/RLC ladder of n stages driven by an
// AC voltage source. Component values are log-uniform over realistic
// ranges; each stage flips a coin for an extra series inductor, which adds
// branch unknowns and exercises the non-node rows of the MNA system.
func randomLadder(rng *rand.Rand, stages int) *netlist.Circuit {
	c := netlist.NewCircuit("random ladder")
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	prev := "s0"
	for i := 1; i <= stages; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, logU(10, 1e5))
		if rng.Intn(2) == 0 {
			mid := fmt.Sprintf("m%d", i)
			c.AddL(fmt.Sprintf("L%d", i), cur, mid, logU(1e-9, 1e-3))
			c.AddR(fmt.Sprintf("RL%d", i), mid, "0", logU(10, 1e4))
		}
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", logU(1e-12, 1e-6))
		prev = cur
	}
	return c
}

// sweepFreqs is a multi-decade log sweep, long enough that the sparse
// path settles into the refactor-only steady state.
func sweepFreqs(points int) []float64 {
	f := make([]float64, points)
	for i := range f {
		f[i] = math.Pow(10, float64(i)*9/float64(points-1)) // 1 Hz .. 1 GHz
	}
	return f
}

// TestACSparseDenseProperty: on randomized RC/RLC ladders the sparse
// two-phase path and the dense path must agree within 1e-9 relative
// tolerance for every unknown at every frequency of a multi-decade sweep.
// Auto mode takes the sparse path at every size under the shipped
// defaults, so it must match forced sparse on small and large ladders
// alike.
func TestACSparseDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	freqs := sweepFreqs(40)
	for trial := 0; trial < 6; trial++ {
		// Alternate small and large ladders: auto mode must agree with
		// the dense oracle on both sides of the old 64-unknown cutover.
		stages := 4 + rng.Intn(8)
		if trial%2 == 1 {
			stages = 40 + rng.Intn(20)
		}
		s := compile(t, randomLadder(rng, stages))
		op := mustOP(t, s)
		n := s.Sys.NumUnknowns()

		run := func(mode MatrixMode) *ACResult {
			t.Helper()
			s.Opt.Matrix = mode
			r, err := s.AC(context.Background(), freqs, op)
			if err != nil {
				t.Fatalf("trial %d (n=%d) mode %d: %v", trial, n, mode, err)
			}
			return r
		}
		rd := run(MatrixDense)
		rs := run(MatrixSparse)
		ra := run(MatrixAuto)

		for k := range freqs {
			// Scale-relative comparison: each unknown against the largest
			// solution component at this frequency, which keeps the check
			// meaningful when a deep-ladder node underflows.
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
				if d := cmplx.Abs(rd.Sol[k][i] - rs.Sol[k][i]); d > 1e-9*scale {
					t.Fatalf("trial %d (n=%d) f=%g Hz unknown %d: sparse/dense differ by %g (scale %g)",
						trial, n, freqs[k], i, d, scale)
				}
				if d := cmplx.Abs(rd.Sol[k][i] - ra.Sol[k][i]); d > 1e-9*scale {
					t.Fatalf("trial %d (n=%d) f=%g Hz unknown %d: auto deviates by %g",
						trial, n, freqs[k], i, d)
				}
			}
		}
	}
}

// TestImpedanceSparseDenseProperty runs the same agreement check on the
// shared-factorization impedance path, which is the loop the symbolic /
// numeric split actually accelerates.
func TestImpedanceSparseDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	freqs := sweepFreqs(30)
	for trial := 0; trial < 4; trial++ {
		stages := 10 + rng.Intn(30)
		s := compile(t, randomLadder(rng, stages))
		op := mustOP(t, s)
		idx := make([]int, s.Sys.NumNodes())
		for i := range idx {
			idx[i] = i
		}
		s.Opt.Matrix = MatrixDense
		zd, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		s.Opt.Matrix = MatrixSparse
		zs, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range idx {
			for k := range freqs {
				mag := cmplx.Abs(zd[i][k])
				if d := cmplx.Abs(zd[i][k] - zs[i][k]); d > 1e-9*math.Max(mag, 1e-12) {
					t.Fatalf("trial %d node %d f=%g Hz: |dz| = %g vs |z| = %g",
						trial, i, freqs[k], d, mag)
				}
			}
		}
	}
}

// TestSymbolicBuildValsAdopted: the value array a symbolic build stamps
// the analysis frequency into becomes the sweep's workspace array instead
// of garbage — it still holds that stamp when the factorizer hands it out.
func TestSymbolicBuildValsAdopted(t *testing.T) {
	s := compile(t, circuits.OpAmpBuffer(circuits.OpAmpDefaults()))
	op := mustOP(t, s)
	omega := 2 * math.Pi * 1e3
	fz := s.newACFactorizer(omega, op)
	defer fz.flush()
	if fz.sym == nil || fz.ws == nil || fz.vals != fz.ws.vals {
		t.Fatal("first sweep did not build the symbolic analysis into the Sim workspace")
	}
	want := fz.pat.NewVals()
	want.Begin()
	s.Sys.StampAC(want, nil, omega, op)
	if !slices.Equal(fz.vals.Values(), want.Values()) {
		t.Error("workspace values are not the analysis stamp: the build's Vals was discarded")
	}
}

// TestPinACAnalysis: a pinned Sim analyzes at its pinned frequency
// whatever sweep reaches the cache first, forks inherit the pin, a Sim
// pinned elsewhere rebuilds, and an unpinned Sim reuses whatever is
// cached.
func TestPinACAnalysis(t *testing.T) {
	s := compile(t, circuits.FullCircuit())
	op := mustOP(t, s)
	pin := 1e3
	s.PinACAnalysis(pin)
	builds := func(sim *Sim, f0 float64) int64 {
		t.Helper()
		before := mACSymbolicBuilds.Value()
		if _, err := sim.ImpedanceDiagSweep(context.Background(), []float64{f0, 2 * f0}, op, []int{0}); err != nil {
			t.Fatal(err)
		}
		return mACSymbolicBuilds.Value() - before
	}
	if b := builds(s.Fork(), 5e5); b != 1 {
		t.Fatalf("cold pinned sweep: %d builds, want 1", b)
	}
	if om := s.acShared().omega; om != 2*math.Pi*pin {
		t.Fatalf("analysis ran at omega %g, want %g (the pinned frequency)", om, 2*math.Pi*pin)
	}
	if b := builds(s, 7e6); b != 0 {
		t.Errorf("same pin, other grid: %d builds, want 0", b)
	}
	other := s.Fork()
	other.PinACAnalysis(1e4)
	if b := builds(other, 1e4); b != 1 {
		t.Errorf("other pin: %d builds, want 1", b)
	}
	unpinned := New(s.Sys)
	unpinned.ac = s.acShared()
	if b := builds(unpinned, 3e3); b != 0 {
		t.Errorf("unpinned sweep: %d builds, want 0 (reuse)", b)
	}
}

// TestImpedanceSteadyStateAllocs: the per-frequency loop of the sparse
// impedance sweep must not allocate — growing the sweep from 8 to 64
// frequencies may not add allocations beyond a small fixed slack (result
// rows grow in size, not in count).
func TestImpedanceSteadyStateAllocs(t *testing.T) {
	c := netlist.NewCircuit("alloc ladder")
	c.AddV("V1", "s0", "0", netlist.SourceSpec{ACMag: 1})
	prev := "s0"
	for i := 1; i <= 40; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, 1e3)
		c.AddC(fmt.Sprintf("C%d", i), cur, "0", 1e-12)
		prev = cur
	}
	s := compile(t, c)
	s.Opt.Matrix = MatrixSparse
	op := mustOP(t, s)
	idx := []int{0, 5, 10}

	// Prime the Sim-level symbolic cache so both measurements see the
	// steady state.
	if _, err := s.ImpedanceMatrixColumns(context.Background(), sweepFreqs(8), op, idx); err != nil {
		t.Fatal(err)
	}
	measure := func(points int) float64 {
		freqs := sweepFreqs(points)
		return testing.AllocsPerRun(10, func() {
			if _, err := s.ImpedanceMatrixColumns(context.Background(), freqs, op, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(8), measure(64)
	if large > small+8 {
		t.Errorf("allocations scale with sweep length: %v at 8 freqs vs %v at 64 freqs", small, large)
	}
}

// TestDCSweepCanceled: a canceled context aborts the sweep with the
// cancellation sentinel instead of burning a full cold homotopy per point.
func TestDCSweepCanceled(t *testing.T) {
	c := netlist.NewCircuit("cancel sweep")
	c.AddVDC("V1", "a", "0", 1)
	c.AddR("R1", "a", "b", 1e3)
	c.AddR("R2", "b", "0", 1e3)
	s := compile(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.DCSweep(ctx, "V1", []float64{1, 2, 3})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, acerr.ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
}

// TestDCSweepCurrentSource: the compile-once path must update isrc
// instances too, not just voltage sources.
func TestDCSweepCurrentSource(t *testing.T) {
	c := netlist.NewCircuit("i sweep")
	c.AddI("I1", "0", "a", netlist.SourceSpec{DC: 1e-3})
	c.AddR("R1", "a", "0", 1e3)
	s := compile(t, c)
	vals := []float64{1e-3, 2e-3, 5e-3}
	res, err := s.DCSweep(context.Background(), "I1", vals)
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.NodeWave("a")
	if err != nil {
		t.Fatal(err)
	}
	for k, iv := range vals {
		want := iv * 1e3
		if math.Abs(real(w.Y[k])-want) > 1e-9 {
			t.Errorf("step %d: v(a) = %g, want %g", k, real(w.Y[k]), want)
		}
	}
}
