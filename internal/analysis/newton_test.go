package analysis

import (
	"context"
	"math"
	"runtime"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/linalg"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/obs"
)

// dcStamp is the plain-Newton assembler OP starts with.
func dcStamp(s *Sim) assembleFn {
	return func(a mna.RealAdder, b []float64, x []float64) {
		s.Sys.StampDC(a, b, x, mna.DCOptions{Gmin: s.Opt.Gmin, SrcScale: 1})
	}
}

// nodesetGuess is OP's initial guess: zeros overridden by .nodeset hints.
func nodesetGuess(s *Sim) []float64 {
	x0 := make([]float64, s.Sys.NumUnknowns())
	for node, v := range s.Sys.Ckt.NodeSet {
		if idx, ok := s.Sys.NodeOf(node); ok && idx >= 0 {
			x0[idx] = v
		}
	}
	return x0
}

// refRun is one reference Newton run: its result, its iteration count,
// and its longest run of damped iterations whose undamped step grew.
type refRun struct {
	x      []float64
	iters  int
	streak int
	err    error
}

// refNewtonRun is Sim.newton as it was before the divergence exit and the
// shared workspace: a fresh matrix, factorization and solution vector
// every iteration, and no exit before MaxIter. It records the growth
// streak Sim.newton stops on, without stopping.
func refNewtonRun(s *Sim, assemble assembleFn, x0 []float64) refRun {
	n, nn := s.Sys.NumUnknowns(), s.Sys.NumNodes()
	x := append([]float64(nil), x0...)
	r := refRun{}
	prevdv, growing := 0.0, 0
	for r.iters < s.Opt.MaxIter {
		r.iters++
		a := linalg.NewMatrix(n)
		b := make([]float64, n)
		assemble(a, b, x)
		f, err := linalg.Factor(a)
		if err != nil {
			r.err = err
			return r
		}
		xn, err := f.Solve(b)
		if err != nil {
			r.err = err
			return r
		}
		maxdv := 0.0
		for i := 0; i < nn; i++ {
			maxdv = math.Max(maxdv, math.Abs(xn[i]-x[i]))
		}
		if s.Opt.MaxStepV > 0 && maxdv > s.Opt.MaxStepV {
			if prevdv > 0 && maxdv > prevdv {
				growing++
				r.streak = max(r.streak, growing)
			} else {
				growing = 0
			}
			prevdv = maxdv
			k := s.Opt.MaxStepV / maxdv
			for i := range xn {
				xn[i] = x[i] + k*(xn[i]-x[i])
			}
		} else {
			prevdv, growing = 0, 0
		}
		converged := true
		for i := range xn {
			tol := s.Opt.AbsTol
			if i < nn {
				tol = s.Opt.VnTol
			}
			if math.Abs(xn[i]-x[i]) > tol+s.Opt.RelTol*math.Max(math.Abs(xn[i]), math.Abs(x[i])) {
				converged = false
				break
			}
		}
		x = xn
		if converged {
			r.x = x
			return r
		}
	}
	r.err = ErrNoConvergence
	return r
}

// refNewton is refNewtonRun on OP's plain-Newton assembler, failing the
// test if it does not converge.
func refNewton(t *testing.T, s *Sim, x0 []float64) (x []float64, iters int) {
	t.Helper()
	r := refNewtonRun(s, dcStamp(s), x0)
	if r.err != nil {
		t.Fatalf("reference Newton: %v", r.err)
	}
	return r.x, r.iters
}

// TestNewtonAllocationsFlat: one Newton run, workspace included, allocates
// the same whatever its iteration count (every iteration stamps and
// factors in the workspace's LU storage), and reusing that storage
// changes no arithmetic — the OP and its iteration count match a Newton
// that factors afresh every iteration, bit for bit.
func TestNewtonAllocationsFlat(t *testing.T) {
	nonlin := compile(t, circuits.TransistorBias())
	c := netlist.NewCircuit("linear divider")
	c.AddVDC("V1", "a", "0", 1)
	c.AddR("R1", "a", "b", 1e3)
	c.AddR("R2", "b", "0", 2e3)
	c.AddR("R3", "b", "c", 1e3)
	c.AddR("R4", "c", "0", 1e3)
	lin := compile(t, c)

	allocs := func(s *Sim) (float64, int64) {
		x0 := nodesetGuess(s)
		run := obs.StartRun("newton-allocs")
		s.Trace = run
		if _, err := s.newton(context.Background(), newNewtonWork(len(x0)), dcStamp(s), x0); err != nil {
			t.Fatal(err)
		}
		s.Trace = nil
		run.Finish()
		iters := run.Trace().Counters["newton_iterations"]
		return testing.AllocsPerRun(20, func() {
			if _, err := s.newton(context.Background(), newNewtonWork(len(x0)), dcStamp(s), x0); err != nil {
				t.Fatal(err)
			}
		}), iters
	}
	nlAllocs, nlIters := allocs(nonlin)
	linAllocs, linIters := allocs(lin)
	if nlIters <= linIters {
		t.Fatalf("bias cell took %d Newton iterations, linear divider %d: want more on the nonlinear circuit", nlIters, linIters)
	}
	if nlAllocs != linAllocs {
		t.Errorf("allocations scale with iterations: %v allocs over %d iterations vs %v over %d",
			nlAllocs, nlIters, linAllocs, linIters)
	}

	s := compile(t, circuits.TransistorBias())
	run := obs.StartRun("newton-op")
	s.Trace = run
	op := mustOP(t, s)
	run.Finish()
	wantX, wantIters := refNewton(t, compile(t, circuits.TransistorBias()), nodesetGuess(s))
	if got := run.Trace().Counters["newton_iterations"]; got != int64(wantIters) {
		t.Errorf("newton_iterations = %d, reference Newton took %d", got, wantIters)
	}
	for i := range wantX {
		if math.Float64bits(op.X[i]) != math.Float64bits(wantX[i]) {
			t.Errorf("op.X[%d] = %v, reference Newton gives %v", i, op.X[i], wantX[i])
		}
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates, over runs calls after a warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestOPAllocsFlat: an operating point pays for one Newton workspace
// however many Newton runs it makes. The transistor op-amp's OP runs 14
// (the failed plain attempt, 12 gmin stages, the final solve) yet
// allocates no more bytes than the linear Table 2 circuit's single run.
func TestOPAllocsFlat(t *testing.T) {
	opamp := compile(t, circuits.TransistorOpAmp())
	table2 := compile(t, circuits.FullCircuit())
	bytes := func(s *Sim) uint64 {
		return allocBytesPerRun(20, func() { mustOP(t, s) })
	}
	ob, tb := bytes(opamp), bytes(table2)
	t.Logf("OP bytes: transistor op-amp %d, Table 2 %d", ob, tb)
	if ob > tb {
		t.Errorf("transistor op-amp OP allocates %d B, linear Table 2 OP %d B: want no more", ob, tb)
	}
}

// TestTranAllocsFlat: a transient run allocates the same whatever its
// step count. Every timestep's Newton run shares the run's one
// workspace, and a nonlinear circuit's per-step re-linearization refills
// the same operating point and capacitance list. Recording is thinned to
// the first and last point so the stored waveform does not grow either.
func TestTranAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"rlc-tank", circuits.SecondOrder(0.3, 1e6)},
		{"transistor-opamp", circuits.TransistorOpAmp()},
	} {
		s := compile(t, tc.ckt)
		allocs := func(steps int) float64 {
			spec := TranSpec{TStop: float64(steps) * 1e-9, TStep: 1e-9, RecordEvery: math.MaxInt32}
			return testing.AllocsPerRun(5, func() {
				if _, err := s.Tran(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(20), allocs(200)
		if short != long {
			t.Errorf("%s: transient allocations grow with steps: %v over 20 steps, %v over 200", tc.name, short, long)
		}
	}
}
