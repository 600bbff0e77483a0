package analysis

import (
	"context"
	"math"
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

// refNewton is Sim.newton with a fresh factorization and a fresh solution
// vector every iteration, the form that reused its storage for nothing.
func refNewton(t *testing.T, s *Sim, x0 []float64) (x []float64, iters int) {
	t.Helper()
	n, nn := s.Sys.NumUnknowns(), s.Sys.NumNodes()
	x = append([]float64(nil), x0...)
	assemble := dcStamp(s)
	for iters < s.Opt.MaxIter {
		iters++
		a := linalg.NewMatrix(n)
		b := make([]float64, n)
		assemble(a, b, x)
		f, err := linalg.Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		xn, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		maxdv := 0.0
		for i := 0; i < nn; i++ {
			maxdv = math.Max(maxdv, math.Abs(xn[i]-x[i]))
		}
		if s.Opt.MaxStepV > 0 && maxdv > s.Opt.MaxStepV {
			k := s.Opt.MaxStepV / maxdv
			for i := range xn {
				xn[i] = x[i] + k*(xn[i]-x[i])
			}
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
			return x, iters
		}
	}
	t.Fatal("reference Newton did not converge")
	return nil, 0
}

// TestNewtonAllocationsFlat: one Newton run allocates the same whatever
// its iteration count (one LU and two solution buffers per run), and
// reusing that storage changes no arithmetic — the OP and its iteration
// count match a Newton that factors afresh every iteration, bit for bit.
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
		if _, err := s.newton(context.Background(), dcStamp(s), x0); err != nil {
			t.Fatal(err)
		}
		s.Trace = nil
		run.Finish()
		iters := run.Trace().Counters["newton_iterations"]
		return testing.AllocsPerRun(20, func() {
			if _, err := s.newton(context.Background(), dcStamp(s), x0); err != nil {
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
