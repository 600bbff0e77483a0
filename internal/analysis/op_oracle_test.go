package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/obs"
)

// refOP is Sim.OP's homotopy ladder run on refNewtonRun: plain Newton from
// the nodeset guess, then gmin stepping 1e-2 → 1e-13 with a final
// unshunted solve, then source stepping in 5% steps from the guess scaled
// to the first step's 5% supply. It returns the operating point's
// solution and every Newton run it made, in order.
func refOP(s *Sim) ([]float64, []refRun, error) {
	x0 := nodesetGuess(s)
	return refOPFrom(s, x0, scaled(x0, 0.05))
}

// scaled returns k·x.
func scaled(x []float64, k float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = k * v
	}
	return out
}

// refOPFrom is refOP with the plain and gmin stages starting from x0 and
// source stepping from xsrc.
func refOPFrom(s *Sim, x0, xsrc []float64) ([]float64, []refRun, error) {
	stamp := func(gshunt, srcScale float64) assembleFn {
		return func(a mna.RealAdder, b []float64, x []float64) {
			s.Sys.StampDC(a, b, x, mna.DCOptions{Gmin: s.Opt.Gmin, SrcScale: srcScale, GminToGround: gshunt})
		}
	}
	var runs []refRun
	newton := func(asm assembleFn, x []float64) refRun {
		r := refNewtonRun(s, asm, x)
		runs = append(runs, r)
		return r
	}
	if r := newton(stamp(0, 1), x0); r.err == nil {
		return r.x, runs, nil
	}
	x, ok := x0, true
	for g := 1e-2; g >= 1e-13; g /= 10 {
		r := newton(stamp(g, 1), x)
		if r.err != nil {
			ok = false
			break
		}
		x = r.x
	}
	if ok {
		if r := newton(stamp(0, 1), x); r.err == nil {
			return r.x, runs, nil
		}
	}
	x = xsrc
	for scale := 0.05; ; scale += 0.05 {
		if scale > 1 {
			scale = 1
		}
		r := newton(stamp(0, scale), x)
		if r.err != nil {
			return nil, runs, fmt.Errorf("source stepping failed at scale %.2f: %w", scale, r.err)
		}
		x = r.x
		if scale == 1 {
			return x, runs, nil
		}
	}
}

// perturbed returns a flattened copy of c with every passive and
// controlled-source value and every MOSFET width scaled by an independent
// factor in [0.95, 1.05], the per-element spread the benchmark's pools use.
func perturbed(t *testing.T, c *netlist.Circuit, rng *rand.Rand) *netlist.Circuit {
	t.Helper()
	flat, err := netlist.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	scale := func() float64 { return 1 + 0.05*(2*rng.Float64()-1) }
	for _, e := range flat.Elems {
		switch e.Type {
		case netlist.Resistor, netlist.Capacitor, netlist.Inductor, netlist.VCCS, netlist.VCVS:
			e.Value *= scale()
		case netlist.MOSFET:
			if w, ok := e.Params["w"]; ok {
				e.Params["w"] = w * scale()
			}
		}
	}
	return flat
}

// TestOPMatchesReference: the divergence exit and the shared in-place
// workspace change no bit of any operating point. Sim.OP's solution
// matches refOP's on every circuits builder and on 20 seeded ±5% variants
// of the transistor op-amp, and the exit would not have cut short any
// Newton run the reference saw converge.
func TestOPMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"second-order", circuits.SecondOrder(0.3, 1e6)},
		{"opamp-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"opamp-open-loop", circuits.OpAmpOpenLoop(circuits.OpAmpDefaults())},
		{"bias", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"table2", circuits.FullCircuit()},
		{"rc-ladder", circuits.RCLadder(8)},
		{"resonator-field", circuits.ResonatorField(4, 1e5, 0.35)},
		{"transistor-opamp", circuits.TransistorOpAmp()},
		{"transistor-bias", circuits.TransistorBias()},
		{"snubbed-bias", circuits.SnubbedBias(1e3, 10e-12)},
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		cases = append(cases, struct {
			name string
			ckt  *netlist.Circuit
		}{fmt.Sprintf("transistor-opamp-variant-%02d", i), perturbed(t, circuits.TransistorOpAmp(), rng)})
	}
	for _, tc := range cases {
		wantX, runs, err := refOP(compile(t, tc.ckt))
		if err != nil {
			t.Fatalf("%s: reference OP: %v", tc.name, err)
		}
		for k, r := range runs {
			if r.err == nil && r.streak >= divergeRun {
				t.Errorf("%s: reference Newton run %d converged after %d growing damped steps in a row; the exit at %d would have stopped it",
					tc.name, k, r.streak, divergeRun)
			}
		}
		op := mustOP(t, compile(t, tc.ckt))
		for i := range wantX {
			if math.Float64bits(op.X[i]) != math.Float64bits(wantX[i]) {
				t.Errorf("%s: op.X[%d] = %v, reference OP gives %v", tc.name, i, op.X[i], wantX[i])
			}
		}
	}
}

// TestOpAmpPlainNewtonFailsFast: the transistor op-amp's plain Newton
// attempt, which the reference runs to MaxIter, now gives up as diverging
// within 10 iterations and hands over to gmin stepping.
func TestOpAmpPlainNewtonFailsFast(t *testing.T) {
	s := compile(t, circuits.TransistorOpAmp())
	x0 := nodesetGuess(s)
	if r := refNewtonRun(s, dcStamp(s), x0); r.err == nil || r.iters != s.Opt.MaxIter {
		t.Fatalf("reference plain Newton: %d iterations, err %v; want a failure at MaxIter %d", r.iters, r.err, s.Opt.MaxIter)
	}
	run := obs.StartRun("opamp-plain-newton")
	s.Trace = run
	_, err := s.newton(context.Background(), newNewtonWork(len(x0)), dcStamp(s), x0)
	s.Trace = nil
	run.Finish()
	if !errors.Is(err, ErrNoConvergence) || !strings.Contains(err.Error(), "diverging") {
		t.Fatalf("plain Newton error = %v, want ErrNoConvergence marked diverging", err)
	}
	if iters := run.Trace().Counters["newton_iterations"]; iters > 10 {
		t.Errorf("plain Newton took %d iterations to give up, want <= 10", iters)
	}
}

// TestSourceSteppingScalesNodeset: the .nodeset hints are voltages at the
// full supply, and source stepping's first step runs at 5% of it, so that
// step starts from the hints scaled by 0.05. TransistorBias at 85 °C,
// whose first step failed from the full hints, now solves to the
// operating point it reaches with no nodeset at all, to 6 digits. The
// plain and gmin stages still start from the unscaled hints: the deck
// each of them solves gives the bits of the reference ladder started
// from the unscaled hints, and not those of one whose every stage starts
// from the scaled hints.
func TestSourceSteppingScalesNodeset(t *testing.T) {
	hot := func() *netlist.Circuit {
		c := circuits.TransistorBias()
		c.Temp = 85
		return c
	}
	s := compile(t, hot())
	op := mustOP(t, s)
	free := hot()
	clear(free.NodeSet)
	sf := compile(t, free)
	ref := mustOP(t, sf)
	for _, node := range []string{"x", "nb", "out"} {
		got, want := v(t, s, op, node), v(t, sf, ref, node)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("85 C bias: v(%s) = %.7g from the nodeset, %.7g without it", node, got, want)
		}
	}

	for _, tc := range []struct {
		name  string
		ckt   *netlist.Circuit
		stage string
	}{
		{"transistor-bias", circuits.TransistorBias(), "plain"},
		{"transistor-opamp", circuits.TransistorOpAmp(), "gmin"},
	} {
		s := compile(t, tc.ckt)
		want, runs, err := refOP(s)
		if err != nil {
			t.Fatalf("%s: reference OP: %v", tc.name, err)
		}
		stage := "source"
		switch {
		case len(runs) == 1:
			stage = "plain"
		case len(runs) <= 14 && runs[len(runs)-1].err == nil:
			stage = "gmin"
		}
		if stage != tc.stage {
			t.Fatalf("%s: solved by the %s stage after %d Newton runs, want the %s stage", tc.name, stage, len(runs), tc.stage)
		}
		sameBits := func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		}
		if !sameBits(mustOP(t, s).X, want) {
			t.Errorf("%s: OP differs from the reference %s stage started from the unscaled nodeset", tc.name, tc.stage)
		}
		xs := scaled(nodesetGuess(s), 0.05)
		if other, _, err := refOPFrom(s, xs, xs); err == nil && sameBits(other, want) {
			t.Errorf("%s: the %s stage gives the same bits from the scaled nodeset; the check cannot tell the starts apart", tc.name, tc.stage)
		}
	}
}
