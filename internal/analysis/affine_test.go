package analysis

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/sparse"
)

// sameBits reports whether two complex values are identical bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// deviceLadder is a randomized ladder mixing every AC stamp kind: series
// R, shunt C, series L into a resistor, diodes, BJTs, MOSFETs and the four
// controlled sources. Each stage draws one shunt element from that list.
// A fixed MOSFET between nodes swd and sws is biased drain-below-source by
// the operating point deviceOP builds, so its stamps swap drain and
// source.
func deviceLadder(rng *rand.Rand, stages int) *netlist.Circuit {
	c := netlist.NewCircuit("device ladder")
	c.AddV("V1", "s0", "0", netlist.SourceSpec{DC: 0.5, ACMag: 1, ACPhase: 30})
	c.AddI("I1", "s1", "0", netlist.SourceSpec{ACMag: 1e-3})
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	prev := "s0"
	for i := 1; i <= stages; i++ {
		cur := fmt.Sprintf("s%d", i)
		c.AddR(fmt.Sprintf("R%d", i), prev, cur, logU(10, 1e5))
		switch rng.Intn(8) {
		case 0:
			c.AddC(fmt.Sprintf("C%d", i), cur, "0", logU(1e-12, 1e-6))
		case 1:
			mid := fmt.Sprintf("m%d", i)
			c.AddL(fmt.Sprintf("L%d", i), cur, mid, logU(1e-9, 1e-3))
			c.AddR(fmt.Sprintf("RL%d", i), mid, "0", logU(10, 1e4))
		case 2:
			c.AddD(fmt.Sprintf("D%d", i), cur, "0", "dm")
		case 3:
			c.AddQ(fmt.Sprintf("Q%d", i), cur, prev, "0", "qn")
		case 4:
			c.AddM(fmt.Sprintf("M%d", i), cur, prev, "0", "0", "nch", 10e-6, 1e-6)
		case 5:
			c.AddE(fmt.Sprintf("E%d", i), cur, "0", prev, "0", logU(0.1, 10))
		case 6:
			c.AddG(fmt.Sprintf("G%d", i), cur, "0", prev, "0", logU(1e-6, 1e-2))
		default:
			c.AddF(fmt.Sprintf("F%d", i), cur, "0", "V1", logU(0.1, 10))
			c.AddH(fmt.Sprintf("H%d", i), fmt.Sprintf("h%d", i), "0", "V1", logU(10, 1e4))
			c.AddR(fmt.Sprintf("RH%d", i), fmt.Sprintf("h%d", i), "0", 1e3)
		}
		c.AddC(fmt.Sprintf("CS%d", i), cur, "0", logU(1e-15, 1e-12))
		prev = cur
	}
	c.AddM("MSW", "swd", prev, "sws", "0", "nch", 20e-6, 1e-6)
	c.AddR("RSWD", "swd", "0", 1e3)
	c.AddR("RSWS", "sws", "0", 1e3)
	c.SetModel("dm", "d", map[string]float64{"is": 1e-14, "cjo": 1e-12})
	c.SetModel("qn", "npn", map[string]float64{"is": 1e-15, "bf": 100, "cje": 1e-12, "cjc": 0.5e-12})
	c.SetModel("nch", "nmos", map[string]float64{"vto": 0.7, "kp": 1e-4, "cgso": 1e-10, "cgdo": 1e-10, "tox": 2e-8})
	return c
}

// deviceOP linearizes the ladder at random node voltages (every device
// region shows up across seeds) with the swap MOSFET's drain held below
// its source.
func deviceOP(t *testing.T, rng *rand.Rand, s *Sim) *mna.OpPoint {
	t.Helper()
	x := make([]float64, s.Sys.NumUnknowns())
	for i := range x {
		x[i] = -0.3 + 1.2*rng.Float64()
	}
	for node, v := range map[string]float64{"swd": 0.1, "sws": 0.6} {
		i, ok := s.Sys.NodeOf(node)
		if !ok {
			t.Fatalf("no node %s", node)
		}
		x[i] = v
	}
	return s.Sys.Linearize(x, 1e-12)
}

// affineFreqs is the grid the bitwise check runs on: the tool's default
// sweep grid, a 1 Hz .. 1 GHz sweep, and the edges ω = 0 and a very high
// frequency.
func affineFreqs() []float64 {
	f := append(num.LogGridPPD(1e3, 1e9, 40), sweepFreqs(37)...)
	return append(f, 0, 1e15)
}

// checkAffineBitwise records the stamps of (s, op) once as an Affine and
// checks, at every frequency, that its fill equals a Vals replay of
// StampAC bit for bit, and that its captured RHS equals StampAC's b.
func checkAffineBitwise(t *testing.T, s *Sim, op *mna.OpPoint) {
	t.Helper()
	n := s.Sys.NumUnknowns()
	rec := sparse.NewRecorder(n)
	s.Sys.StampAC(rec, nil, 2*math.Pi*1e3, op)
	pat := rec.Compile()
	aff := pat.NewAffine()
	aff.Begin()
	s.Sys.StampAC(aff, aff.RHS(), 1, op)
	if aff.Drift() {
		t.Fatal("affine pass drifted from the recorded pattern")
	}
	vals := pat.NewVals()
	got := make([]complex128, pat.NNZ())
	b := make([]complex128, n)
	for _, f := range affineFreqs() {
		omega := 2 * math.Pi * f
		vals.Begin()
		clear(b)
		s.Sys.StampAC(vals, b, omega, op)
		if vals.Drift() {
			t.Fatalf("f=%g Hz: replay drifted", f)
		}
		aff.FillInto(got, omega)
		for slot, want := range vals.Values() {
			if !sameBits(got[slot], want) {
				t.Fatalf("f=%g Hz slot %d: affine fill %v, replay %v", f, slot, got[slot], want)
			}
		}
		for i, want := range b {
			if !sameBits(aff.RHS()[i], want) {
				t.Fatalf("f=%g Hz rhs[%d]: captured %v, StampAC %v", f, i, aff.RHS()[i], want)
			}
		}
	}
}

// TestAffineFillBitwiseSeedCircuits: on every paper circuit at its
// operating point, the once-per-sweep affine fill is the per-point stamp
// replay bit for bit.
func TestAffineFillBitwiseSeedCircuits(t *testing.T) {
	for _, tc := range []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"tank", circuits.SecondOrder(0.3, 1e6)},
		{"fig4-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"bias-cell", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"table2-full", circuits.FullCircuit()},
		{"transistor-opamp", circuits.TransistorOpAmp()},
		{"field-32", circuits.ResonatorField(32, 1e6, 0.25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := compile(t, tc.ckt)
			checkAffineBitwise(t, s, mustOP(t, s))
		})
	}
}

// TestAffineFillBitwiseDeviceLadders: the same bitwise check on random
// ladders carrying L, diode, BJT, MOSFET (one with drain and source
// swapped at the operating point) and controlled-source stamps.
func TestAffineFillBitwiseDeviceLadders(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 12; trial++ {
		s := compile(t, deviceLadder(rng, 4+rng.Intn(20)))
		checkAffineBitwise(t, s, deviceOP(t, rng, s))
	}
}

// TestAffineAdoptedFromSymbolicBuild: the sweep that builds the shared
// symbolic analysis adopts the build's affine recording — no second stamp
// pass — and its analysis values are that recording's fill.
func TestAffineAdoptedFromSymbolicBuild(t *testing.T) {
	s := compile(t, circuits.OpAmpBuffer(circuits.OpAmpDefaults()))
	op := mustOP(t, s)
	omega := 2 * math.Pi * 1e3
	fz := s.newACFactorizer(omega, op)
	defer fz.flush()
	if fz.sym == nil || fz.ws == nil || fz.aff != fz.ws.aff {
		t.Fatal("first sweep did not adopt the build's affine recording")
	}
	want := make([]complex128, fz.pat.NNZ())
	fz.aff.FillInto(want, omega)
	for slot, v := range fz.vals.Values() {
		if !sameBits(v, want[slot]) {
			t.Fatalf("slot %d: analysis value %v, affine fill %v", slot, v, want[slot])
		}
	}
}

// TestAffineDriftAtSweepStart: every sweep driver starting under a pattern
// recorded from a different stamp stream finds the drift on its one
// sweep-start stamp pass — one ac_pattern_drift, no refactorization, the
// first point tagged pattern_drift — and still completes on full
// factorizations with results within 1e-9 of dense.
func TestAffineDriftAtSweepStart(t *testing.T) {
	// obs.MaxSlowPoints frequencies, so the slow-point capture keeps every
	// point's solver-path tag.
	freqs := sweepFreqs(obs.MaxSlowPoints)
	pat, sym := driftSymbolic(t, 2*math.Pi*freqs[0])

	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		sweep func(s *Sim, op *mna.OpPoint, idx []int) ([][]complex128, error)
	}{
		{"diag", func(s *Sim, op *mna.OpPoint, idx []int) ([][]complex128, error) {
			return s.ImpedanceDiagSweep(ctx, freqs, op, idx)
		}},
		{"columns", func(s *Sim, op *mna.OpPoint, idx []int) ([][]complex128, error) {
			return s.ImpedanceMatrixColumns(ctx, freqs, op, idx)
		}},
		{"ac", func(s *Sim, op *mna.OpPoint, idx []int) ([][]complex128, error) {
			res, err := s.AC(ctx, freqs, op)
			if err != nil {
				return nil, err
			}
			out := make([][]complex128, len(idx))
			for i, node := range idx {
				for k := range freqs {
					out[i] = append(out[i], res.Sol[k][node])
				}
			}
			return out, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := compile(t, driftLadder(false))
			op := mustOP(t, s)
			s.Opt.Matrix = MatrixSparse
			installSymbolic(s, pat, sym)
			run := obs.StartRun("affine-drift")
			s.Trace = run
			idx := allNodeIdx(s)
			got, err := tc.sweep(s, op, idx)
			if err != nil {
				t.Fatal(err)
			}
			run.Finish()
			tr := run.Trace()
			if d := tr.Counters["ac_pattern_drift"]; d != 1 {
				t.Errorf("ac_pattern_drift = %d, want 1", d)
			}
			if r := tr.Counters["ac_refactorizations"]; r != 0 {
				t.Errorf("ac_refactorizations = %d, want 0 after drift at sweep start", r)
			}
			if _, warm := s.ACChecksum(); warm {
				t.Error("drift left the stale shared analysis in place")
			}
			var tagged bool
			for _, p := range tr.SlowPoints {
				if p.Detail == solveKindPatternDrift {
					tagged = p.FreqHz == freqs[0]
				}
			}
			if !tagged {
				t.Errorf("no pattern_drift slow point at the first frequency: %+v", tr.SlowPoints)
			}

			dense := New(s.Sys)
			dense.Opt.Matrix = MatrixDense
			want, err := tc.sweep(dense, op, idx)
			if err != nil {
				t.Fatal(err)
			}
			for i := range idx {
				for k := range freqs {
					mag := math.Max(cmplx.Abs(want[i][k]), 1e-12)
					if d := cmplx.Abs(want[i][k] - got[i][k]); d > 1e-9*mag {
						t.Fatalf("node %d f=%g Hz: |d| = %g vs |z| = %g", i, freqs[k], d, mag)
					}
				}
			}
		})
	}
}
