package acstab

import (
	"context"
	"fmt"
	"math"

	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/tool"
	"acstab/internal/wave"
)

// compile flattens and compiles the circuit for simulation.
func (c *Circuit) compile() (*analysis.Sim, error) {
	if c == nil || c.n == nil {
		return nil, fmt.Errorf("acstab: empty circuit (use NewCircuit or ParseNetlist)")
	}
	flat, err := netlist.Flatten(c.n)
	if err != nil {
		return nil, err
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		return nil, err
	}
	return analysis.New(sys), nil
}

// OperatingPoint solves the DC operating point and returns every node
// voltage by name. It can return ErrNoConvergence or ErrSingularMatrix.
func (c *Circuit) OperatingPoint() (map[string]float64, error) {
	sim, err := c.compile()
	if err != nil {
		return nil, err
	}
	op, err := sim.OP(context.Background())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, name := range sim.Sys.NodeNames {
		out[name] = op.X[i]
	}
	return out, nil
}

// ACResult exposes a completed AC sweep.
type ACResult struct {
	sim *analysis.Sim
	res *analysis.ACResult
}

// ACSweepContext runs a small-signal sweep from fstart to fstop (Hz) at
// ppd points per decade, using the circuit's AC sources as excitation.
//
// Errors: ErrNoConvergence if the operating point cannot be found,
// ErrSingularMatrix on a degenerate MNA system, and ErrCanceled once
// ctx is done (the sweep aborts between frequency points).
func (c *Circuit) ACSweepContext(ctx context.Context, fstart, fstop float64, ppd int) (*ACResult, error) {
	if fstart <= 0 || fstop <= fstart {
		return nil, fmt.Errorf("acstab: bad AC range [%g, %g]", fstart, fstop)
	}
	if ppd <= 0 {
		ppd = 40
	}
	sim, err := c.compile()
	if err != nil {
		return nil, err
	}
	op, err := sim.OP(ctx)
	if err != nil {
		return nil, err
	}
	res, err := sim.AC(ctx, num.LogGridPPD(fstart, fstop, ppd), op)
	if err != nil {
		return nil, err
	}
	return &ACResult{sim: sim, res: res}, nil
}

// GainDB returns 20*log10|v(node)| versus frequency.
func (r *ACResult) GainDB(node string) (*Waveform, error) {
	w, err := r.res.NodeWave(node)
	if err != nil {
		return nil, err
	}
	return &Waveform{w: w.DB20()}, nil
}

// PhaseDeg returns the unwrapped phase of v(node) in degrees.
func (r *ACResult) PhaseDeg(node string) (*Waveform, error) {
	w, err := r.res.NodeWave(node)
	if err != nil {
		return nil, err
	}
	return &Waveform{w: w.PhaseDeg()}, nil
}

// Magnitude returns |v(node)| versus frequency.
func (r *ACResult) Magnitude(node string) (*Waveform, error) {
	w, err := r.res.NodeWave(node)
	if err != nil {
		return nil, err
	}
	return &Waveform{w: w.Mag()}, nil
}

// Margins measures the classic "black-box" stability numbers from an AC
// sweep of an opened loop observed at node: the 0 dB crossover frequency,
// the phase margin, and the frequency where the loop phase reaches -180
// degrees. This is the traditional Fig. 3 baseline the paper compares
// against.
//
// The observed phase is referenced to its low-frequency plane (rounded to
// the nearest multiple of 180 degrees, so both inverting and non-inverting
// loop observations work); start the sweep at least a decade below the
// loop's dominant pole for the reference to be unambiguous.
func (r *ACResult) Margins(node string) (fcHz, pmDeg, f180Hz float64, err error) {
	w, err := r.res.NodeWave(node)
	if err != nil {
		return 0, 0, 0, err
	}
	gain := w.DB20()
	phase := w.PhaseDeg()
	cross := gain.Cross(0)
	if len(cross) == 0 {
		return 0, 0, 0, fmt.Errorf("acstab: gain never crosses 0 dB at %q", node)
	}
	fcHz = cross[0]
	ref := 180 * math.Round(phase.At(phase.X[0])/180)
	pmDeg = 180 + (phase.At(fcHz) - ref)
	if c0 := phase.Cross(ref - 180); len(c0) > 0 {
		f180Hz = c0[0]
	}
	return fcHz, pmDeg, f180Hz, nil
}

// TranResult exposes a completed transient simulation.
type TranResult struct {
	sim *analysis.Sim
	res *analysis.TranResult
}

// TransientContext runs a fixed-step transient simulation to tstop with
// step tstep, driven by the circuit's time-dependent sources.
//
// Errors: ErrNoConvergence if a timestep's Newton solve fails,
// ErrSingularMatrix on a degenerate system, and ErrCanceled once ctx is
// done (the stepper aborts between timesteps).
func (c *Circuit) TransientContext(ctx context.Context, tstop, tstep float64) (*TranResult, error) {
	sim, err := c.compile()
	if err != nil {
		return nil, err
	}
	res, err := sim.Tran(ctx, analysis.TranSpec{TStop: tstop, TStep: tstep})
	if err != nil {
		return nil, err
	}
	return &TranResult{sim: sim, res: res}, nil
}

// Node returns v(node) versus time.
func (r *TranResult) Node(node string) (*Waveform, error) {
	w, err := r.res.NodeWave(node)
	if err != nil {
		return nil, err
	}
	return &Waveform{w: w}, nil
}

// OvershootPct measures the percent step-response overshoot at a node.
func (r *TranResult) OvershootPct(node string) (float64, error) {
	w, err := r.res.NodeWave(node)
	if err != nil {
		return 0, err
	}
	return w.OvershootPct(), nil
}

// Calc evaluates a waveform-calculator expression (e.g. "db20(v(out))",
// "overshoot(v(out))", "cross(phase(v(out)), 0)") against an AC sweep.
func (r *ACResult) Calc(expr string) (float64, *Waveform, error) {
	env := wave.EnvFunc(func(kind, name string) (*wave.Wave, error) {
		switch kind {
		case "v":
			return r.res.NodeWave(name)
		case "i":
			return r.res.BranchWave(name)
		}
		return nil, fmt.Errorf("acstab: unknown access %q", kind)
	})
	v, err := wave.Eval(expr, env)
	if err != nil {
		return 0, nil, err
	}
	if v.IsWave {
		return 0, &Waveform{w: v.Wave}, nil
	}
	return v.Scalar, nil, nil
}

// Calc evaluates a waveform-calculator expression against a transient run.
func (r *TranResult) Calc(expr string) (float64, *Waveform, error) {
	env := wave.EnvFunc(func(kind, name string) (*wave.Wave, error) {
		if kind == "v" {
			return r.res.NodeWave(name)
		}
		return nil, fmt.Errorf("acstab: unknown access %q", kind)
	})
	v, err := wave.Eval(expr, env)
	if err != nil {
		return 0, nil, err
	}
	if v.IsWave {
		return 0, &Waveform{w: v.Wave}, nil
	}
	return v.Scalar, nil, nil
}

// Pole is a natural frequency of the linearized circuit.
type Pole struct {
	// Real and Imag are the pole location in rad/s.
	Real, Imag float64
	// FreqHz is the natural frequency |s|/2π.
	FreqHz float64
	// Zeta is the damping ratio (1 for real poles, negative for RHP).
	Zeta float64
}

// PolesContext computes the exact natural frequencies of the circuit
// linearized at its operating point (eigenvalues of the MNA pencil),
// restricted to [minHz, maxHz]. This is classic pole-zero analysis, and
// the ground truth the stability-plot estimates are validated against
// in this repository's test suite.
//
// Errors: ErrNoConvergence if the operating point cannot be found,
// ErrSingularMatrix if the shifted pencil cannot be factored, and
// ErrCanceled once ctx is done (the dense reduction aborts between
// columns).
func (c *Circuit) PolesContext(ctx context.Context, minHz, maxHz float64) ([]Pole, error) {
	sim, err := c.compile()
	if err != nil {
		return nil, err
	}
	op, err := sim.OP(ctx)
	if err != nil {
		return nil, err
	}
	ps, err := sim.Poles(ctx, op, minHz, maxHz)
	if err != nil {
		return nil, err
	}
	out := make([]Pole, len(ps))
	for i, p := range ps {
		out[i] = Pole{Real: real(p.S), Imag: imag(p.S), FreqHz: p.FreqHz, Zeta: p.Zeta}
	}
	return out, nil
}

// LoopGain computes the rigorous loop gain through a VCCS (G element)
// via Blackman's return ratio, without opening the loop: the modern
// baseline (Spectre stb) the stability-plot method is compared with.
// It returns the crossover frequency, phase margin, and the -180 degree
// frequency, plus the |T| waveform in dB.
func (c *Circuit) LoopGain(elem string, fstart, fstop float64, ppd int) (fcHz, pmDeg, f180Hz float64, gainDB *Waveform, err error) {
	if c == nil || c.n == nil {
		return 0, 0, 0, nil, fmt.Errorf("acstab: empty circuit")
	}
	if ppd <= 0 {
		ppd = 40
	}
	tw, err := tool.LoopGainGrid(context.Background(), c.n, elem, fstart, fstop, ppd)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	fcHz, pmDeg, f180Hz, err = tool.LoopGainMargins(tw)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return fcHz, pmDeg, f180Hz, &Waveform{w: tw.DB20()}, nil
}
