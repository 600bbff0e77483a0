package analysis

import (
	"context"
	"errors"
	"fmt"

	"acstab/internal/acerr"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/wave"
)

// DCSweepResult holds a DC source sweep.
type DCSweepResult struct {
	sys  *mna.System
	Vals []float64
	X    [][]float64
}

// NodeWave returns a node voltage versus the swept value.
func (r *DCSweepResult) NodeWave(node string) (*wave.Wave, error) {
	idx, ok := r.sys.NodeOf(node)
	if !ok {
		return nil, fmt.Errorf("analysis: %w %q", acerr.ErrUnknownNode, node)
	}
	y := make([]float64, len(r.Vals))
	for k := range r.Vals {
		if idx >= 0 {
			y[k] = r.X[k][idx]
		}
	}
	return wave.NewReal("v("+node+")", append([]float64(nil), r.Vals...), y), nil
}

// DCSweep sweeps the DC value of the named independent source, solving the
// operating point at each step with warm starting. The circuit is restored
// afterwards.
func (s *Sim) DCSweep(ctx context.Context, src string, vals []float64) (*DCSweepResult, error) {
	e := s.Sys.Ckt.Element(src)
	if e == nil || (e.Type != netlist.VSource && e.Type != netlist.ISource) {
		return nil, fmt.Errorf("analysis: %q is not an independent source", src)
	}
	if e.Src == nil {
		e.Src = &netlist.SourceSpec{}
	}
	orig := e.Src.DC
	defer func() { e.Src.DC = orig }()

	// Only the swept source's DC value changes between points, so the
	// circuit is compiled exactly once (into a private System, leaving the
	// caller's s.Sys untouched) and each point just updates the source's
	// operating value in the compiled instance tables.
	sys, err := mna.Compile(s.Sys.Ckt)
	if err != nil {
		return nil, err
	}
	sim := &Sim{Sys: sys, Opt: s.Opt, Trace: s.Trace}
	w := newNewtonWork(sys.NumUnknowns())

	res := &DCSweepResult{sys: s.Sys, Vals: append([]float64(nil), vals...)}
	var warm []float64
	for _, v := range vals {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		e.Src.DC = v
		if !sys.SetSourceDC(src, v) {
			return nil, fmt.Errorf("analysis: %q is not an independent source", src)
		}
		var op *mna.OpPoint
		if warm != nil {
			x, werr := sim.newton(ctx, w, func(a mna.RealAdder, b []float64, x []float64) {
				sys.StampDC(a, b, x, mna.DCOptions{Gmin: s.Opt.Gmin, SrcScale: 1})
			}, warm)
			switch {
			case werr == nil:
				op = sys.Linearize(x, s.Opt.Gmin)
			case errors.Is(werr, acerr.ErrCanceled):
				// A canceled context is a request to stop, not a hard
				// operating point — don't pay for a cold homotopy retry.
				return nil, werr
			}
			// Genuine non-convergence from the warm start falls through to
			// the cold solve below.
		}
		if op == nil {
			op, err = sim.op(ctx, w)
			if err != nil {
				return nil, fmt.Errorf("analysis: sweep %s=%g: %w", src, v, err)
			}
		}
		warm = op.X
		res.X = append(res.X, op.X)
	}
	return res, nil
}

// TempSweep solves the operating point across temperatures (Celsius),
// recompiling the system at each point (resistor tempco and device physics
// are temperature dependent). It returns one OpPoint per temperature along
// with the compiled system used (node indexing is identical across
// temperatures for a fixed circuit).
func TempSweep(ctx context.Context, ckt *netlist.Circuit, opt Options, temps []float64) ([]*mna.OpPoint, *mna.System, error) {
	orig := ckt.Temp
	defer func() { ckt.Temp = orig }()
	var ops []*mna.OpPoint
	var lastSys *mna.System
	for _, t := range temps {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, nil, err
		}
		ckt.Temp = t
		sys, err := mna.Compile(ckt)
		if err != nil {
			return nil, nil, err
		}
		sim := &Sim{Sys: sys, Opt: opt}
		op, err := sim.OP(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: temp sweep at %g C: %w", t, err)
		}
		ops = append(ops, op)
		lastSys = sys
	}
	return ops, lastSys, nil
}
