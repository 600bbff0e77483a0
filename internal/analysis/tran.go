package analysis

import (
	"context"
	"fmt"
	"math"

	"acstab/internal/acerr"
	"acstab/internal/mna"
	"acstab/internal/wave"
)

// Integrator selects the transient integration method.
type Integrator int

// Integration methods.
const (
	Trapezoidal Integrator = iota
	BackwardEuler
)

// TranSpec configures a transient run.
type TranSpec struct {
	TStop  float64
	TStep  float64 // fixed time step
	Method Integrator
	// RecordEvery thins the stored waveform (1 = every step).
	RecordEvery int
}

// TranResult holds a transient simulation.
type TranResult struct {
	sys *mna.System
	T   []float64
	// X[k] is the solution vector at T[k].
	X [][]float64
}

// NodeWave returns a node's voltage versus time.
func (r *TranResult) NodeWave(node string) (*wave.Wave, error) {
	idx, ok := r.sys.NodeOf(node)
	if !ok {
		return nil, fmt.Errorf("analysis: %w %q", acerr.ErrUnknownNode, node)
	}
	y := make([]float64, len(r.T))
	for k := range r.T {
		if idx >= 0 {
			y[k] = r.X[k][idx]
		}
	}
	w := wave.NewReal("v("+node+")", append([]float64(nil), r.T...), y)
	w.XUnit = "s"
	w.YUnit = "V"
	return w, nil
}

// capState tracks one companion capacitor between steps.
type capState struct {
	entry mna.CapEntry
	vPrev float64
	iPrev float64
}

// Tran runs a fixed-step transient analysis. The initial condition is the
// operating point of the circuit with every transient source held at its
// t=0 value. Device capacitances are linearized at each accepted timestep
// (quasi-static charge model; documented in DESIGN.md). A canceled ctx
// aborts between timesteps (and between Newton iterations within a step).
func (s *Sim) Tran(ctx context.Context, spec TranSpec) (*TranResult, error) {
	if spec.TStep <= 0 || spec.TStop <= 0 {
		return nil, fmt.Errorf("analysis: transient needs positive TStep and TStop")
	}
	if spec.RecordEvery <= 0 {
		spec.RecordEvery = 1
	}
	sys := s.Sys
	// Initial solution at t=0 with transient source values.
	assembleAt := func(t float64) assembleFn {
		return func(a mna.RealAdder, b []float64, x []float64) {
			sys.StampDC(a, b, x, mna.DCOptions{Gmin: s.Opt.Gmin, SrcScale: 0})
			sys.StampTranSources(b, t)
		}
	}
	// One Newton workspace serves the initial point and every timestep;
	// x is always one of its buffers, consumed before the next solve.
	w := newNewtonWork(sys.NumUnknowns())
	x0 := make([]float64, sys.NumUnknowns())
	x, err := s.newton(ctx, w, assembleAt(0), x0)
	if err != nil {
		// Fall back: use the DC OP as the starting guess.
		op, operr := s.op(ctx, w)
		if operr != nil {
			return nil, fmt.Errorf("analysis: transient initial point: %w", err)
		}
		x, err = s.newton(ctx, w, assembleAt(0), op.X)
		if err != nil {
			return nil, fmt.Errorf("analysis: transient initial point: %w", err)
		}
	}

	res := &TranResult{sys: sys}
	res.T = append(res.T, 0)
	res.X = append(res.X, append([]float64(nil), x...))

	h := spec.TStep
	// lin and capBuf are re-filled in place at every accepted step.
	lin := sys.Linearize(x, s.Opt.Gmin)
	capBuf := sys.Capacitances(nil, lin)
	caps := make([]capState, 0, len(capBuf))
	for _, ce := range capBuf {
		caps = append(caps, capState{entry: ce, vPrev: atv(x, ce.I) - atv(x, ce.J)})
	}
	inds := sys.Inductors()
	type indState struct {
		vPrev float64
		iPrev float64
	}
	ist := make([]indState, len(inds))
	for k, l := range inds {
		ist[k] = indState{vPrev: atv(x, l.I) - atv(x, l.J), iPrev: x[l.Br]}
	}

	trap := spec.Method == Trapezoidal
	steps := int(math.Ceil(spec.TStop / h))
	for n := 1; n <= steps; n++ {
		if err := acerr.Ctx(ctx); err != nil {
			return nil, err
		}
		t := float64(n) * h
		assemble := func(a mna.RealAdder, b []float64, xc []float64) {
			sys.StampDC(a, b, xc, mna.DCOptions{Gmin: s.Opt.Gmin, SrcScale: 0})
			sys.StampTranSources(b, t)
			// Capacitor companions.
			for _, cs := range caps {
				var g, ieq float64
				if trap {
					g = 2 * cs.entry.C / h
					ieq = -(g*cs.vPrev + cs.iPrev)
				} else {
					g = cs.entry.C / h
					ieq = -g * cs.vPrev
				}
				stampG2(a, cs.entry.I, cs.entry.J, g)
				// ieq flows from I to J (companion current source).
				addb(b, cs.entry.I, -ieq)
				addb(b, cs.entry.J, ieq)
			}
			// Inductor companions: StampDC stamped the short; add the
			// resistive term and history RHS.
			for k, l := range inds {
				if trap {
					req := 2 * l.L / h
					a.Add(l.Br, l.Br, -req)
					b[l.Br] += -(req*ist[k].iPrev + ist[k].vPrev)
				} else {
					req := l.L / h
					a.Add(l.Br, l.Br, -req)
					b[l.Br] += -req * ist[k].iPrev
				}
			}
		}
		xn, err := s.newton(ctx, w, assemble, x)
		if err != nil {
			return nil, fmt.Errorf("analysis: transient step at t=%g: %w", t, err)
		}
		// Update companion history.
		for i := range caps {
			cs := &caps[i]
			v := atv(xn, cs.entry.I) - atv(xn, cs.entry.J)
			if trap {
				g := 2 * cs.entry.C / h
				cs.iPrev = g*(v-cs.vPrev) - cs.iPrev
			} else {
				cs.iPrev = cs.entry.C / h * (v - cs.vPrev)
			}
			cs.vPrev = v
		}
		for k, l := range inds {
			ist[k].vPrev = atv(xn, l.I) - atv(xn, l.J)
			ist[k].iPrev = xn[l.Br]
		}
		x = xn
		// Re-linearize device capacitances at the accepted point.
		if sys.NonlinearCount() > 0 {
			lin = sys.LinearizeInto(lin, x, s.Opt.Gmin)
			capBuf = sys.Capacitances(capBuf, lin)
			if len(capBuf) == len(caps) {
				for i := range caps {
					caps[i].entry.C = capBuf[i].C
				}
			}
		}
		if n%spec.RecordEvery == 0 || n == steps {
			res.T = append(res.T, t)
			res.X = append(res.X, append([]float64(nil), x...))
		}
	}
	return res, nil
}

func atv(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

func stampG2(a mna.RealAdder, i, j int, g float64) {
	if i >= 0 {
		a.Add(i, i, g)
	}
	if j >= 0 {
		a.Add(j, j, g)
	}
	if i >= 0 && j >= 0 {
		a.Add(i, j, -g)
		a.Add(j, i, -g)
	}
}

func addb(b []float64, i int, v float64) {
	if i >= 0 {
		b[i] += v
	}
}
