package device

import "math"

// DiodeParams are the model parameters of a junction diode.
type DiodeParams struct {
	IS  float64 // saturation current (A)
	N   float64 // emission coefficient
	CJO float64 // zero-bias junction capacitance (F)
	VJ  float64 // built-in potential (V)
	M   float64 // grading coefficient
	TT  float64 // transit time (s)
	FC  float64 // forward-bias depletion-cap coefficient
	XTI float64 // IS temperature exponent
	EG  float64 // bandgap (eV)
	// Area is the instance area multiplier.
	Area float64
}

// DefaultDiode returns SPICE-default diode parameters.
func DefaultDiode() DiodeParams {
	return DiodeParams{IS: 1e-14, N: 1, VJ: 1, M: 0.5, FC: 0.5, XTI: 3, EG: 1.11, Area: 1}
}

// DiodeOP is the evaluated state of a diode at a candidate bias.
type DiodeOP struct {
	Id float64 // anode->cathode current
	Gd float64 // dId/dVd
	Cd float64 // small-signal capacitance (depletion + diffusion)
}

// ISAtTemp scales a saturation current from TNomC to tempC with the
// standard SPICE temperature law.
func ISAtTemp(is, n, xti, eg, tempC float64) float64 {
	t := CelsiusToKelvin(tempC)
	tnom := CelsiusToKelvin(TNomC)
	vt := BoltzmannK * t / ChargeQ
	ratio := t / tnom
	return is * math.Pow(ratio, xti/n) * math.Exp(eg/(n*vt)*(ratio-1))
}

// Eval evaluates the diode at junction voltage vd and temperature tempC.
// A small conductance gmin is added for convergence robustness.
func (p DiodeParams) Eval(vd, tempC, gmin float64) DiodeOP {
	vt := p.N * Vt(tempC)
	is := ISAtTemp(p.IS, p.N, p.XTI, p.EG, tempC) * p.Area
	e, de := expLim(vd / vt)
	id := is * (e - 1)
	gd := is * de / vt
	op := DiodeOP{
		Id: id + gmin*vd,
		Gd: gd + gmin,
	}
	op.Cd = JunctionCap(p.CJO*p.Area, p.VJ, p.M, p.FC, vd) + p.TT*gd
	return op
}
