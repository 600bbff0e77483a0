package device

// BJTParams are the model parameters of a bipolar transistor (Ebers-Moll
// transport formulation with Early effect).
type BJTParams struct {
	PNP  bool
	IS   float64 // transport saturation current (A)
	BF   float64 // forward beta
	BR   float64 // reverse beta
	NF   float64 // forward emission coefficient
	NR   float64 // reverse emission coefficient
	VAF  float64 // forward Early voltage (V), 0 = infinite
	CJE  float64 // B-E zero-bias depletion capacitance (F)
	VJE  float64
	MJE  float64
	CJC  float64 // B-C zero-bias depletion capacitance (F)
	VJC  float64
	MJC  float64
	TF   float64 // forward transit time (s)
	TR   float64 // reverse transit time (s)
	FC   float64
	XTI  float64
	EG   float64
	Area float64
}

// DefaultBJT returns SPICE-default npn parameters.
func DefaultBJT() BJTParams {
	return BJTParams{
		IS: 1e-16, BF: 100, BR: 1, NF: 1, NR: 1,
		VJE: 0.75, MJE: 0.33, VJC: 0.75, MJC: 0.33,
		FC: 0.5, XTI: 3, EG: 1.11, Area: 1,
	}
}

// BJTOP is the evaluated state of a BJT. Voltages and currents are in the
// NPN reference frame (the caller flips signs for PNP using Polarity).
// The Jacobian is with respect to (vbe, vbc).
type BJTOP struct {
	Ic, Ib float64 // collector and base terminal currents (into device)
	// Jacobian entries.
	DIcDVbe, DIcDVbc float64
	DIbDVbe, DIbDVbc float64
	// Small-signal capacitances.
	Cbe, Cbc float64
	// Informational small-signal parameters.
	Gm, Gpi, Go float64
}

// Polarity returns +1 for NPN, -1 for PNP; terminal voltages are
// multiplied by it before Eval and currents multiplied by it after.
func (p BJTParams) Polarity() float64 {
	if p.PNP {
		return -1
	}
	return 1
}

// Eval evaluates the transistor at junction voltages vbe, vbc (already in
// the NPN frame) and temperature tempC. gmin conductance is added across
// both junctions.
func (p BJTParams) Eval(vbe, vbc, tempC, gmin float64) BJTOP {
	vtf := p.NF * Vt(tempC)
	vtr := p.NR * Vt(tempC)
	is := ISAtTemp(p.IS, 1, p.XTI, p.EG, tempC) * p.Area

	ef, def := expLim(vbe / vtf)
	er, der := expLim(vbc / vtr)
	icc := is * (ef - 1) // forward transport current
	iec := is * (er - 1) // reverse transport current
	gif := is * def / vtf
	gir := is * der / vtr

	// Base-width modulation (Early): transport current scaled by
	// q = 1/(1 - vbc/VAF). Using the common first-order form
	// it = (icc - iec) * (1 - vbc/VAF).
	early := 1.0
	dEarlyDVbc := 0.0
	if p.VAF > 0 {
		early = 1 - vbc/p.VAF
		dEarlyDVbc = -1 / p.VAF
	}
	it := (icc - iec) * early

	ibf := icc / p.BF
	ibr := iec / p.BR

	// gmin conductances across each junction: the B-C leg carries
	// gmin*vbc from base to collector (so it leaves the device at C), and
	// the B-E leg gmin*vbe from base to emitter.
	op := BJTOP{}
	op.Ic = it - ibr - gmin*vbc
	op.Ib = ibf + ibr + gmin*vbe + gmin*vbc
	// Collector current partials.
	op.DIcDVbe = gif*early + 0
	op.DIcDVbc = -gir*early + (icc-iec)*dEarlyDVbc - gir/p.BR - gmin
	// Base current partials.
	op.DIbDVbe = gif/p.BF + gmin
	op.DIbDVbc = gir/p.BR + gmin

	// Capacitances: depletion + diffusion.
	gmF := gif * early
	op.Cbe = JunctionCap(p.CJE*p.Area, p.VJE, p.MJE, p.FC, vbe) + p.TF*gif
	op.Cbc = JunctionCap(p.CJC*p.Area, p.VJC, p.MJC, p.FC, vbc) + p.TR*gir

	// Small-signal summary (forward active convention).
	op.Gm = gmF
	op.Gpi = op.DIbDVbe
	// go = dIc/dVce at fixed vbe: vbc = vbe - vce so dIc/dVce = -dIc/dVbc.
	op.Go = -op.DIcDVbc
	return op
}
