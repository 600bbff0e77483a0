package mna

// DCOptions tunes the DC companion assembly.
type DCOptions struct {
	Gmin     float64 // junction shunt conductance
	SrcScale float64 // 0..1 scaling of independent sources (source stepping)
	// GminToGround adds Gmin from every node to ground (gmin stepping).
	GminToGround float64
}

// StampDC assembles the Newton companion system A x = b at candidate
// solution x. The caller zeroes A and b first.
func (s *System) StampDC(a RealAdder, b []float64, x []float64, opt DCOptions) {
	scale := opt.SrcScale
	for _, r := range s.res {
		add2(a, r.i, r.j, r.g)
	}
	// Capacitors are open at DC. Inductors are shorts via their branch.
	for _, l := range s.inds {
		stampShortBranch(a, l.i, l.j, l.br)
	}
	for _, v := range s.vsrc {
		stampShortBranch(a, v.i, v.j, v.br)
		b[v.br] += v.src.DC * scale
	}
	for _, c := range s.isrc {
		i := c.src.DC * scale
		addRHS(b, c.i, -i)
		addRHS(b, c.j, i)
	}
	for _, e := range s.vcvs {
		stampShortBranch(a, e.i, e.j, e.br)
		if e.ci >= 0 {
			a.Add(e.br, e.ci, -e.gain)
		}
		if e.cj >= 0 {
			a.Add(e.br, e.cj, e.gain)
		}
	}
	for _, g := range s.vccs {
		stampVCCS(a, g.i, g.j, g.ci, g.cj, g.gain)
	}
	for _, f := range s.cccs {
		if f.i >= 0 {
			a.Add(f.i, f.ctrlBr, f.gain)
		}
		if f.j >= 0 {
			a.Add(f.j, f.ctrlBr, -f.gain)
		}
	}
	for _, h := range s.ccvs {
		stampShortBranch(a, h.i, h.j, h.br)
		a.Add(h.br, h.ctrlBr, -h.gain)
	}
	temp := s.Ckt.Temp
	for _, d := range s.dios {
		vd := at(x, d.a) - at(x, d.k)
		op := d.p.Eval(vd, temp, opt.Gmin)
		add2(a, d.a, d.k, op.Gd)
		ieq := op.Id - op.Gd*vd
		addRHS(b, d.a, -ieq)
		addRHS(b, d.k, ieq)
	}
	for _, q := range s.bjts {
		s.stampBJTDC(a, b, x, q, opt.Gmin)
	}
	for _, m := range s.moss {
		s.stampMOSDC(a, b, x, m, opt.Gmin)
	}
	if opt.GminToGround > 0 {
		for i := 0; i < s.numNodes; i++ {
			a.Add(i, i, opt.GminToGround)
		}
	}
}

// stampShortBranch stamps a voltage-defined branch v(i)-v(j) = rhs with the
// branch current appearing in both node equations.
func stampShortBranch(a RealAdder, i, j, br int) {
	if i >= 0 {
		a.Add(i, br, 1)
		a.Add(br, i, 1)
	}
	if j >= 0 {
		a.Add(j, br, -1)
		a.Add(br, j, -1)
	}
}

func stampVCCS(a RealAdder, i, j, ci, cj int, gm float64) {
	if i >= 0 && ci >= 0 {
		a.Add(i, ci, gm)
	}
	if i >= 0 && cj >= 0 {
		a.Add(i, cj, -gm)
	}
	if j >= 0 && ci >= 0 {
		a.Add(j, ci, -gm)
	}
	if j >= 0 && cj >= 0 {
		a.Add(j, cj, gm)
	}
}

// stampBJTDC stamps the Newton companion of one BJT.
func (s *System) stampBJTDC(a RealAdder, b []float64, x []float64, q bjtInst, gmin float64) {
	pol := q.p.Polarity()
	vb, vc, ve := at(x, q.b), at(x, q.c), at(x, q.e)
	vbe := pol * (vb - ve)
	vbc := pol * (vb - vc)
	op := q.p.Eval(vbe, vbc, s.Ckt.Temp, gmin)

	// Currents into terminals in the external frame.
	ic := pol * op.Ic
	ib := pol * op.Ib
	ie := -(ic + ib)

	// Jacobian in the external frame: dI_ext/dV_ext. The polarity factors
	// cancel (pol^2 = 1) for voltage derivatives.
	// dIc/d(vb,vc,ve):
	gcb := op.DIcDVbe + op.DIcDVbc
	gcc := -op.DIcDVbc
	gce := -op.DIcDVbe
	// dIb/d(vb,vc,ve):
	gbb := op.DIbDVbe + op.DIbDVbc
	gbc := -op.DIbDVbc
	gbe := -op.DIbDVbe
	// dIe = -(dIc + dIb).
	geb := -(gcb + gbb)
	gec := -(gcc + gbc)
	gee := -(gce + gbe)

	terms := [3]int{q.c, q.b, q.e}
	jac := [3][3]float64{
		{gcc, gcb, gce},
		{gbc, gbb, gbe},
		{gec, geb, gee},
	}
	cur := [3]float64{ic, ib, ie}
	volt := [3]float64{vc, vb, ve}
	for t := 0; t < 3; t++ {
		if terms[t] < 0 {
			continue
		}
		ieq := cur[t]
		for u := 0; u < 3; u++ {
			if terms[u] >= 0 {
				a.Add(terms[t], terms[u], jac[t][u])
			}
			ieq -= jac[t][u] * volt[u]
		}
		b[terms[t]] -= ieq
	}
}

// stampMOSDC stamps the Newton companion of one MOSFET.
func (s *System) stampMOSDC(a RealAdder, b []float64, x []float64, m mosInst, gmin float64) {
	pol := m.p.Polarity()
	vd, vg, vs, vb := at(x, m.d), at(x, m.g), at(x, m.s), at(x, m.b)
	// Work in the NMOS frame; swap D/S when vds < 0 so Eval sees vds >= 0.
	nd, ns := m.d, m.s
	vdd, vss := vd, vs
	if pol*(vd-vs) < 0 {
		nd, ns = m.s, m.d
		vdd, vss = vs, vd
	}
	vgs := pol * (vg - vss)
	vds := pol * (vdd - vss)
	vbs := pol * (vb - vss)
	op := m.p.Eval(vgs, vds, vbs)

	// Channel current from nd to ns in the external frame.
	id := pol * op.Id
	// Companion: I(nd->ns) = Gm*vgs + Gds*vds + Gmb*vbs + Ieq.
	// Stamp as a VCCS set between nd/ns controlled by (g,ns), (nd,ns), (b,ns).
	stampVCCS(a, nd, ns, m.g, ns, op.Gm)
	stampVCCS(a, nd, ns, nd, ns, op.Gds)
	stampVCCS(a, nd, ns, m.b, ns, op.Gmb)
	// External linear current from nd to ns under the stamps above is
	// pol*(Gm*vgs + Gds*vds + Gmb*vbs); the equivalent source carries the
	// remainder of the true current.
	ieq := id - pol*(op.Gm*vgs+op.Gds*vds+op.Gmb*vbs)
	addRHS(b, nd, -ieq)
	addRHS(b, ns, ieq)
	// A small drain-source leak keeps cutoff devices from floating nodes.
	if gmin > 0 {
		add2(a, m.d, m.s, gmin)
	}
}

// OpPoint carries a converged DC solution and the small-signal model of
// every device evaluated at it.
type OpPoint struct {
	X []float64 // node voltages then branch currents

	dio []dioSS
	bjt []bjtSS
	mos []mosSS
}

type dioSS struct {
	a, k int
	g, c float64
}

type bjtSS struct {
	c, b, e       int
	gcc, gcb, gce float64
	gbc, gbb, gbe float64
	cbe, cbc      float64
}

type mosSS struct {
	d, g, s, b    int // d/s possibly swapped to operating orientation
	gm, gds, gmb  float64
	cgs, cgd, cgb float64
}

// Linearize evaluates all devices at the converged solution x and captures
// their small-signal parameters for AC analysis. The OpPoint holds its
// own copy of x.
func (s *System) Linearize(x []float64, gmin float64) *OpPoint {
	return s.LinearizeInto(nil, x, gmin)
}

// LinearizeInto is Linearize reusing op's storage (nil allocates): a
// transient run re-linearizes at every accepted step, and past the first
// step this allocates nothing. op is overwritten whole.
func (s *System) LinearizeInto(op *OpPoint, x []float64, gmin float64) *OpPoint {
	if op == nil {
		op = &OpPoint{}
	}
	op.X = append(op.X[:0], x...)
	op.dio, op.bjt, op.mos = op.dio[:0], op.bjt[:0], op.mos[:0]
	temp := s.Ckt.Temp
	for _, d := range s.dios {
		vd := at(x, d.a) - at(x, d.k)
		e := d.p.Eval(vd, temp, gmin)
		op.dio = append(op.dio, dioSS{d.a, d.k, e.Gd, e.Cd})
	}
	for _, q := range s.bjts {
		pol := q.p.Polarity()
		vb, vc, ve := at(x, q.b), at(x, q.c), at(x, q.e)
		e := q.p.Eval(pol*(vb-ve), pol*(vb-vc), temp, gmin)
		ss := bjtSS{c: q.c, b: q.b, e: q.e}
		ss.gcb = e.DIcDVbe + e.DIcDVbc
		ss.gcc = -e.DIcDVbc
		ss.gce = -e.DIcDVbe
		ss.gbb = e.DIbDVbe + e.DIbDVbc
		ss.gbc = -e.DIbDVbc
		ss.gbe = -e.DIbDVbe
		ss.cbe = e.Cbe
		ss.cbc = e.Cbc
		op.bjt = append(op.bjt, ss)
	}
	for _, m := range s.moss {
		pol := m.p.Polarity()
		vd, vg, vs, vb := at(x, m.d), at(x, m.g), at(x, m.s), at(x, m.b)
		nd, ns := m.d, m.s
		vdd, vss := vd, vs
		if pol*(vd-vs) < 0 {
			nd, ns = m.s, m.d
			vdd, vss = vs, vd
		}
		e := m.p.Eval(pol*(vg-vss), pol*(vdd-vss), pol*(vb-vss))
		op.mos = append(op.mos, mosSS{
			d: nd, g: m.g, s: ns, b: m.b,
			gm: e.Gm, gds: e.Gds, gmb: e.Gmb,
			cgs: e.Cgs, cgd: e.Cgd, cgb: e.Cgb,
		})
	}
	return op
}

// StampAC assembles the complex small-signal system at angular frequency
// omega using the device linearization in op. RHS excitation comes from
// the independent sources' AC specs.
func (s *System) StampAC(a ComplexAdder, b []complex128, omega float64, op *OpPoint) {
	jw := complex(0, omega)
	for _, r := range s.res {
		cadd2(a, r.i, r.j, complex(r.g, 0))
	}
	for _, c := range s.caps {
		cadd2(a, c.i, c.j, jw*complex(c.c, 0))
	}
	for _, l := range s.inds {
		cstampShortBranch(a, l.i, l.j, l.br)
		a.Add(l.br, l.br, -jw*complex(l.l, 0))
	}
	for _, v := range s.vsrc {
		cstampShortBranch(a, v.i, v.j, v.br)
		if b != nil {
			b[v.br] += acPhasor(v.src.ACMag, v.src.ACPhase)
		}
	}
	for _, c := range s.isrc {
		if b != nil {
			ph := acPhasor(c.src.ACMag, c.src.ACPhase)
			caddRHS(b, c.i, -ph)
			caddRHS(b, c.j, ph)
		}
	}
	for _, e := range s.vcvs {
		cstampShortBranch(a, e.i, e.j, e.br)
		if e.ci >= 0 {
			a.Add(e.br, e.ci, complex(-e.gain, 0))
		}
		if e.cj >= 0 {
			a.Add(e.br, e.cj, complex(e.gain, 0))
		}
	}
	for _, g := range s.vccs {
		cstampVCCS(a, g.i, g.j, g.ci, g.cj, complex(g.gain, 0))
	}
	for _, f := range s.cccs {
		if f.i >= 0 {
			a.Add(f.i, f.ctrlBr, complex(f.gain, 0))
		}
		if f.j >= 0 {
			a.Add(f.j, f.ctrlBr, complex(-f.gain, 0))
		}
	}
	for _, h := range s.ccvs {
		cstampShortBranch(a, h.i, h.j, h.br)
		a.Add(h.br, h.ctrlBr, complex(-h.gain, 0))
	}
	// Device small-signal stamps.
	for _, d := range op.dio {
		cadd2(a, d.a, d.k, complex(d.g, 0)+jw*complex(d.c, 0))
	}
	for _, q := range op.bjt {
		terms := [3]int{q.c, q.b, q.e}
		jac := [3][3]float64{
			{q.gcc, q.gcb, q.gce},
			{q.gbc, q.gbb, q.gbe},
			{-(q.gcc + q.gbc), -(q.gcb + q.gbb), -(q.gce + q.gbe)},
		}
		for t := 0; t < 3; t++ {
			if terms[t] < 0 {
				continue
			}
			for u := 0; u < 3; u++ {
				if terms[u] >= 0 {
					a.Add(terms[t], terms[u], complex(jac[t][u], 0))
				}
			}
		}
		cadd2(a, q.b, q.e, jw*complex(q.cbe, 0))
		cadd2(a, q.b, q.c, jw*complex(q.cbc, 0))
	}
	for _, m := range op.mos {
		cstampVCCS(a, m.d, m.s, m.g, m.s, complex(m.gm, 0))
		cstampVCCS(a, m.d, m.s, m.d, m.s, complex(m.gds, 0))
		cstampVCCS(a, m.d, m.s, m.b, m.s, complex(m.gmb, 0))
		cadd2(a, m.g, m.s, jw*complex(m.cgs, 0))
		cadd2(a, m.g, m.d, jw*complex(m.cgd, 0))
		cadd2(a, m.g, m.b, jw*complex(m.cgb, 0))
	}
}

func cstampShortBranch(a ComplexAdder, i, j, br int) {
	if i >= 0 {
		a.Add(i, br, 1)
		a.Add(br, i, 1)
	}
	if j >= 0 {
		a.Add(j, br, -1)
		a.Add(br, j, -1)
	}
}

func cstampVCCS(a ComplexAdder, i, j, ci, cj int, gm complex128) {
	if i >= 0 && ci >= 0 {
		a.Add(i, ci, gm)
	}
	if i >= 0 && cj >= 0 {
		a.Add(i, cj, -gm)
	}
	if j >= 0 && ci >= 0 {
		a.Add(j, ci, -gm)
	}
	if j >= 0 && cj >= 0 {
		a.Add(j, cj, gm)
	}
}

// CapEntry is a linearized capacitance between two nodes, used by the
// transient integrator's companion models.
type CapEntry struct {
	I, J int
	C    float64
}

// Capacitances returns every capacitance in the circuit linearized at op:
// explicit C elements plus device junction/Meyer capacitances. It appends
// into dst[:0] (nil allocates), so a transient run that refreshes the
// list every step reuses its storage.
func (s *System) Capacitances(dst []CapEntry, op *OpPoint) []CapEntry {
	out := dst[:0]
	for _, c := range s.caps {
		out = append(out, CapEntry{c.i, c.j, c.c})
	}
	// Zero-valued device capacitances are included so the entry list keeps
	// a stable length and order across re-linearizations during transient.
	for _, d := range op.dio {
		out = append(out, CapEntry{d.a, d.k, d.c})
	}
	for _, q := range op.bjt {
		out = append(out, CapEntry{q.b, q.e, q.cbe})
		out = append(out, CapEntry{q.b, q.c, q.cbc})
	}
	for _, m := range op.mos {
		out = append(out, CapEntry{m.g, m.s, m.cgs})
		out = append(out, CapEntry{m.g, m.d, m.cgd})
		out = append(out, CapEntry{m.g, m.b, m.cgb})
	}
	return out
}

// Inductors returns the inductor branches for transient companion models.
func (s *System) Inductors() []struct {
	I, J, Br int
	L        float64
} {
	out := make([]struct {
		I, J, Br int
		L        float64
	}, len(s.inds))
	for k, l := range s.inds {
		out[k].I, out[k].J, out[k].Br, out[k].L = l.i, l.j, l.br, l.l
	}
	return out
}

// StampTranSources stamps time-dependent source values at time t into the
// DC-companion RHS (after StampDC was called with SrcScale=0 to suppress
// the DC values... see analysis.Tran for the exact protocol).
func (s *System) StampTranSources(b []float64, t float64) {
	for _, v := range s.vsrc {
		val := v.src.DC
		if v.src.Tran != nil {
			val = v.src.Tran.Eval(t)
		}
		b[v.br] += val
	}
	for _, c := range s.isrc {
		val := c.src.DC
		if c.src.Tran != nil {
			val = c.src.Tran.Eval(t)
		}
		addRHS(b, c.i, -val)
		addRHS(b, c.j, val)
	}
}

// MOSOpInfo describes a MOSFET's operating region for reports.
type MOSOpInfo struct {
	Name   string
	Region int
	Id     float64
	Gm     float64
}

// MOSOperatingInfo reports every MOSFET's region and small-signal data at
// solution x, useful for OP reports and debugging bias problems.
func (s *System) MOSOperatingInfo(x []float64) []MOSOpInfo {
	var out []MOSOpInfo
	for _, m := range s.moss {
		pol := m.p.Polarity()
		vd, vg, vs, vb := at(x, m.d), at(x, m.g), at(x, m.s), at(x, m.b)
		vdd, vss := vd, vs
		if pol*(vd-vs) < 0 {
			vdd, vss = vs, vd
		}
		e := m.p.Eval(pol*(vg-vss), pol*(vdd-vss), pol*(vb-vss))
		out = append(out, MOSOpInfo{m.name, e.Region, pol * e.Id, e.Gm})
	}
	return out
}
