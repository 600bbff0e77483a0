package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"acstab/internal/netlist"
)

func TestVt(t *testing.T) {
	// kT/q at 27C ~ 25.85 mV.
	if v := Vt(27); math.Abs(v-0.02585) > 1e-4 {
		t.Errorf("Vt(27) = %g", v)
	}
	if Vt(127) <= Vt(27) {
		t.Error("Vt must increase with temperature")
	}
}

func TestExpLimContinuity(t *testing.T) {
	// Continuity and monotonicity across the clamp point.
	prev := 0.0
	for x := 75.0; x < 90; x += 0.01 {
		e, de := expLim(x)
		if e <= prev {
			t.Fatalf("expLim not increasing at %g", x)
		}
		if de <= 0 {
			t.Fatalf("derivative non-positive at %g", x)
		}
		prev = e
	}
	// Below the limit it is exp.
	e, de := expLim(1)
	if math.Abs(e-math.E) > 1e-12 || math.Abs(de-math.E) > 1e-12 {
		t.Error("expLim(1) != e")
	}
}

func TestDiodeForward(t *testing.T) {
	p := DefaultDiode()
	// At 0.6V forward, current should be ~ IS*exp(0.6/vt) ~ 1e-14*e^23.2.
	op := p.Eval(0.6, 27, 0)
	want := 1e-14 * (math.Exp(0.6/Vt(27)) - 1)
	if math.Abs(op.Id-want) > 1e-9*want {
		t.Errorf("Id = %g, want %g", op.Id, want)
	}
	// gd = Id/vt approximately.
	if math.Abs(op.Gd-op.Id/Vt(27)) > 1e-3*op.Gd {
		t.Errorf("Gd = %g, Id/vt = %g", op.Gd, op.Id/Vt(27))
	}
}

func TestDiodeReverse(t *testing.T) {
	p := DefaultDiode()
	op := p.Eval(-5, 27, 0)
	if math.Abs(op.Id+p.IS) > 1e-16 {
		t.Errorf("reverse Id = %g, want -IS", op.Id)
	}
	if op.Gd <= 0 {
		t.Error("Gd must stay positive")
	}
}

func TestDiodeDerivativeConsistencyQuick(t *testing.T) {
	p := DefaultDiode()
	f := func(raw float64) bool {
		vd := math.Mod(raw, 0.8) // -0.8..0.8
		if math.IsNaN(vd) {
			return true
		}
		h := 1e-7
		op := p.Eval(vd, 27, 0)
		op1 := p.Eval(vd+h, 27, 0)
		numg := (op1.Id - op.Id) / h
		return math.Abs(numg-op.Gd) <= 1e-3*(math.Abs(numg)+1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestDiodeTempDependence(t *testing.T) {
	p := DefaultDiode()
	// Forward voltage at constant current drops ~2mV/K: at higher temp,
	// more current at the same voltage.
	i27 := p.Eval(0.6, 27, 0).Id
	i85 := p.Eval(0.6, 85, 0).Id
	if i85 <= i27 {
		t.Error("diode current must increase with temperature at fixed bias")
	}
}

func TestDiodeCaps(t *testing.T) {
	p := DefaultDiode()
	p.CJO = 1e-12
	p.TT = 1e-9
	// Reverse bias: only depletion, less than CJO... at vd<0,
	// cj = CJO/(1-v/VJ)^M < CJO.
	op := p.Eval(-2, 27, 0)
	if op.Cd >= 1e-12 || op.Cd <= 0 {
		t.Errorf("reverse cap = %g", op.Cd)
	}
	// Forward bias: diffusion dominates.
	opf := p.Eval(0.7, 27, 0)
	if opf.Cd < p.TT*opf.Gd {
		t.Errorf("forward cap %g < diffusion %g", opf.Cd, p.TT*opf.Gd)
	}
}

func TestJunctionCapContinuity(t *testing.T) {
	// Continuous across FC*VJ.
	cj0, vj, m, fc := 1e-12, 0.75, 0.33, 0.5
	below := JunctionCap(cj0, vj, m, fc, fc*vj-1e-9)
	above := JunctionCap(cj0, vj, m, fc, fc*vj+1e-9)
	if math.Abs(below-above) > 1e-15*cj0+1e-18 {
		t.Errorf("discontinuity at knee: %g vs %g", below, above)
	}
}

func TestBJTForwardActive(t *testing.T) {
	p := DefaultBJT()
	p.VAF = 100
	op := p.Eval(0.65, -5, 27, 0) // vbe=0.65, vbc=-5 (forward active)
	if op.Ic <= 0 {
		t.Fatalf("Ic = %g", op.Ic)
	}
	beta := op.Ic / op.Ib
	if beta < 90 || beta > 115 {
		t.Errorf("beta = %g, want ~100 (with Early boost)", beta)
	}
	// gm ~ Ic/vt.
	if math.Abs(op.Gm-op.Ic/Vt(27)) > 0.1*op.Gm {
		t.Errorf("gm = %g, Ic/vt = %g", op.Gm, op.Ic/Vt(27))
	}
	// Output conductance ~ Ic/VAF.
	if math.Abs(op.Go-op.Ic/100) > 0.3*op.Go {
		t.Errorf("go = %g, Ic/VAF = %g", op.Go, op.Ic/100)
	}
}

func TestBJTJacobianConsistencyQuick(t *testing.T) {
	p := DefaultBJT()
	p.VAF = 50
	f := func(r1, r2 float64) bool {
		vbe := math.Mod(math.Abs(r1), 0.75)
		vbc := math.Mod(r2, 0.5) - 2 // mostly reverse biased bc
		if math.IsNaN(vbe) || math.IsNaN(vbc) {
			return true
		}
		h := 1e-8
		op := p.Eval(vbe, vbc, 27, 0)
		ope := p.Eval(vbe+h, vbc, 27, 0)
		opc := p.Eval(vbe, vbc+h, 27, 0)
		checks := []struct{ num, ana float64 }{
			{(ope.Ic - op.Ic) / h, op.DIcDVbe},
			{(opc.Ic - op.Ic) / h, op.DIcDVbc},
			{(ope.Ib - op.Ib) / h, op.DIbDVbe},
			{(opc.Ib - op.Ib) / h, op.DIbDVbc},
		}
		for _, c := range checks {
			scale := math.Abs(c.num) + math.Abs(c.ana) + 1e-12
			if math.Abs(c.num-c.ana) > 1e-3*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestBJTSaturationRegion(t *testing.T) {
	p := DefaultBJT()
	// Both junctions forward: Ic should drop versus forward active.
	fwd := p.Eval(0.65, -1, 27, 0)
	sat := p.Eval(0.65, 0.6, 27, 0)
	if sat.Ic >= fwd.Ic {
		t.Error("saturation should reduce Ic")
	}
}

func TestBJTPolarity(t *testing.T) {
	p := DefaultBJT()
	if p.Polarity() != 1 {
		t.Error("NPN polarity")
	}
	p.PNP = true
	if p.Polarity() != -1 {
		t.Error("PNP polarity")
	}
}

func TestMOSRegions(t *testing.T) {
	p := DefaultMOS()
	p.VTO = 0.7
	p.KP = 100e-6
	p.W, p.L = 10e-6, 1e-6
	if op := p.Eval(0.3, 1, 0); op.Region != RegionCutoff || op.Id != 0 {
		t.Errorf("cutoff: %+v", op)
	}
	if op := p.Eval(1.5, 0.2, 0); op.Region != RegionTriode {
		t.Errorf("triode: %+v", op)
	}
	op := p.Eval(1.5, 2, 0)
	if op.Region != RegionSaturation {
		t.Errorf("saturation: %+v", op)
	}
	// Id = beta/2 vov^2 = (100u*10)/2 * 0.64 = 3.2e-4.
	want := 100e-6 * 10 / 2 * 0.8 * 0.8
	if math.Abs(op.Id-want) > 1e-9 {
		t.Errorf("Idsat = %g, want %g", op.Id, want)
	}
	// gm = beta*vov.
	if math.Abs(op.Gm-100e-6*10*0.8) > 1e-9 {
		t.Errorf("gm = %g", op.Gm)
	}
}

func TestMOSContinuityTriodeSat(t *testing.T) {
	p := DefaultMOS()
	p.VTO = 0.7
	p.KP = 100e-6
	p.LAMBDA = 0.02
	p.W, p.L = 10e-6, 1e-6
	vgs := 1.5
	vov := vgs - p.VTO
	below := p.Eval(vgs, vov-1e-9, 0)
	above := p.Eval(vgs, vov+1e-9, 0)
	if math.Abs(below.Id-above.Id) > 1e-9*above.Id {
		t.Errorf("Id discontinuous at vds=vov: %g vs %g", below.Id, above.Id)
	}
	if math.Abs(below.Gm-above.Gm) > 1e-6*above.Gm {
		t.Errorf("Gm discontinuous: %g vs %g", below.Gm, above.Gm)
	}
}

func TestMOSDerivativeConsistencyQuick(t *testing.T) {
	p := DefaultMOS()
	p.VTO = 0.7
	p.KP = 100e-6
	p.LAMBDA = 0.05
	p.GAMMA = 0.4
	p.W, p.L = 10e-6, 1e-6
	f := func(r1, r2, r3 float64) bool {
		vgs := math.Mod(math.Abs(r1), 3)
		vds := math.Mod(math.Abs(r2), 3)
		vbs := -math.Mod(math.Abs(r3), 2)
		if math.IsNaN(vgs) || math.IsNaN(vds) || math.IsNaN(vbs) {
			return true
		}
		// Avoid evaluating straddling the region boundary.
		h := 1e-7
		op := p.Eval(vgs, vds, vbs)
		opg := p.Eval(vgs+h, vds, vbs)
		opd := p.Eval(vgs, vds+h, vbs)
		opb := p.Eval(vgs, vds, vbs+h)
		if op.Region != opg.Region || op.Region != opd.Region || op.Region != opb.Region {
			return true
		}
		checks := []struct{ num, ana float64 }{
			{(opg.Id - op.Id) / h, op.Gm},
			{(opd.Id - op.Id) / h, op.Gds},
			{(opb.Id - op.Id) / h, op.Gmb},
		}
		for _, c := range checks {
			scale := math.Abs(c.num) + math.Abs(c.ana) + 1e-9
			if math.Abs(c.num-c.ana) > 1e-3*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestMOSBodyEffect(t *testing.T) {
	p := DefaultMOS()
	p.VTO = 0.7
	p.KP = 100e-6
	p.GAMMA = 0.5
	p.PHI = 0.7
	p.W, p.L = 10e-6, 1e-6
	// Reverse body bias raises threshold, lowering Id.
	id0 := p.Eval(1.5, 2, 0).Id
	idb := p.Eval(1.5, 2, -1).Id
	if idb >= id0 {
		t.Error("reverse body bias should reduce Id")
	}
}

func TestModelConverters(t *testing.T) {
	c := netlist.NewCircuit("x")
	qm := c.SetModel("qn", "npn", map[string]float64{"is": 1e-15, "bf": 200, "vaf": 80})
	p, err := BJTFromModel(qm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.IS != 1e-15 || p.BF != 200 || p.VAF != 80 || p.Area != 2 || p.PNP {
		t.Errorf("BJT params = %+v", p)
	}
	pm := c.SetModel("qp", "pnp", nil)
	pp, err := BJTFromModel(pm, 1)
	if err != nil || !pp.PNP {
		t.Errorf("PNP: %+v %v", pp, err)
	}
	if _, err := BJTFromModel(c.SetModel("bad", "nmos", nil), 1); err == nil {
		t.Error("wrong model type should error")
	}

	dm := c.SetModel("dd", "d", map[string]float64{"is": 2e-14, "cjo": 1e-12})
	dp, err := DiodeFromModel(dm, 1)
	if err != nil || dp.IS != 2e-14 || dp.CJO != 1e-12 {
		t.Errorf("diode: %+v %v", dp, err)
	}

	mm := c.SetModel("nch", "nmos", map[string]float64{"vto": 0.7, "kp": 1e-4, "tox": 20e-9})
	mp, err := MOSFromModel(mm, 1e-5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if mp.VTO != 0.7 || mp.W != 1e-5 {
		t.Errorf("mos: %+v", mp)
	}
	if mp.COX < 1e-3 || mp.COX > 3e-3 {
		t.Errorf("COX from TOX = %g, want ~1.7e-3", mp.COX)
	}
	pmod := c.SetModel("pch", "pmos", map[string]float64{"vto": -0.8})
	ppm, err := MOSFromModel(pmod, 1e-5, 1e-6)
	if err != nil || !ppm.PMOS || ppm.VTO != 0.8 {
		t.Errorf("pmos vto normalization: %+v %v", ppm, err)
	}
}

func TestResistorAtTemp(t *testing.T) {
	r := ResistorAtTemp(1000, 1e-3, 0, 127)
	if math.Abs(r-1100) > 1e-9 {
		t.Errorf("r(127) = %g, want 1100", r)
	}
	if ResistorAtTemp(1000, 0, 0, 127) != 1000 {
		t.Error("no tempco should be identity")
	}
}

func TestISAtTemp(t *testing.T) {
	// IS roughly doubles every ~5K for silicon.
	is27 := ISAtTemp(1e-14, 1, 3, 1.11, 27)
	is37 := ISAtTemp(1e-14, 1, 3, 1.11, 37)
	ratio := is37 / is27
	if ratio < 2 || ratio > 8 {
		t.Errorf("IS(37)/IS(27) = %g, want 2..8", ratio)
	}
}
