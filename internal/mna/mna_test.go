package mna

import (
	"math"
	"math/cmplx"
	"testing"

	"acstab/internal/linalg"
	"acstab/internal/netlist"
)

func compile(t *testing.T, c *netlist.Circuit) *System {
	t.Helper()
	flat, err := netlist.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Compile(flat)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCompileIndexing(t *testing.T) {
	c := netlist.NewCircuit("idx")
	c.AddVDC("V1", "a", "0", 1)
	c.AddR("R1", "a", "b", 1e3)
	c.AddL("L1", "b", "0", 1e-3)
	sys := compile(t, c)
	if sys.NumNodes() != 2 {
		t.Errorf("nodes = %d", sys.NumNodes())
	}
	// V and L each get a branch.
	if sys.NumUnknowns() != 4 {
		t.Errorf("unknowns = %d", sys.NumUnknowns())
	}
	if _, ok := sys.BranchOf("v1"); !ok {
		t.Error("V1 branch missing")
	}
	if _, ok := sys.BranchOf("l1"); !ok {
		t.Error("L1 branch missing")
	}
	if _, ok := sys.BranchOf("r1"); ok {
		t.Error("R1 must not have a branch")
	}
	if idx, ok := sys.NodeOf("0"); !ok || idx != -1 {
		t.Error("ground must map to -1")
	}
	if _, ok := sys.NodeOf("zz"); ok {
		t.Error("unknown node should not resolve")
	}
}

// TestCompileMixedCaseBranches: elements added through Circuit.Add keep
// their mixed-case names, and each voltage-defined element must still
// stamp into the branch BranchOf reports for it.
func TestCompileMixedCaseBranches(t *testing.T) {
	c := netlist.NewCircuit("mixed case")
	c.Add(&netlist.Element{Name: "V1", Type: netlist.VSource, Nodes: []string{"a", "0"},
		Src: &netlist.SourceSpec{DC: 1}})
	c.Add(&netlist.Element{Name: "Rtop", Type: netlist.Resistor, Nodes: []string{"a", "b"}, Value: 1e3})
	c.Add(&netlist.Element{Name: "Rbot", Type: netlist.Resistor, Nodes: []string{"b", "0"}, Value: 1e3})
	sys, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := sys.NumUnknowns(); n != 3 {
		t.Fatalf("unknowns = %d, want 3", n)
	}
	br, ok := sys.BranchOf("V1")
	if !ok || br != 2 {
		t.Fatalf("BranchOf(V1) = %d, %v; want 2, true", br, ok)
	}
	x := solveDC(t, sys)
	ib, _ := sys.NodeOf("b")
	if math.Abs(x[ib]-0.5) > 1e-12 || math.Abs(x[br]-(-0.5e-3)) > 1e-15 {
		t.Errorf("v(b) = %g, i(V1) = %g; want 0.5 V, -0.5 mA", x[ib], x[br])
	}
}

func TestCompileErrors(t *testing.T) {
	// Unflattened circuit rejected.
	c := netlist.NewCircuit("x")
	c.AddX("X1", []string{"a"}, "cell", nil)
	c.Subckts["cell"] = &netlist.Subckt{Name: "cell", Ports: []string{"p"}}
	if _, err := Compile(c); err == nil {
		t.Error("unflattened circuit should fail")
	}
	// Zero-value resistor rejected.
	c2 := netlist.NewCircuit("zr")
	c2.AddR("R1", "a", "0", 0)
	if _, err := Compile(c2); err == nil {
		t.Error("zero resistor should fail")
	}
	// Ground-only circuit rejected.
	c3 := netlist.NewCircuit("g")
	c3.AddR("R1", "0", "gnd", 1)
	if _, err := Compile(c3); err == nil {
		t.Error("no-node circuit should fail")
	}
}

// solveDC assembles and solves the linear DC system directly.
func solveDC(t *testing.T, sys *System) []float64 {
	t.Helper()
	n := sys.NumUnknowns()
	a := linalg.NewMatrix(n)
	b := make([]float64, n)
	x := make([]float64, n)
	sys.StampDC(a, b, x, DCOptions{SrcScale: 1})
	sol, err := linalg.SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestStampDCDivider(t *testing.T) {
	c := netlist.NewCircuit("div")
	c.AddVDC("V1", "a", "0", 6)
	c.AddR("R1", "a", "b", 1e3)
	c.AddR("R2", "b", "0", 2e3)
	sys := compile(t, c)
	x := solveDC(t, sys)
	ib, _ := sys.NodeOf("b")
	if math.Abs(x[ib]-4) > 1e-12 {
		t.Errorf("v(b) = %g, want 4", x[ib])
	}
	br, _ := sys.BranchOf("v1")
	if math.Abs(x[br]-(-2e-3)) > 1e-12 {
		t.Errorf("i(V1) = %g, want -2mA", x[br])
	}
}

func TestStampDCInductorShort(t *testing.T) {
	c := netlist.NewCircuit("rl")
	c.AddVDC("V1", "a", "0", 1)
	c.AddR("R1", "a", "b", 1e3)
	c.AddL("L1", "b", "0", 1)
	sys := compile(t, c)
	x := solveDC(t, sys)
	ib, _ := sys.NodeOf("b")
	if math.Abs(x[ib]) > 1e-12 {
		t.Errorf("inductor must be a DC short: v(b) = %g", x[ib])
	}
	br, _ := sys.BranchOf("l1")
	if math.Abs(x[br]-1e-3) > 1e-12 {
		t.Errorf("i(L1) = %g, want 1mA", x[br])
	}
}

func TestStampDCSourceScale(t *testing.T) {
	c := netlist.NewCircuit("scale")
	c.AddVDC("V1", "a", "0", 10)
	c.AddR("R1", "a", "0", 1e3)
	sys := compile(t, c)
	n := sys.NumUnknowns()
	a := linalg.NewMatrix(n)
	b := make([]float64, n)
	sys.StampDC(a, b, make([]float64, n), DCOptions{SrcScale: 0.5})
	x, err := linalg.SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := sys.NodeOf("a")
	if math.Abs(x[ia]-5) > 1e-12 {
		t.Errorf("half-scale source: v(a) = %g, want 5", x[ia])
	}
}

func TestStampACCapacitor(t *testing.T) {
	// Series R-C driven by AC source: check phasor solution.
	c := netlist.NewCircuit("rc")
	c.AddV("V1", "a", "0", netlist.SourceSpec{ACMag: 1})
	c.AddR("R1", "a", "b", 1e3)
	c.AddC("C1", "b", "0", 1e-6)
	sys := compile(t, c)
	n := sys.NumUnknowns()
	op := sys.Linearize(make([]float64, n), 0)
	m := linalg.NewCMatrix(n)
	b := make([]complex128, n)
	omega := 1000.0 // 1/(RC) = 1000 rad/s
	sys.StampAC(m, b, omega, op)
	x, err := csolve(m, b)
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := sys.NodeOf("b")
	// |H| = 1/sqrt(2) at omega = 1/RC.
	if math.Abs(cmplx.Abs(x[ib])-1/math.Sqrt2) > 1e-9 {
		t.Errorf("|v(b)| = %g", cmplx.Abs(x[ib]))
	}
}

func TestStampACPhasorSource(t *testing.T) {
	c := netlist.NewCircuit("ph")
	c.AddV("V1", "a", "0", netlist.SourceSpec{ACMag: 2, ACPhase: 90})
	c.AddR("R1", "a", "0", 1e3)
	sys := compile(t, c)
	n := sys.NumUnknowns()
	op := sys.Linearize(make([]float64, n), 0)
	m := linalg.NewCMatrix(n)
	b := make([]complex128, n)
	sys.StampAC(m, b, 1e3, op)
	x, err := csolve(m, b)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := sys.NodeOf("a")
	if cmplx.Abs(x[ia]-complex(0, 2)) > 1e-12 {
		t.Errorf("v(a) = %v, want 2j", x[ia])
	}
}

func TestLinearizeBJTConsistency(t *testing.T) {
	// The AC stamp at omega=0 must equal the DC Jacobian around the OP:
	// perturb the base voltage and compare the predicted collector-current
	// change against a finite difference of the companion model.
	c := netlist.NewCircuit("bjt")
	c.AddVDC("VC", "c", "0", 3)
	c.AddVDC("VB", "b", "0", 0.65)
	c.AddQ("Q1", "c", "b", "0", "qn")
	c.SetModel("qn", "npn", map[string]float64{"is": 1e-15, "bf": 100, "vaf": 50})
	sys := compile(t, c)
	n := sys.NumUnknowns()

	// Solve DC by fixed-point: the sources pin both nodes, so one stamp
	// evaluated at the pinned voltages is exact.
	x := make([]float64, n)
	ibIdx, _ := sys.NodeOf("b")
	icIdx, _ := sys.NodeOf("c")
	x[ibIdx] = 0.65
	x[icIdx] = 3
	op := sys.Linearize(x, 0)

	// AC gain at low frequency: d i(VC) / d v(VB) should equal gm.
	m := linalg.NewCMatrix(n)
	bb := make([]complex128, n)
	sys.StampAC(m, bb, 1e-3, op)
	// Excite VB with 1V AC: set its RHS.
	// VB is an ideal source with no AC spec, so emulate: solve with branch
	// rhs on VB's row.
	brB, _ := sys.BranchOf("vb")
	brC, _ := sys.BranchOf("vc")
	bb[brB] = 1
	sol, err := csolve(m, bb)
	if err != nil {
		t.Fatal(err)
	}
	// Branch current of VC is the collector small-signal current (into +).
	gmEff := cmplx.Abs(sol[brC])
	// Expected gm ~ Ic/vt with Ic = IS*exp(0.65/vt)*(1+vcb/vaf).
	vt := 0.025852
	ic := 1e-15 * math.Exp(0.65/vt) * (1 + (3-0.65)/50)
	if math.Abs(gmEff-ic/vt) > 0.05*ic/vt {
		t.Errorf("gm from AC = %g, want ~%g", gmEff, ic/vt)
	}
}

func TestCapacitancesStableOrder(t *testing.T) {
	c := netlist.NewCircuit("caps")
	c.AddVDC("V1", "a", "0", 1)
	c.AddC("C1", "a", "0", 1e-12)
	c.AddD("D1", "a", "0", "dm")
	c.SetModel("dm", "d", map[string]float64{"is": 1e-14, "cjo": 1e-12})
	sys := compile(t, c)
	n := sys.NumUnknowns()
	x := make([]float64, n)
	op1 := sys.Linearize(x, 0)
	x2 := make([]float64, n)
	ia, _ := sys.NodeOf("a")
	x2[ia] = 0.6
	op2 := sys.Linearize(x2, 0)
	c1 := sys.Capacitances(nil, op1)
	c2 := sys.Capacitances(nil, op2)
	if len(c1) != len(c2) {
		t.Fatalf("cap list length changed: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].I != c2[i].I || c1[i].J != c2[i].J {
			t.Errorf("cap %d moved", i)
		}
	}
	// Diode cap must change with bias.
	if c1[1].C == c2[1].C {
		t.Error("junction capacitance should be bias dependent")
	}
}

func TestMOSOperatingInfo(t *testing.T) {
	c := netlist.NewCircuit("m")
	c.AddVDC("VD", "d", "0", 2)
	c.AddVDC("VG", "g", "0", 1.5)
	c.AddM("M1", "d", "g", "0", "0", "nch", 10e-6, 1e-6)
	c.SetModel("nch", "nmos", map[string]float64{"vto": 0.7, "kp": 100e-6})
	sys := compile(t, c)
	n := sys.NumUnknowns()
	x := make([]float64, n)
	id, _ := sys.NodeOf("d")
	ig, _ := sys.NodeOf("g")
	x[id], x[ig] = 2, 1.5
	info := sys.MOSOperatingInfo(x)
	if len(info) != 1 || info[0].Region != 2 {
		t.Errorf("info = %+v", info)
	}
	want := 0.5 * 100e-6 * 10 * 0.8 * 0.8
	if math.Abs(info[0].Id-want) > 1e-9 {
		t.Errorf("Id = %g, want %g", info[0].Id, want)
	}
}

// newtonSolve runs a tiny Newton loop directly against the stamps, for
// covering the nonlinear stamping paths without the analysis package.
func newtonSolve(t *testing.T, sys *System, iters int) []float64 {
	t.Helper()
	n := sys.NumUnknowns()
	x := make([]float64, n)
	for it := 0; it < iters; it++ {
		a := linalg.NewMatrix(n)
		b := make([]float64, n)
		sys.StampDC(a, b, x, DCOptions{Gmin: 1e-12, SrcScale: 1})
		xn, err := linalg.SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Damp towards the solution to keep junctions sane.
		for i := range x {
			dv := xn[i] - x[i]
			if dv > 0.5 {
				dv = 0.5
			}
			if dv < -0.5 {
				dv = -0.5
			}
			x[i] += dv
		}
	}
	return x
}

func TestStampBJTNewtonDirect(t *testing.T) {
	c := netlist.NewCircuit("bjt direct")
	c.AddVDC("VCC", "vcc", "0", 5)
	c.AddR("RC", "vcc", "c", 10e3)
	c.AddVDC("VB", "b", "0", 0.65)
	c.AddQ("Q1", "c", "b", "0", "qn")
	c.SetModel("qn", "npn", map[string]float64{"is": 1e-15, "bf": 100})
	sys := compile(t, c)
	x := newtonSolve(t, sys, 80)
	ic, _ := sys.NodeOf("c")
	vcc, _ := sys.NodeOf("vcc")
	if x[vcc] != 5 {
		t.Fatalf("vcc = %g", x[vcc])
	}
	// Collector pulled down by conduction but not saturated to 0.
	if x[ic] >= 5 || x[ic] < 0.05 {
		t.Errorf("v(c) = %g", x[ic])
	}
	if !sys.HasBJTOrMOS() || sys.NonlinearCount() != 1 {
		t.Error("device bookkeeping wrong")
	}
}

func TestStampMOSNewtonDirect(t *testing.T) {
	c := netlist.NewCircuit("mos direct")
	c.AddVDC("VDD", "vdd", "0", 3)
	c.AddVDC("VG", "g", "0", 1.5)
	c.AddR("RD", "vdd", "d", 10e3)
	c.AddM("M1", "d", "g", "0", "0", "nch", 10e-6, 1e-6)
	c.SetModel("nch", "nmos", map[string]float64{"vto": 0.7, "kp": 100e-6})
	sys := compile(t, c)
	x := newtonSolve(t, sys, 60)
	id, _ := sys.NodeOf("d")
	// Id = 0.5*1e-3*(0.8)^2 = 320uA -> v(d) = 3 - 3.2 -> triode; Newton
	// settles somewhere between 0 and 3 with the device conducting.
	if x[id] <= 0.01 || x[id] >= 2.9 {
		t.Errorf("v(d) = %g", x[id])
	}
}

func TestStampDiodeNewtonDirect(t *testing.T) {
	c := netlist.NewCircuit("diode direct")
	c.AddVDC("V1", "a", "0", 2)
	c.AddR("R1", "a", "d", 1e3)
	c.AddD("D1", "d", "0", "dm")
	c.SetModel("dm", "d", map[string]float64{"is": 1e-14})
	sys := compile(t, c)
	x := newtonSolve(t, sys, 80)
	id, _ := sys.NodeOf("d")
	if x[id] < 0.5 || x[id] > 0.8 {
		t.Errorf("vd = %g, want ~0.65", x[id])
	}
}

func TestStampCCCSAndCCVS(t *testing.T) {
	c := netlist.NewCircuit("cc")
	c.AddVDC("V1", "in", "0", 1)
	c.AddR("R1", "in", "0", 1e3) // i(V1) = -1mA
	c.AddF("F1", "f", "0", "V1", 2)
	c.AddR("RF", "f", "0", 1e3)
	c.AddH("H1", "h", "0", "V1", 5e3)
	c.AddR("RH", "h", "0", 1e3)
	sys := compile(t, c)
	x := solveDC(t, sys)
	fi, _ := sys.NodeOf("f")
	hi, _ := sys.NodeOf("h")
	// F: current 2*i(V1) = -2mA from f through source to ground: v(f) = 2V.
	if math.Abs(x[fi]-2) > 1e-9 {
		t.Errorf("v(f) = %g, want 2", x[fi])
	}
	// H: v(h) = 5k * i(V1) = -5V.
	if math.Abs(x[hi]-(-5)) > 1e-9 {
		t.Errorf("v(h) = %g, want -5", x[hi])
	}
}

func TestStampACControlledSourcesAndDevices(t *testing.T) {
	// Cover AC stamps for E, F, H, diode, BJT, and MOSFET in one netlist.
	c := netlist.NewCircuit("ac all")
	c.AddV("V1", "in", "0", netlist.SourceSpec{DC: 1, ACMag: 1})
	c.AddR("R1", "in", "0", 1e3)
	c.AddE("E1", "e", "0", "in", "0", 3)
	c.AddR("RE", "e", "0", 1e3)
	c.AddF("F1", "f", "0", "V1", 2)
	c.AddR("RF", "f", "0", 1e3)
	c.AddH("H1", "h", "0", "V1", 1e3)
	c.AddR("RH", "h", "0", 1e3)
	c.AddD("D1", "in", "dk", "dm")
	c.AddR("RD", "dk", "0", 1e3)
	c.AddQ("Q1", "qc", "in", "0", "qn")
	c.AddR("RQ", "qc", "0", 1e3)
	c.AddM("M1", "md", "in", "0", "0", "nch", 10e-6, 1e-6)
	c.AddR("RM", "md", "0", 1e3)
	c.SetModel("dm", "d", map[string]float64{"is": 1e-14, "cjo": 1e-12})
	c.SetModel("qn", "npn", map[string]float64{"is": 1e-15, "bf": 100, "cje": 1e-12, "cjc": 0.5e-12})
	c.SetModel("nch", "nmos", map[string]float64{"vto": 0.7, "kp": 1e-4, "cgso": 1e-10, "cgdo": 1e-10, "tox": 2e-8})
	sys := compile(t, c)
	x := newtonSolve(t, sys, 60)
	op := sys.Linearize(x, 1e-12)
	n := sys.NumUnknowns()
	m := linalg.NewCMatrix(n)
	b := make([]complex128, n)
	sys.StampAC(m, b, 2*math.Pi*1e6, op)
	sol, err := csolve(m, b)
	if err != nil {
		t.Fatal(err)
	}
	ei, _ := sys.NodeOf("e")
	if cmplx.Abs(sol[ei]-3) > 1e-9 {
		t.Errorf("AC VCVS: v(e) = %v, want 3", sol[ei])
	}
	// Capacitance list includes every device cap with stable order.
	caps := sys.Capacitances(nil, op)
	if len(caps) < 6 {
		t.Errorf("caps = %d, want >= 6", len(caps))
	}
	// Inductors list is empty here.
	if len(sys.Inductors()) != 0 {
		t.Error("no inductors expected")
	}
}

func TestStampTranSources(t *testing.T) {
	c := netlist.NewCircuit("tran src")
	c.AddV("V1", "a", "0", netlist.SourceSpec{
		DC:   7,
		Tran: netlist.PulseFunc{V1: 0, V2: 1, TR: 1e-9, TF: 1e-9, PW: 1, PER: 2},
	})
	c.AddI("I1", "0", "b", netlist.SourceSpec{DC: 3e-3})
	c.AddR("R1", "a", "0", 1e3)
	c.AddR("R2", "b", "0", 1e3)
	sys := compile(t, c)
	n := sys.NumUnknowns()
	b := make([]float64, n)
	sys.StampTranSources(b, 0.5) // mid-pulse
	br, _ := sys.BranchOf("v1")
	if b[br] != 1 {
		t.Errorf("pulse value = %g, want 1 (high)", b[br])
	}
	ib, _ := sys.NodeOf("b")
	// I source without Tran uses DC: 3mA into b.
	if math.Abs(b[ib]-3e-3) > 1e-15 {
		t.Errorf("b rhs = %g", b[ib])
	}
}

func TestStampPNPAndPMOSDirect(t *testing.T) {
	c := netlist.NewCircuit("pnp pmos")
	c.AddVDC("VCC", "vcc", "0", 5)
	c.AddR("RB", "pb", "0", 100e3)
	c.AddQ("Q1", "qc", "pb", "vcc", "qp")
	c.AddR("RQ", "qc", "0", 10e3)
	c.AddM("M1", "md", "mg", "vcc", "vcc", "pch", 10e-6, 1e-6)
	c.AddVDC("VG", "mg", "0", 3.5) // VSG = 1.5
	c.AddR("RM", "md", "0", 10e3)
	c.SetModel("qp", "pnp", map[string]float64{"is": 1e-15, "bf": 50})
	c.SetModel("pch", "pmos", map[string]float64{"vto": -0.8, "kp": 5e-5})
	sys := compile(t, c)
	x := newtonSolve(t, sys, 80)
	md, _ := sys.NodeOf("md")
	// PMOS: Id = 0.5*50u*10*(0.7)^2 = 122uA -> v(md) ~ 1.2 (saturated).
	if x[md] < 0.5 || x[md] > 2.5 {
		t.Errorf("v(md) = %g", x[md])
	}
	qc, _ := sys.NodeOf("qc")
	// PNP conducts: collector pulled up from ground.
	if x[qc] <= 0.1 {
		t.Errorf("v(qc) = %g, PNP should conduct", x[qc])
	}
}

func TestSetSourceDC(t *testing.T) {
	c := netlist.NewCircuit("set dc")
	c.AddVDC("V1", "a", "0", 1)
	c.AddI("I1", "0", "b", netlist.SourceSpec{DC: 1e-3})
	c.AddR("R1", "a", "b", 1e3)
	c.AddR("R2", "b", "0", 1e3)
	sys, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.SetSourceDC("V1", 2) {
		t.Error("V1 not found")
	}
	if !sys.SetSourceDC("i1", 2e-3) {
		t.Error("I1 not found (case-insensitive lookup)")
	}
	if sys.SetSourceDC("R1", 1) {
		t.Error("resistor accepted as source")
	}
	if sys.SetSourceDC("nosuch", 1) {
		t.Error("unknown element accepted")
	}
	// The updated values must flow into the DC stamp: solve the 2x2
	// resistive system and check superposition of both updated sources.
	n := sys.NumUnknowns()
	a := linalg.NewMatrix(n)
	b := make([]float64, n)
	x := make([]float64, n)
	sys.StampDC(a, b, x, DCOptions{SrcScale: 1})
	got, err := linalg.SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := sys.NodeOf("a")
	ib, _ := sys.NodeOf("b")
	if math.Abs(got[ia]-2) > 1e-9 {
		t.Errorf("v(a) = %g, want 2", got[ia])
	}
	// v(b): source 2V through 1k into 1k||(2mA injection): node equation
	// gives v(b) = (2/1e3 + 2e-3) / (1/1e3 + 1/1e3) = 2.
	if math.Abs(got[ib]-2) > 1e-9 {
		t.Errorf("v(b) = %g, want 2", got[ib])
	}
}

// csolve factors m and solves m x = b in one call.
func csolve(m *linalg.CMatrix, b []complex128) ([]complex128, error) {
	f, err := linalg.CFactor(m)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
