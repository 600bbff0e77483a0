// Package mna compiles a flattened netlist into a Modified Nodal Analysis
// system and stamps the real (DC/transient companion) and complex (AC)
// matrices. Node voltages occupy indices 0..NumNodes-1; branch currents of
// voltage-defined elements (V, E, H, L) follow. Ground is index -1 and is
// never stamped.
//
// Sign conventions follow SPICE: independent current sources push positive
// current from their first node through the source into the second;
// nonlinear device stamps are written as Newton companion models
// (conductance + equivalent current source), so a converged solution of
// the stamped linear system is a solution of the nonlinear circuit.
package mna

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"

	"acstab/internal/device"
	"acstab/internal/netlist"
	"acstab/internal/obs"
)

// Compile telemetry: how many systems this process assembled and the shape
// of the most recent one. The gauges make /statusz show what the worker is
// currently chewing on.
var (
	mCompiles      = obs.GetCounter("acstab_mna_compiles_total")
	mLastUnknowns  = obs.GetGauge("acstab_mna_last_unknowns")
	mLastNonlinear = obs.GetGauge("acstab_mna_last_nonlinear_devices")
)

// RealAdder accumulates real matrix entries.
type RealAdder interface {
	Add(i, j int, v float64)
}

// ComplexAdder accumulates complex matrix entries.
type ComplexAdder interface {
	Add(i, j int, v complex128)
}

// System is a compiled circuit ready for stamping.
type System struct {
	Ckt       *netlist.Circuit
	NodeNames []string       // index -> node name
	nodeIndex map[string]int // node name -> index
	branchOf  map[string]int // element name -> branch index (absolute)
	numNodes  int
	numBranch int

	res  []resInst
	caps []capInst
	inds []indInst
	vsrc []srcInst
	isrc []srcInst
	vcvs []ctrlInst
	vccs []ctrlInst
	cccs []ccInst
	ccvs []ccInst
	dios []diodeInst
	bjts []bjtInst
	moss []mosInst
}

type resInst struct {
	name string
	i, j int
	g    float64 // conductance at circuit temperature
}

type capInst struct {
	name string
	i, j int
	c    float64
}

type indInst struct {
	name string
	i, j int
	br   int
	l    float64
}

type srcInst struct {
	name string
	i, j int
	br   int // -1 for current sources
	src  netlist.SourceSpec
}

type ctrlInst struct {
	name         string
	i, j, ci, cj int
	br           int // branch for VCVS, -1 for VCCS
	gain         float64
}

type ccInst struct {
	name   string
	i, j   int
	br     int // own branch (CCVS) or -1 (CCCS)
	ctrlBr int // controlling source's branch
	gain   float64
}

type diodeInst struct {
	name string
	a, k int
	p    device.DiodeParams
}

type bjtInst struct {
	name    string
	c, b, e int
	p       device.BJTParams
}

type mosInst struct {
	name       string
	d, g, s, b int
	p          device.MOSParams
}

// Compile builds the MNA system from a flattened circuit. The circuit must
// contain no subcircuit calls (use netlist.Flatten first). Its maps and
// instance tables are sized in one counting pass, so compiling allocates
// per system, not per element.
func Compile(c *netlist.Circuit) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Count the instances of each kind, the branches and the node
	// references.
	var count [256]int
	refs, branches := 0, 0
	for _, e := range c.Elems {
		if e.Type == netlist.Subcall {
			return nil, fmt.Errorf("mna: circuit not flattened: %q", e.Name)
		}
		count[e.Type]++
		refs += len(e.Nodes)
		if hasBranch(e.Type) {
			branches++
		}
	}
	// Circuits have at most about half as many nodes as elements; the
	// map grows past that if it must.
	nodeHint := len(c.Elems)/2 + 1
	s := &System{
		Ckt:       c,
		NodeNames: make([]string, 0, nodeHint),
		nodeIndex: make(map[string]int, nodeHint),
		branchOf:  make(map[string]int, branches),
		res:       make([]resInst, 0, count[netlist.Resistor]),
		caps:      make([]capInst, 0, count[netlist.Capacitor]),
		inds:      make([]indInst, 0, count[netlist.Inductor]),
		vsrc:      make([]srcInst, 0, count[netlist.VSource]),
		isrc:      make([]srcInst, 0, count[netlist.ISource]),
		vcvs:      make([]ctrlInst, 0, count[netlist.VCVS]),
		vccs:      make([]ctrlInst, 0, count[netlist.VCCS]),
		cccs:      make([]ccInst, 0, count[netlist.CCCS]),
		ccvs:      make([]ccInst, 0, count[netlist.CCVS]),
		dios:      make([]diodeInst, 0, count[netlist.Diode]),
		bjts:      make([]bjtInst, 0, count[netlist.BJT]),
		moss:      make([]mosInst, 0, count[netlist.MOSFET]),
	}
	// First pass: assign node indices in element order for determinism,
	// keeping each reference's index for the instance pass.
	idx := make([]int, 0, refs)
	for _, e := range c.Elems {
		for _, name := range e.Nodes {
			i := -1
			if !netlist.IsGround(name) {
				var ok bool
				if i, ok = s.nodeIndex[name]; !ok {
					i = s.numNodes
					s.nodeIndex[name] = i
					s.NodeNames = append(s.NodeNames, name)
					s.numNodes++
				}
			}
			idx = append(idx, i)
		}
	}
	// Second pass: assign branch indices, keyed by lower-cased name like
	// every branch lookup.
	for _, e := range c.Elems {
		if hasBranch(e.Type) {
			s.branchOf[strings.ToLower(e.Name)] = s.numNodes + s.numBranch
			s.numBranch++
		}
	}
	// Third pass: build instances. Branch elements take their branches in
	// the order the second pass assigned them.
	nextBr := s.numNodes
	for _, e := range c.Elems {
		n := idx[:len(e.Nodes):len(e.Nodes)]
		idx = idx[len(e.Nodes):]
		br := -1
		if hasBranch(e.Type) {
			br = nextBr
			nextBr++
		}
		switch e.Type {
		case netlist.Resistor:
			r := device.ResistorAtTemp(e.Value, e.Param("tc1", 0), e.Param("tc2", 0), c.Temp)
			if r == 0 {
				return nil, fmt.Errorf("mna: zero-value resistor %q", e.Name)
			}
			s.res = append(s.res, resInst{e.Name, n[0], n[1], 1 / r})
		case netlist.Capacitor:
			s.caps = append(s.caps, capInst{e.Name, n[0], n[1], e.Value})
		case netlist.Inductor:
			s.inds = append(s.inds, indInst{e.Name, n[0], n[1], br, e.Value})
		case netlist.VSource:
			spec := netlist.SourceSpec{}
			if e.Src != nil {
				spec = *e.Src
			}
			s.vsrc = append(s.vsrc, srcInst{e.Name, n[0], n[1], br, spec})
		case netlist.ISource:
			spec := netlist.SourceSpec{}
			if e.Src != nil {
				spec = *e.Src
			}
			s.isrc = append(s.isrc, srcInst{e.Name, n[0], n[1], -1, spec})
		case netlist.VCVS:
			s.vcvs = append(s.vcvs, ctrlInst{e.Name, n[0], n[1], n[2], n[3], br, e.Value})
		case netlist.VCCS:
			s.vccs = append(s.vccs, ctrlInst{e.Name, n[0], n[1], n[2], n[3], -1, e.Value})
		case netlist.CCCS, netlist.CCVS:
			ctrlBr, ok := s.branchOf[strings.ToLower(e.Ctrl)]
			if !ok {
				return nil, fmt.Errorf("mna: %q: controlling source %q has no branch", e.Name, e.Ctrl)
			}
			inst := ccInst{name: e.Name, i: n[0], j: n[1], br: br, ctrlBr: ctrlBr, gain: e.Value}
			if e.Type == netlist.CCVS {
				s.ccvs = append(s.ccvs, inst)
			} else {
				s.cccs = append(s.cccs, inst)
			}
		case netlist.Diode:
			m := c.Models[strings.ToLower(e.Model)]
			p, err := device.DiodeFromModel(m, e.Param("area", 1))
			if err != nil {
				return nil, fmt.Errorf("mna: %s: %v", e.Name, err)
			}
			s.dios = append(s.dios, diodeInst{e.Name, n[0], n[1], p})
		case netlist.BJT:
			m := c.Models[strings.ToLower(e.Model)]
			p, err := device.BJTFromModel(m, e.Param("area", 1))
			if err != nil {
				return nil, fmt.Errorf("mna: %s: %v", e.Name, err)
			}
			s.bjts = append(s.bjts, bjtInst{e.Name, n[0], n[1], n[2], p})
		case netlist.MOSFET:
			m := c.Models[strings.ToLower(e.Model)]
			p, err := device.MOSFromModel(m, e.Param("w", 0), e.Param("l", 0))
			if err != nil {
				return nil, fmt.Errorf("mna: %s: %v", e.Name, err)
			}
			s.moss = append(s.moss, mosInst{e.Name, n[0], n[1], n[2], n[3], p})
		}
	}
	if s.numNodes == 0 {
		return nil, fmt.Errorf("mna: circuit has no non-ground nodes")
	}
	mCompiles.Inc()
	mLastUnknowns.Set(float64(s.NumUnknowns()))
	mLastNonlinear.Set(float64(s.NonlinearCount()))
	return s, nil
}

// hasBranch reports whether elements of kind t carry a branch current.
func hasBranch(t netlist.ElemType) bool {
	switch t {
	case netlist.VSource, netlist.VCVS, netlist.CCVS, netlist.Inductor:
		return true
	}
	return false
}

// NumNodes returns the number of non-ground nodes.
func (s *System) NumNodes() int { return s.numNodes }

// NumUnknowns returns the total MNA system size.
func (s *System) NumUnknowns() int { return s.numNodes + s.numBranch }

// NodeOf returns the matrix index of the named node.
func (s *System) NodeOf(name string) (int, bool) {
	if netlist.IsGround(name) {
		return -1, true
	}
	idx, ok := s.nodeIndex[strings.ToLower(name)]
	return idx, ok
}

// BranchOf returns the branch-current index of a voltage-defined element.
func (s *System) BranchOf(elem string) (int, bool) {
	br, ok := s.branchOf[strings.ToLower(elem)]
	return br, ok
}

// SetSourceDC updates the DC value of the named independent V or I source
// in the compiled instance tables, reporting whether the source was found.
// Only the DC operating value changes — the stamp structure is untouched —
// so DC sweeps can reuse one compiled System across every sweep point
// instead of recompiling the whole circuit per point.
func (s *System) SetSourceDC(name string, v float64) bool {
	name = strings.ToLower(name)
	for i := range s.vsrc {
		if s.vsrc[i].name == name {
			s.vsrc[i].src.DC = v
			return true
		}
	}
	for i := range s.isrc {
		if s.isrc[i].name == name {
			s.isrc[i].src.DC = v
			return true
		}
	}
	return false
}

// HasBJTOrMOS reports whether the circuit contains any transistor.
func (s *System) HasBJTOrMOS() bool {
	return len(s.bjts) > 0 || len(s.moss) > 0
}

// NonlinearCount returns the number of nonlinear devices.
func (s *System) NonlinearCount() int {
	return len(s.dios) + len(s.bjts) + len(s.moss)
}

// at reads x[i] treating ground (-1) as zero volts.
func at(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

// add2 stamps the classic two-terminal conductance pattern.
func add2(a RealAdder, i, j int, g float64) {
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

// cadd2 is the complex counterpart of add2.
func cadd2(a ComplexAdder, i, j int, g complex128) {
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

// addRHS accumulates into the RHS vector treating ground as absent.
func addRHS(b []float64, i int, v float64) {
	if i >= 0 {
		b[i] += v
	}
}

func caddRHS(b []complex128, i int, v complex128) {
	if i >= 0 {
		b[i] += v
	}
}

// acPhasor converts an AC magnitude/phase(deg) pair into a phasor.
func acPhasor(mag, phaseDeg float64) complex128 {
	if mag == 0 {
		return 0
	}
	return cmplx.Rect(mag, phaseDeg*math.Pi/180)
}
