// Package netlist provides SPICE-style circuit capture: element and model
// types, a netlist parser with .subckt/.model/.param support, design-
// variable expressions, hierarchical flattening, and a programmatic builder
// API. It replaces the Composer-schematic + CDF capture path of the
// original DFII tool.
package netlist

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// IsGround reports whether node names the reference node.
func IsGround(node string) bool {
	if node == "0" {
		return true
	}
	if node == "" {
		return false
	}
	// Only names starting with g or v (or a non-ASCII byte) can fold to
	// a ground name; the rest need no lower-cased copy.
	switch c := node[0]; {
	case c == 'g', c == 'G', c == 'v', c == 'V', c >= utf8.RuneSelf:
	default:
		return false
	}
	switch strings.ToLower(node) {
	case "0", "gnd", "gnd!", "vss!":
		return true
	}
	return false
}

// ElemType identifies the element kind by its SPICE key letter.
type ElemType byte

// Element kinds.
const (
	Resistor  ElemType = 'R'
	Capacitor ElemType = 'C'
	Inductor  ElemType = 'L'
	VSource   ElemType = 'V'
	ISource   ElemType = 'I'
	VCVS      ElemType = 'E' // voltage-controlled voltage source
	VCCS      ElemType = 'G' // voltage-controlled current source
	CCCS      ElemType = 'F' // current-controlled current source
	CCVS      ElemType = 'H' // current-controlled voltage source
	Diode     ElemType = 'D'
	BJT       ElemType = 'Q'
	MOSFET    ElemType = 'M'
	Subcall   ElemType = 'X'
)

// String returns the element kind name.
func (t ElemType) String() string {
	switch t {
	case Resistor:
		return "resistor"
	case Capacitor:
		return "capacitor"
	case Inductor:
		return "inductor"
	case VSource:
		return "vsource"
	case ISource:
		return "isource"
	case VCVS:
		return "vcvs"
	case VCCS:
		return "vccs"
	case CCCS:
		return "cccs"
	case CCVS:
		return "ccvs"
	case Diode:
		return "diode"
	case BJT:
		return "bjt"
	case MOSFET:
		return "mosfet"
	case Subcall:
		return "subckt-call"
	}
	return fmt.Sprintf("elem(%c)", byte(t))
}

// SourceSpec describes the excitation of an independent V or I source.
type SourceSpec struct {
	DC      float64
	ACMag   float64
	ACPhase float64 // degrees
	Tran    TranFunc
}

// TranFunc is a time-domain source function.
type TranFunc interface {
	Eval(t float64) float64
}

// PulseFunc is the SPICE PULSE(v1 v2 td tr tf pw per) source.
type PulseFunc struct {
	V1, V2, TD, TR, TF, PW, PER float64
}

// Eval implements TranFunc.
func (p PulseFunc) Eval(t float64) float64 {
	if t < p.TD {
		return p.V1
	}
	tt := t - p.TD
	if p.PER > 0 {
		cycles := float64(int(tt / p.PER))
		tt -= cycles * p.PER
	}
	switch {
	case tt < p.TR:
		if p.TR == 0 {
			return p.V2
		}
		return p.V1 + (p.V2-p.V1)*tt/p.TR
	case tt < p.TR+p.PW:
		return p.V2
	case tt < p.TR+p.PW+p.TF:
		if p.TF == 0 {
			return p.V1
		}
		return p.V2 + (p.V1-p.V2)*(tt-p.TR-p.PW)/p.TF
	default:
		return p.V1
	}
}

// SinFunc is the SPICE SIN(vo va freq td theta) source.
type SinFunc struct {
	VO, VA, Freq, TD, Theta float64
}

// Eval implements TranFunc.
func (s SinFunc) Eval(t float64) float64 {
	if t < s.TD {
		return s.VO
	}
	tt := t - s.TD
	damp := 1.0
	if s.Theta != 0 {
		damp = math.Exp(-s.Theta * tt)
	}
	return s.VO + s.VA*damp*math.Sin(2*math.Pi*s.Freq*tt)
}

// PWLFunc is the SPICE PWL(t1 v1 t2 v2 ...) source.
type PWLFunc struct {
	T, V []float64
}

// Eval implements TranFunc.
func (p PWLFunc) Eval(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	for i := 1; i < n; i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return p.V[i-1] + f*(p.V[i]-p.V[i-1])
		}
	}
	return p.V[n-1]
}

// Element is one circuit element instance.
type Element struct {
	Name  string   // full instance name, e.g. "R1" or "x1.q3"
	Type  ElemType // key letter
	Nodes []string // terminal nodes in SPICE order
	// Value is the primary element value (ohms, farads, henries, gain).
	Value float64
	// ValueExpr preserves the unevaluated expression, if the netlist used
	// a design variable or expression for the value.
	ValueExpr string
	Model     string             // model or subcircuit name
	Params    map[string]float64 // instance parameters (w, l, area, ...)
	Ctrl      string             // controlling V-source name for F/H
	Src       *SourceSpec        // excitation for V/I sources
	// ParamExprs preserves unevaluated instance-parameter expressions;
	// flattening re-evaluates them against the instance scope.
	ParamExprs map[string]string
	// srcTokens holds the raw source arguments until evaluation.
	srcTokens []string
	// paramKeys lists the parsed ParamExprs names in source order, for
	// deterministic error reports.
	paramKeys []string
	// fixed marks the evaluated parts (Value, Params, Src) whose
	// expressions read no design variable: they hold in every scope, so
	// Flatten copies them instead of evaluating them again.
	fixed evalMask
}

// evalMask is a set of an element's evaluated parts.
type evalMask uint8

const (
	fixedValue  evalMask = 1 << iota // Value from ValueExpr
	fixedParams                      // Params from ParamExprs
	fixedSrc                         // Src from the source arguments
)

// Param returns the instance parameter p, or def when absent.
func (e *Element) Param(p string, def float64) float64 {
	if e.Params != nil {
		if v, ok := e.Params[strings.ToLower(p)]; ok {
			return v
		}
	}
	return def
}

// Model is a .model card.
type Model struct {
	Name   string
	Type   string // d, npn, pnp, nmos, pmos, res, cap
	Params map[string]float64
}

// Param returns the model parameter p, or def when absent.
func (m *Model) Param(p string, def float64) float64 {
	if m == nil || m.Params == nil {
		return def
	}
	if v, ok := m.Params[strings.ToLower(p)]; ok {
		return v
	}
	return def
}

// Subckt is a .subckt definition.
type Subckt struct {
	Name   string
	Ports  []string
	Params map[string]float64 // default parameter values (evaluated)
	// ParamExprs holds unevaluated parameter-default expressions; they are
	// evaluated per instance during flattening.
	ParamExprs map[string]string
	Elems      []*Element
	Models     map[string]*Model
	// paramKeys lists the ParamExprs names in source order.
	paramKeys []string
}

// Circuit is a parsed (or programmatically built) circuit.
type Circuit struct {
	Title   string
	Elems   []*Element
	Models  map[string]*Model
	Subckts map[string]*Subckt
	// Params holds global .param design variables (already evaluated).
	Params map[string]float64
	// Options holds .option name=value settings.
	Options map[string]float64
	// Temp is the simulation temperature in Celsius (default 27).
	Temp float64
	// NodeSet holds .nodeset initial-guess voltages by node name, used to
	// steer Newton toward the intended operating point of multi-stable
	// circuits (e.g. latch-prone buffers).
	NodeSet map[string]float64
}

// NewCircuit returns an empty circuit with the given title.
func NewCircuit(title string) *Circuit {
	return &Circuit{
		Title:   title,
		Models:  map[string]*Model{},
		Subckts: map[string]*Subckt{},
		Params:  map[string]float64{},
		Options: map[string]float64{},
		NodeSet: map[string]float64{},
		Temp:    27,
	}
}

// Nodes returns the sorted list of all nodes excluding ground.
func (c *Circuit) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range c.Elems {
		limit := len(e.Nodes)
		for i := 0; i < limit; i++ {
			n := e.Nodes[i]
			if IsGround(n) || seen[n] {
				continue
			}
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Element returns the element with the given (case-insensitive) name.
func (c *Circuit) Element(name string) *Element {
	ln := strings.ToLower(name)
	for _, e := range c.Elems {
		if strings.ToLower(e.Name) == ln {
			return e
		}
	}
	return nil
}

// Add appends an element.
func (c *Circuit) Add(e *Element) { c.Elems = append(c.Elems, e) }

// Validate performs basic sanity checks: unique names, correct terminal
// counts, models present, no dangling controlled-source references.
func (c *Circuit) Validate() error {
	kinds := make(map[string]ElemType, len(c.Elems)) // lower-cased name -> type
	for _, e := range c.Elems {
		ln := strings.ToLower(e.Name)
		if _, dup := kinds[ln]; dup {
			return fmt.Errorf("netlist: duplicate element %q", e.Name)
		}
		kinds[ln] = e.Type
		want := terminalCount(e.Type)
		if want > 0 && len(e.Nodes) != want {
			return fmt.Errorf("netlist: %s %q has %d nodes, want %d",
				e.Type, e.Name, len(e.Nodes), want)
		}
	}
	for _, e := range c.Elems {
		switch e.Type {
		case CCCS, CCVS:
			if kinds[strings.ToLower(e.Ctrl)] != VSource {
				return fmt.Errorf("netlist: %q references missing control source %q", e.Name, e.Ctrl)
			}
		case Diode, BJT, MOSFET:
			if _, ok := c.Models[strings.ToLower(e.Model)]; !ok {
				return fmt.Errorf("netlist: %q references missing model %q", e.Name, e.Model)
			}
		case Subcall:
			if _, ok := c.Subckts[strings.ToLower(e.Model)]; !ok {
				return fmt.Errorf("netlist: %q references missing subckt %q", e.Name, e.Model)
			}
		}
	}
	return nil
}

func terminalCount(t ElemType) int {
	switch t {
	case Resistor, Capacitor, Inductor, VSource, ISource, Diode:
		return 2
	case VCVS, VCCS:
		return 4
	case CCCS, CCVS:
		return 2
	case BJT:
		return 3
	case MOSFET:
		return 4
	}
	return 0 // X: variable
}
