package netlist

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Flatten expands all subcircuit calls recursively, producing a circuit
// containing only primitive elements. Internal subckt nodes and element
// names are prefixed with the instance path ("x1.n3"), element value
// expressions are evaluated against the merged parameter scope (global
// design variables, subckt defaults, instance overrides), and subckt-local
// models are promoted into the flat model namespace.
//
// A top-level value, parameter set or source spec whose expressions read
// no design variable was evaluated once by Parse and is copied; only
// expressions that read one, and everything inside subckts, are
// evaluated here. The flat elements and their node lists are carved from
// storage sized from the top-level cards, which grows if subckts expand.
func Flatten(c *Circuit) (*Circuit, error) {
	nodes := 0
	for _, e := range c.Elems {
		nodes += len(e.Nodes)
	}
	flat := &Circuit{
		Title:   c.Title,
		Elems:   make([]*Element, 0, len(c.Elems)),
		Models:  cloneMap(c.Models),
		Subckts: map[string]*Subckt{},
		Params:  cloneMap(c.Params),
		Options: cloneMap(c.Options),
		Temp:    c.Temp,
		NodeSet: cloneMap(c.NodeSet),
	}
	f := &flattener{
		flat:  flat,
		top:   c,
		elems: arena[Element]{next: len(c.Elems), left: math.MaxInt},
		strs:  arena[string]{next: nodes, left: math.MaxInt},
	}
	for _, e := range c.Elems {
		if err := f.expand(e, "", nil, c.Params, 0); err != nil {
			return nil, err
		}
	}
	return flat, nil
}

const maxDepth = 50

// cloneMap copies m into a map sized for it (an empty map for nil).
func cloneMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// flattener holds one Flatten's output and element storage.
type flattener struct {
	flat, top *Circuit
	elems     arena[Element]
	strs      arena[string]
}

// expand emits element e into the flat circuit. prefix is the instance
// path ("x1." or ""), portMap translates subckt-internal node names, and
// scope is the parameter environment for expression evaluation.
func (f *flattener) expand(e *Element, prefix string, portMap map[string]string, scope map[string]float64, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("netlist: subckt nesting deeper than %d (recursive subckts?)", maxDepth)
	}
	mapNode := func(n string) string {
		if portMap != nil {
			if m, ok := portMap[n]; ok {
				return m
			}
		}
		if IsGround(n) {
			return "0"
		}
		if portMap == nil {
			return n // top level: keep name
		}
		return prefix + n // internal node
	}

	if e.Type != Subcall {
		ne := &f.elems.take(1)[0]
		*ne = Element{
			Name:       prefix + e.Name,
			Type:       e.Type,
			Value:      e.Value,
			ValueExpr:  e.ValueExpr,
			Model:      e.Model,
			ParamExprs: e.ParamExprs,
			srcTokens:  e.srcTokens,
			paramKeys:  e.paramKeys,
			fixed:      e.fixed,
		}
		if e.Src != nil && (e.srcTokens == nil || e.fixed&fixedSrc != 0) {
			// Deep copy so post-flatten edits (e.g. the tool's AC
			// auto-zeroing) never mutate the source circuit. A spec
			// that reads a design variable is parsed afresh below.
			src := *e.Src
			ne.Src = &src
		}
		ne.Nodes = f.strs.take(len(e.Nodes))
		for i, n := range e.Nodes {
			ne.Nodes[i] = mapNode(n)
		}
		if e.Ctrl != "" {
			// The controlling source must live in the same subckt scope.
			ne.Ctrl = prefix + e.Ctrl
		}
		if e.Params != nil {
			ne.Params = cloneMap(e.Params)
		}
		if err := evalElement(ne, scope); err != nil {
			return err
		}
		f.flat.Add(ne)
		return nil
	}

	// Subcircuit call.
	sub, ok := f.top.Subckts[strings.ToLower(e.Model)]
	if !ok {
		return fmt.Errorf("netlist: %q references missing subckt %q", e.Name, e.Model)
	}
	if len(e.Nodes) != len(sub.Ports) {
		return fmt.Errorf("netlist: %q has %d connections, subckt %q wants %d",
			e.Name, len(e.Nodes), sub.Name, len(sub.Ports))
	}
	// Build child scope: globals, then subckt defaults, then overrides.
	child := make(map[string]float64, len(scope)+len(sub.ParamExprs)+len(e.ParamExprs))
	for k, v := range scope {
		child[k] = v
	}
	for k, expr := range sub.ParamExprs {
		v, err := EvalExpr(expr, scope)
		if err != nil {
			k, err = firstFailure(sub.ParamExprs, sub.paramKeys, scope)
			return fmt.Errorf("netlist: subckt %s param %s: %v", sub.Name, k, err)
		}
		child[k] = v
	}
	// Instance overrides: raw exprs evaluated in the caller's scope.
	for k, expr := range e.ParamExprs {
		v, err := EvalExpr(expr, scope)
		if err != nil {
			k, err = firstFailure(e.ParamExprs, e.paramKeys, scope)
			return fmt.Errorf("netlist: %s param %s: %v", e.Name, k, err)
		}
		child[k] = v
	}
	// Params set directly (AddX) still win; a key ParamExprs also holds
	// was evaluated from the card at parse time, so the evaluation above,
	// under the current design variables, is the one that counts.
	for k, v := range e.Params {
		if _, ok := e.ParamExprs[k]; !ok {
			child[k] = v
		}
	}
	// Port mapping: subckt port name -> caller node (already mapped).
	pm := make(map[string]string, len(sub.Ports))
	for i, port := range sub.Ports {
		pm[port] = mapNode(e.Nodes[i])
	}
	childPrefix := prefix + strings.ToLower(e.Name) + "."
	// Promote subckt-local models.
	for name, m := range sub.Models {
		if existing, ok := f.flat.Models[name]; ok && existing != m {
			f.flat.Models[childPrefix+name] = m
		} else {
			f.flat.Models[name] = m
		}
	}
	for _, se := range sub.Elems {
		if err := f.expand(se, childPrefix, pm, child, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the circuit back as netlist text (primitive elements
// only; subckt definitions are not reproduced). It is used for annotation
// output and golden tests.
func Format(c *Circuit) string {
	var sb strings.Builder
	sb.WriteString(c.Title + "\n")
	for _, e := range c.Elems {
		sb.WriteString(formatElement(e) + "\n")
	}
	for _, m := range sortedModels(c.Models) {
		sb.WriteString(fmt.Sprintf(".model %s %s", m.Name, m.Type))
		for _, k := range sortedKeys(m.Params) {
			sb.WriteString(fmt.Sprintf(" %s=%g", k, m.Params[k]))
		}
		sb.WriteString("\n")
	}
	sb.WriteString(".end\n")
	return sb.String()
}

func formatElement(e *Element) string {
	parts := []string{e.Name}
	parts = append(parts, e.Nodes...)
	switch e.Type {
	case CCCS, CCVS:
		parts = append(parts, e.Ctrl, fmt.Sprintf("%g", e.Value))
	case Diode, BJT, MOSFET:
		parts = append(parts, e.Model)
	case VSource, ISource:
		if e.Src != nil {
			parts = append(parts, fmt.Sprintf("dc %g", e.Src.DC))
			if e.Src.ACMag != 0 {
				parts = append(parts, fmt.Sprintf("ac %g %g", e.Src.ACMag, e.Src.ACPhase))
			}
		}
	default:
		parts = append(parts, fmt.Sprintf("%g", e.Value))
	}
	for _, k := range sortedKeys(e.Params) {
		parts = append(parts, fmt.Sprintf("%s=%g", k, e.Params[k]))
	}
	return strings.Join(parts, " ")
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedModels(m map[string]*Model) []*Model {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Model, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
