package netlist

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"acstab/internal/num"
)

// Parse reads a SPICE-style netlist. The first line is the title (SPICE
// convention). Supported cards: R C L V I E G F H D Q M X elements,
// .subckt/.ends, .model, .param, .option, .temp, .end, line continuation
// with '+', comments with leading '*' and inline ';'.
//
// One parse allocates per pass, not per token or card: tokens are
// substrings of one compacted copy of the card text, and elements and
// their node lists are carved from chunks that grow with the deck.
func Parse(src string) (*Circuit, error) {
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("netlist: empty input")
	}
	lines := preprocess(src)
	if len(lines) == 0 {
		return nil, fmt.Errorf("netlist: empty input")
	}
	c := NewCircuit(strings.TrimSpace(lines[0].text))
	cards := len(lines) - 1
	c.Elems = make([]*Element, 0, cards)
	p := &fileParser{
		ckt:   c,
		elems: arena[Element]{next: firstChunk, left: cards},
		strs:  arena[string]{next: 3 * firstChunk, left: math.MaxInt},
	}
	for _, ln := range lines[1:] {
		if err := p.line(ln.text); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", ln.num, err)
		}
	}
	if p.curSub != nil {
		return nil, fmt.Errorf("netlist: unterminated .subckt %q", p.curSub.Name)
	}
	if err := p.resolveParams(); err != nil {
		return nil, err
	}
	if err := p.evalTopLevel(); err != nil {
		return nil, err
	}
	return c, nil
}

type srcLine struct {
	num  int // 1-based source line; 0 marks a '+' continuation
	text string
}

// preprocess strips comments and joins continuation lines, tracking
// original line numbers. The kept text is copied once into a string of
// exactly its size and every line is a substring of that copy, so what
// the parsed circuit keeps alive is the card text, not the comments or
// the caller's whole input.
func preprocess(src string) []srcLine {
	out := make([]srcLine, 0, strings.Count(src, "\n")+1)
	size := 0
	for i, more := 0, true; more; i++ {
		var l string
		l, src, more = strings.Cut(src, "\n")
		// Strip inline comments.
		if j := strings.IndexByte(l, ';'); j >= 0 {
			l = l[:j]
		}
		if j := strings.Index(l, "$ "); j >= 0 {
			l = l[:j]
		}
		trimmed := strings.TrimRight(l, " \t\r")
		t := strings.TrimSpace(trimmed)
		if i > 0 && (t == "" || t[0] == '*') {
			continue
		}
		if len(out) > 0 && strings.HasPrefix(t, "+") {
			out = append(out, srcLine{text: t[1:]})
			size += len(t) // ' ' + t[1:]
			continue
		}
		out = append(out, srcLine{num: i + 1, text: trimmed})
		size += len(trimmed)
	}
	// Copy the kept text, appending each continuation to its line, and
	// compact out in place: line n is written from entry i >= n. The
	// builder never reallocates, so each b.String() view stays valid.
	var b strings.Builder
	b.Grow(size)
	n := 0
	for _, ln := range out {
		if ln.num == 0 {
			start := b.Len() - len(out[n-1].text)
			b.WriteByte(' ')
			b.WriteString(ln.text)
			out[n-1].text = b.String()[start:]
			continue
		}
		start := b.Len()
		b.WriteString(ln.text)
		out[n] = srcLine{num: ln.num, text: b.String()[start:]}
		n++
	}
	return out[:n]
}

// firstChunk is the size of an arena's first chunk when the pass cannot
// tell how many items it will carve.
const firstChunk = 16

// arena hands out slices carved from chunks, so a pass allocates per
// chunk rather than per item. Each chunk is twice the size of the last,
// capped at the items still to come, so a pass that stops early pays
// only for what it carved. Each slice's capacity is its length, so
// appending to one reallocates instead of writing into its neighbour.
type arena[T any] struct {
	buf  []T
	next int // size of the next chunk
	left int // most items still to be taken
}

func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < n {
		size := max(min(a.next, a.left), n)
		a.buf = make([]T, 0, size)
		a.next = 2 * size
	}
	a.left -= n
	i := len(a.buf)
	a.buf = a.buf[:i+n]
	return a.buf[i : i+n : i+n]
}

// nodes returns the lower-cased copy of ss carved from the string arena.
func (p *fileParser) nodes(ss []string) []string {
	out := p.strs.take(len(ss))
	for i, s := range ss {
		out[i] = strings.ToLower(s)
	}
	return out
}

type fileParser struct {
	ckt    *Circuit
	curSub *Subckt
	// rawParam holds the unevaluated top-level .param expressions and
	// paramOrder their names in source order.
	rawParam   map[string]string
	paramOrder []string

	elems arena[Element]
	strs  arena[string]
	// toks, pos and keys are per-card scratch, reused card after card.
	toks, pos, keys []string
}

// addSubParam records a subckt parameter default; flattening evaluates
// it per instance.
func addSubParam(s *Subckt, k, expr string) {
	if s.ParamExprs == nil {
		s.ParamExprs = map[string]string{}
	}
	if _, dup := s.ParamExprs[k]; !dup {
		s.paramKeys = append(s.paramKeys, k)
	}
	s.ParamExprs[k] = expr
}

// tokenize splits a card into tokens. Curly-brace expressions {..} stay
// single tokens; parentheses and commas act as whitespace; "a = b" is
// joined to "a=b". The tokens are substrings of s (only a joined "a=b"
// is a new string) in a buffer the next call reuses.
func (p *fileParser) tokenize(s string) []string {
	toks := p.toks[:0]
	depth, start := 0, -1
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if depth > 0 {
			switch ch {
			case '{':
				depth++
			case '}':
				depth--
			}
			continue
		}
		switch ch {
		case ' ', '\t', '(', ')', ',':
			if start >= 0 {
				toks = append(toks, s[start:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
			if ch == '{' {
				depth++
			}
		}
	}
	if start >= 0 {
		toks = append(toks, s[start:])
	}
	if strings.IndexByte(s, '=') >= 0 {
		toks = joinEquals(toks)
	}
	p.toks = toks
	return toks
}

// joinEquals joins "a = b", "a= b" and "a =b" into "a=b" in place.
func joinEquals(toks []string) []string {
	out := toks[:0]
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch {
		case t == "=" && len(out) > 0 && i+1 < len(toks):
			out[len(out)-1] += "=" + toks[i+1]
			i++
		case strings.HasSuffix(t, "=") && i+1 < len(toks):
			out = append(out, t+toks[i+1])
			i++
		case strings.HasPrefix(t, "=") && len(out) > 0:
			out[len(out)-1] += t
		default:
			out = append(out, t)
		}
	}
	return out
}

func (p *fileParser) line(text string) error {
	t := strings.TrimSpace(text)
	if t == "" || strings.HasPrefix(t, "*") {
		return nil
	}
	if strings.HasPrefix(t, ".") {
		return p.directive(t)
	}
	e, err := p.element(t)
	if err != nil {
		return err
	}
	if p.curSub != nil {
		p.curSub.Elems = append(p.curSub.Elems, e)
	} else {
		p.ckt.Add(e)
	}
	return nil
}

func (p *fileParser) directive(t string) error {
	tokens := p.tokenize(t)
	key := strings.ToLower(tokens[0])
	switch key {
	case ".end":
		return nil
	case ".title":
		p.ckt.Title = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(t), tokens[0]))
		return nil
	case ".temp":
		if len(tokens) < 2 {
			return fmt.Errorf(".temp needs a value")
		}
		v, err := num.ParseValue(tokens[1])
		if err != nil {
			return err
		}
		p.ckt.Temp = v
		return nil
	case ".option", ".options":
		for _, tok := range tokens[1:] {
			k, vs, ok := strings.Cut(tok, "=")
			if !ok {
				p.ckt.Options[strings.ToLower(tok)] = 1
				continue
			}
			v, err := num.ParseValue(vs)
			if err != nil {
				return fmt.Errorf(".option %s: %v", tok, err)
			}
			p.ckt.Options[strings.ToLower(k)] = v
		}
		return nil
	case ".param", ".parameters":
		for _, tok := range tokens[1:] {
			k, vs, ok := strings.Cut(tok, "=")
			if !ok {
				return fmt.Errorf(".param wants name=value, got %q", tok)
			}
			k = strings.ToLower(k)
			if p.curSub != nil {
				// Subckt-local params are defaults, evaluated per instance
				// during flatten.
				p.curSub.Params[k] = 0 // placeholder
				addSubParam(p.curSub, k, stripBraces(vs))
				continue
			}
			if p.rawParam == nil {
				p.rawParam = map[string]string{}
			}
			if _, dup := p.rawParam[k]; !dup {
				p.paramOrder = append(p.paramOrder, k)
			}
			p.rawParam[k] = stripBraces(vs)
		}
		return nil
	case ".subckt":
		if p.curSub != nil {
			return fmt.Errorf("nested .subckt not supported")
		}
		if len(tokens) < 2 {
			return fmt.Errorf(".subckt needs a name")
		}
		sub := &Subckt{
			Name:   strings.ToLower(tokens[1]),
			Params: map[string]float64{},
			Models: map[string]*Model{},
		}
		for _, tok := range tokens[2:] {
			if k, vs, ok := strings.Cut(tok, "="); ok {
				k = strings.ToLower(k)
				sub.Params[k] = 0
				addSubParam(sub, k, stripBraces(vs))
				continue
			}
			if strings.EqualFold(tok, "params:") {
				continue
			}
			sub.Ports = append(sub.Ports, strings.ToLower(tok))
		}
		p.curSub = sub
		return nil
	case ".ends":
		if p.curSub == nil {
			return fmt.Errorf(".ends without .subckt")
		}
		p.ckt.Subckts[p.curSub.Name] = p.curSub
		p.curSub = nil
		return nil
	case ".model":
		if len(tokens) < 3 {
			return fmt.Errorf(".model needs name and type")
		}
		m := &Model{
			Name:   strings.ToLower(tokens[1]),
			Type:   strings.ToLower(tokens[2]),
			Params: map[string]float64{},
		}
		for _, tok := range tokens[3:] {
			k, vs, ok := strings.Cut(tok, "=")
			if !ok {
				return fmt.Errorf(".model parameter %q wants name=value", tok)
			}
			v, err := num.ParseValue(vs)
			if err != nil {
				return fmt.Errorf(".model %s: %v", tok, err)
			}
			m.Params[strings.ToLower(k)] = v
		}
		if p.curSub != nil {
			p.curSub.Models[m.Name] = m
		} else {
			p.ckt.Models[m.Name] = m
		}
		return nil
	case ".nodeset", ".ic":
		// Tokens arrive as ["v", "node=value", ...] because parentheses
		// split tokens. Accept bare "node=value" too.
		for _, tok := range tokens[1:] {
			if strings.EqualFold(tok, "v") {
				continue
			}
			k, vs, ok := strings.Cut(tok, "=")
			if !ok {
				return fmt.Errorf("%s wants v(node)=value pairs, got %q", key, tok)
			}
			v, err := num.ParseValue(vs)
			if err != nil {
				return fmt.Errorf("%s %s: %v", key, tok, err)
			}
			if p.ckt.NodeSet == nil {
				p.ckt.NodeSet = map[string]float64{}
			}
			p.ckt.NodeSet[strings.ToLower(k)] = v
		}
		return nil
	case ".include", ".lib":
		return fmt.Errorf("%s is not supported (offline, single-file netlists)", key)
	default:
		return fmt.Errorf("unknown directive %q", tokens[0])
	}
}

func stripBraces(s string) string {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}") {
		return s[1 : len(s)-1]
	}
	return s
}

// elemType reads the element kind from the first byte of its name.
func elemType(name string) ElemType {
	c := name[0]
	if c >= utf8.RuneSelf {
		return ElemType(strings.ToUpper(name)[0])
	}
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	return ElemType(c)
}

// splitKV separates a card's positional tokens from its k=v parameters.
// The positional tokens land in per-card scratch; the parameter map is
// made only when the card has one, and e.paramKeys records its keys in
// source order.
func (p *fileParser) splitKV(e *Element, toks []string) (pos []string, kv map[string]string) {
	pos, keys := p.pos[:0], p.keys[:0]
	for _, tok := range toks {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" {
			pos = append(pos, tok)
			continue
		}
		if kv == nil {
			kv = map[string]string{}
		}
		k = strings.ToLower(k)
		if _, dup := kv[k]; !dup {
			keys = append(keys, k)
		}
		kv[k] = stripBraces(v)
	}
	p.pos, p.keys = pos, keys
	e.paramKeys = p.strs.take(len(keys))
	copy(e.paramKeys, keys)
	return pos, kv
}

// element parses one element card into an Element with raw (unevaluated)
// value and parameter expressions.
func (p *fileParser) element(t string) (*Element, error) {
	tokens := p.tokenize(t)
	if len(tokens) == 0 {
		return nil, fmt.Errorf("empty element card")
	}
	name := tokens[0]
	typ := elemType(name)
	e := &p.elems.take(1)[0]
	e.Name, e.Type = strings.ToLower(name), typ
	args := tokens[1:]
	switch typ {
	case Resistor, Capacitor, Inductor:
		pos, kv := p.splitKV(e, args)
		if len(pos) < 3 {
			return nil, fmt.Errorf("%s %q needs 2 nodes and a value", typ, name)
		}
		e.Nodes = p.nodes(pos[:2])
		e.ValueExpr = stripBraces(pos[2])
		e.ParamExprs = kv
	case VSource, ISource:
		if len(args) < 2 {
			return nil, fmt.Errorf("%s %q needs 2 nodes", typ, name)
		}
		e.Nodes = p.nodes(args[:2])
		e.srcTokens = p.strs.take(len(args) - 2)
		copy(e.srcTokens, args[2:])
		if e.srcTokens == nil {
			e.srcTokens = []string{} // no arguments still means a zero spec
		}
	case VCVS, VCCS:
		pos, kv := p.splitKV(e, args)
		if len(pos) < 5 {
			return nil, fmt.Errorf("%s %q needs 4 nodes and a gain", typ, name)
		}
		e.Nodes = p.nodes(pos[:4])
		e.ValueExpr = stripBraces(pos[4])
		e.ParamExprs = kv
	case CCCS, CCVS:
		pos, kv := p.splitKV(e, args)
		if len(pos) < 4 {
			return nil, fmt.Errorf("%s %q needs 2 nodes, a control source, and a gain", typ, name)
		}
		e.Nodes = p.nodes(pos[:2])
		e.Ctrl = strings.ToLower(pos[2])
		e.ValueExpr = stripBraces(pos[3])
		e.ParamExprs = kv
	case Diode:
		pos, kv := p.splitKV(e, args)
		if len(pos) < 3 {
			return nil, fmt.Errorf("diode %q needs 2 nodes and a model", name)
		}
		e.Nodes = p.nodes(pos[:2])
		e.Model = strings.ToLower(pos[2])
		e.ParamExprs = kv
	case BJT:
		pos, kv := p.splitKV(e, args)
		if len(pos) < 4 {
			return nil, fmt.Errorf("bjt %q needs 3 nodes and a model", name)
		}
		e.Nodes = p.nodes(pos[:3])
		e.Model = strings.ToLower(pos[3])
		if len(pos) > 4 { // optional positional area factor
			if kv == nil {
				kv = map[string]string{}
			}
			if _, dup := kv["area"]; !dup {
				e.paramKeys = append(e.paramKeys, "area")
			}
			kv["area"] = pos[4]
		}
		e.ParamExprs = kv
	case MOSFET:
		pos, kv := p.splitKV(e, args)
		if len(pos) < 5 {
			return nil, fmt.Errorf("mosfet %q needs 4 nodes and a model", name)
		}
		e.Nodes = p.nodes(pos[:4])
		e.Model = strings.ToLower(pos[4])
		e.ParamExprs = kv
	case Subcall:
		pos, kv := p.splitKV(e, args)
		if len(pos) < 1 {
			return nil, fmt.Errorf("subckt call %q needs a subckt name", name)
		}
		// Last positional token is the subckt name; the rest are nodes.
		e.Nodes = p.nodes(pos[:len(pos)-1])
		e.Model = strings.ToLower(pos[len(pos)-1])
		e.ParamExprs = kv
	default:
		return nil, fmt.Errorf("unknown element type %q", string(byte(typ)))
	}
	return e, nil
}

// resolveParams evaluates .param expressions, iterating to a fixpoint so
// parameters may reference each other in any order. Each pass and the
// error report follow source order.
func (p *fileParser) resolveParams() error {
	pending := p.paramOrder
	for pass := 0; len(pending) > 0; pass++ {
		kept := pending[:0]
		for _, k := range pending {
			v, err := EvalExpr(p.rawParam[k], p.ckt.Params)
			if err != nil {
				kept = append(kept, k)
				continue
			}
			p.ckt.Params[k] = v
		}
		if len(kept) == len(pending) {
			k := kept[0]
			_, err := EvalExpr(p.rawParam[k], p.ckt.Params)
			return fmt.Errorf("netlist: .param %s=%s: %v", k, p.rawParam[k], err)
		}
		pending = kept
		if pass > 100 {
			return fmt.Errorf("netlist: circular .param definitions")
		}
	}
	return nil
}

// evalTopLevel evaluates the values, parameters, and source specs of all
// top-level elements against the global design variables.
func (p *fileParser) evalTopLevel() error {
	for _, e := range p.ckt.Elems {
		if err := evalElement(e, p.ckt.Params); err != nil {
			return err
		}
	}
	return nil
}

// evalElement resolves an element's raw expressions using scope. Parts
// already marked in e.fixed keep their value; each part it evaluates is
// marked when its expressions read no design variable, so a later
// Flatten copies it instead of evaluating it again.
func evalElement(e *Element, scope map[string]float64) error {
	if e.ValueExpr != "" && e.fixed&fixedValue == 0 {
		v, reads, err := evalExpr(e.ValueExpr, scope)
		if err != nil {
			return fmt.Errorf("netlist: %s value: %v", e.Name, err)
		}
		e.Value = v
		if !reads {
			e.fixed |= fixedValue
		}
	}
	if len(e.ParamExprs) > 0 && e.fixed&fixedParams == 0 {
		if e.Params == nil {
			e.Params = make(map[string]float64, len(e.ParamExprs))
		}
		anyReads := false
		for k, expr := range e.ParamExprs {
			v, reads, err := evalExpr(expr, scope)
			if err != nil {
				k, err = firstFailure(e.ParamExprs, e.paramKeys, scope)
				return fmt.Errorf("netlist: %s param %s: %v", e.Name, k, err)
			}
			e.Params[k] = v
			anyReads = anyReads || reads
		}
		if !anyReads {
			e.fixed |= fixedParams
		}
	}
	if e.srcTokens != nil && e.fixed&fixedSrc == 0 {
		src, reads, err := parseSource(e.srcTokens, scope)
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", e.Name, err)
		}
		e.Src = src
		if !reads {
			e.fixed |= fixedSrc
		}
	}
	return nil
}

// firstFailure returns the first parameter of exprs, in source order,
// whose expression fails in scope, with its error, so a card with several
// bad parameters reports the same one on every run. keys holds the names
// in source order; names it lacks (set programmatically) follow sorted.
func firstFailure(exprs map[string]string, keys []string, scope map[string]float64) (string, error) {
	order := make([]string, 0, len(exprs))
	for _, k := range keys {
		if _, ok := exprs[k]; ok {
			order = append(order, k)
		}
	}
	if len(order) < len(exprs) {
		var rest []string
		for k := range exprs {
			if !slices.Contains(keys, k) {
				rest = append(rest, k)
			}
		}
		sort.Strings(rest)
		order = append(order, rest...)
	}
	for _, k := range order {
		if _, err := EvalExpr(exprs[k], scope); err != nil {
			return k, err
		}
	}
	return "", nil
}

// parseSource parses independent source arguments:
//
//	[dcval] [DC val] [AC mag [phase]] [PULSE v1 v2 td tr tf pw per]
//	[SIN vo va freq td theta] [PWL t1 v1 t2 v2 ...]
//
// It also reports whether any token read (or looked for) a design
// variable.
func parseSource(tokens []string, scope map[string]float64) (*SourceSpec, bool, error) {
	s := &SourceSpec{}
	anyReads := false
	val := func(tok string) (float64, error) {
		v, reads, err := evalExpr(stripBraces(tok), scope)
		anyReads = anyReads || reads
		return v, err
	}
	i := 0
	// Optional leading bare DC value.
	if i < len(tokens) {
		if v, err := val(tokens[i]); err == nil {
			s.DC = v
			i++
		}
	}
	for i < len(tokens) {
		switch strings.ToLower(tokens[i]) {
		case "dc":
			if i+1 >= len(tokens) {
				return nil, false, fmt.Errorf("DC needs a value")
			}
			v, err := val(tokens[i+1])
			if err != nil {
				return nil, false, err
			}
			s.DC = v
			i += 2
		case "ac":
			i++
			s.ACMag = 1
			if i < len(tokens) {
				if v, err := val(tokens[i]); err == nil {
					s.ACMag = v
					i++
					if i < len(tokens) {
						if ph, err := val(tokens[i]); err == nil {
							s.ACPhase = ph
							i++
						}
					}
				}
			}
		case "pulse":
			vals, n, err := takeVals(tokens[i+1:], 7, val)
			if err != nil {
				return nil, false, fmt.Errorf("PULSE: %v", err)
			}
			f := PulseFunc{}
			set := []*float64{&f.V1, &f.V2, &f.TD, &f.TR, &f.TF, &f.PW, &f.PER}
			for j, v := range vals {
				*set[j] = v
			}
			if f.PW == 0 {
				f.PW = 1 // effectively a step within any realistic window
			}
			s.Tran = f
			i += 1 + n
		case "sin":
			vals, n, err := takeVals(tokens[i+1:], 5, val)
			if err != nil {
				return nil, false, fmt.Errorf("SIN: %v", err)
			}
			f := SinFunc{}
			set := []*float64{&f.VO, &f.VA, &f.Freq, &f.TD, &f.Theta}
			for j, v := range vals {
				*set[j] = v
			}
			s.Tran = f
			i += 1 + n
		case "pwl":
			vals, n, err := takeVals(tokens[i+1:], 1000, val)
			if err != nil {
				return nil, false, fmt.Errorf("PWL: %v", err)
			}
			if len(vals) < 2 || len(vals)%2 != 0 {
				return nil, false, fmt.Errorf("PWL wants time/value pairs")
			}
			f := PWLFunc{}
			for j := 0; j < len(vals); j += 2 {
				f.T = append(f.T, vals[j])
				f.V = append(f.V, vals[j+1])
			}
			s.Tran = f
			i += 1 + n
		default:
			return nil, false, fmt.Errorf("unexpected source token %q", tokens[i])
		}
	}
	return s, anyReads, nil
}

// takeVals consumes up to max numeric tokens, stopping at the first
// non-numeric one.
func takeVals(tokens []string, max int, val func(string) (float64, error)) ([]float64, int, error) {
	var out []float64
	for _, tok := range tokens {
		if len(out) >= max {
			break
		}
		v, err := val(tok)
		if err != nil {
			break
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("expected numeric arguments")
	}
	return out, len(out), nil
}
