package netlist

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// dump renders every exported field of c in a canonical text form: maps
// in key order and floats with their exact bits, so two circuits with
// equal dumps are equal field for field. Nil and empty maps and slices
// are not told apart.
func dump(c *Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "title %q\ntemp %s\n", c.Title, fbits(c.Temp))
	dumpFloats(&b, "", "params", c.Params)
	dumpFloats(&b, "", "options", c.Options)
	dumpFloats(&b, "", "nodeset", c.NodeSet)
	dumpModels(&b, "", c.Models)
	for _, k := range sortedMapKeys(c.Subckts) {
		s := c.Subckts[k]
		fmt.Fprintf(&b, "subckt %q name=%q ports=%q\n", k, s.Name, s.Ports)
		dumpFloats(&b, "  ", "params", s.Params)
		dumpStrings(&b, "  ", "paramexprs", s.ParamExprs)
		dumpModels(&b, "  ", s.Models)
		for _, e := range s.Elems {
			dumpElement(&b, "  ", e)
		}
	}
	for _, e := range c.Elems {
		dumpElement(&b, "", e)
	}
	return b.String()
}

func dumpElement(b *strings.Builder, indent string, e *Element) {
	fmt.Fprintf(b, "%selem %q type=%c nodes=%q value=%s valueexpr=%q model=%q ctrl=%q\n",
		indent, e.Name, byte(e.Type), e.Nodes, fbits(e.Value), e.ValueExpr, e.Model, e.Ctrl)
	in := indent + "  "
	dumpFloats(b, in, "params", e.Params)
	dumpStrings(b, in, "paramexprs", e.ParamExprs)
	if e.Src == nil {
		return
	}
	fmt.Fprintf(b, "%ssrc dc=%s acmag=%s acphase=%s tran=", in,
		fbits(e.Src.DC), fbits(e.Src.ACMag), fbits(e.Src.ACPhase))
	switch f := e.Src.Tran.(type) {
	case nil:
		b.WriteString("none")
	case PulseFunc:
		b.WriteString("pulse" + fbitsList(f.V1, f.V2, f.TD, f.TR, f.TF, f.PW, f.PER))
	case SinFunc:
		b.WriteString("sin" + fbitsList(f.VO, f.VA, f.Freq, f.TD, f.Theta))
	case PWLFunc:
		b.WriteString("pwl t" + fbitsList(f.T...) + " v" + fbitsList(f.V...))
	default:
		fmt.Fprintf(b, "%T %v", f, f)
	}
	b.WriteByte('\n')
}

func dumpModels(b *strings.Builder, indent string, m map[string]*Model) {
	for _, k := range sortedMapKeys(m) {
		fmt.Fprintf(b, "%smodel %q name=%q type=%q\n", indent, k, m[k].Name, m[k].Type)
		dumpFloats(b, indent+"  ", "params", m[k].Params)
	}
}

func dumpFloats(b *strings.Builder, indent, label string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(b, "%s%s", indent, label)
	for _, k := range sortedMapKeys(m) {
		fmt.Fprintf(b, " %s=%s", k, fbits(m[k]))
	}
	b.WriteByte('\n')
}

func dumpStrings(b *strings.Builder, indent, label string, m map[string]string) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(b, "%s%s", indent, label)
	for _, k := range sortedMapKeys(m) {
		fmt.Fprintf(b, " %s=%q", k, m[k])
	}
	b.WriteByte('\n')
}

// fbits prints v readably and exactly.
func fbits(v float64) string { return fmt.Sprintf("%v/%016x", v, math.Float64bits(v)) }

func fbitsList(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fbits(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sortedMapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseSeeds is the hand-written deck corpus shared by FuzzParse and the
// front-end golden: every card kind, hierarchy, sources, the tokenizer's
// edge cases (continuations, ';' and '$ ' comments, CRLF, upper case,
// spaced '='), and decks Parse or Flatten must reject.
var parseSeeds = []string{
	"rc lowpass\nR1 in out 1k\nC1 out 0 1u\nV1 in 0 DC 1 AC 1\n.end\n",
	"ctrl\nV1 in 0 1\nR1 in mid 1k\nE1 e1o 0 in 0 10\nG1 g1o 0 mid 0 1m\nF1 f1o 0 V1 5\nH1 h1o 0 V1 2k\nRm mid 0 1k\n",
	"devices\nD1 a 0 dmod\nQ1 c b e qnpn\nM1 d g s 0 nch w=10u l=1u\n.model dmod d is=1e-14\n" +
		".model qnpn npn (is=1e-16 bf=100 vaf=50)\n.model nch nmos (vto=0.7 kp=100u lambda=0.02)\n",
	"params\n.param rload=2k\n.param cval={1/(2*pi*rload*fc)} fc=1meg\nR1 out 0 {rload}\nC1 out 0 {cval}\n",
	"hier\n.subckt divider in out params: rtop=1k rbot=1k\nRt in out {rtop}\nRb out 0 {rbot}\n.ends\n" +
		"X1 a mid divider rtop=2k\nX2 mid b divider rbot=500\nV1 a 0 1\nR1 b 0 1k\n",
	"nested\n.subckt inner a b\nR1 a b 1k\n.ends\n.subckt outer x y\nX1 x m inner\nX2 m y inner\n.ends\nXtop p q outer\n",
	"sources\nV1 a 0 PULSE(0 1 1u 1n 1n 5u 10u)\nV2 b 0 SIN(0 1 1k)\nV3 c 0 PWL(0 0 1m 1 2m 0)\nI1 d 0 DC 1m AC 2 45\n",
	"t\n.nodeset v(a)=1\nR1 a 0 1k\n+ \n* comment\nR2 a 0 2k ; trailing\n",
	"t\nR1 a 0\n",
	"t\n.subckt s a\nR1 a 0 1k\n",
	"t\n.ends\n",
	"t\n.model foo\n",
	"t\nR1 a 0 {undefined_param}\n",
	// Tokenizer edge cases.
	"Edge Cases\r\nR1 IN Out\r\n+ 2.2K ; inline comment\r\nC1 out 0 1P $ dollar comment\r\n" +
		"V1 in 0 DC 1 AC 1\r\n.PARAM Gain = 10 Off= 2 Rx =5k\r\nE1 e 0 in 0 {gain}\r\n" +
		"M1 d g s 0 NCH W = 10u L= 1u\r\n.MODEL NCH NMOS (VTO = 0.7 KP=100u)\r\n.OPTION RelTol = 1e-4 gmin\r\n" +
		".Temp 50\r\nRd d 0 {rx}\r\nX1 in mid DIV RTOP = {rx*off}\r\n.SUBCKT div a b PARAMS: rtop=1k\r\n" +
		"Rt a b {rtop}\r\n.param rbot = {rx/2}\r\nRb b 0 {rbot}\r\n.ENDS\r\n.end\r\n",
	"spaced\nR1 a 0 1k tc1 = 1m tc2= 2u\nQ1 c b 0 qn 2\n.model qn npn (is = 1e-16)\n" +
		"V1 a 0\n+ DC 1\n+ AC 1 90\nI1 b 0 {2*1m}\n.title Real Title\n",
	"spaced eq\nR1 a 0 {1k}\nR3 b 0 3k w = 2\nR4 a b 1k l =3 \n",
	"t\nR3 b 0 3k w =\n",
}

// robustnessDecks are the decks TestParseFlattenFormatNeverPanicQuick
// round-trips through Parse, Flatten and Format.
var robustnessDecks = []string{
	"t\nR1 a 0 1k\n",
	"t\n.subckt s a\nR1 a 0 1k\n.ends\nX1 n s\nR2 n 0 1\n",
	"t\nV1 a 0 PULSE(0 1 0 1n 1n 1u 2u)\nR1 a 0 50\n",
	"t\n.param x=2\nR1 a 0 {x*1k}\n",
}
