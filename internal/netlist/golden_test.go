package netlist_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
)

// deckText renders a built circuit the way a captured deck reaches the
// tool: the flattened netlist text plus the .nodeset hints that Format
// drops.
func deckText(t testing.TB, c *netlist.Circuit) string {
	t.Helper()
	flat, err := netlist.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	text := netlist.Format(flat)
	if len(c.NodeSet) == 0 {
		return text
	}
	nodes := make([]string, 0, len(c.NodeSet))
	for n := range c.NodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var sb strings.Builder
	sb.WriteString(strings.TrimSuffix(text, ".end\n"))
	sb.WriteString(".nodeset")
	for _, n := range nodes {
		fmt.Fprintf(&sb, " v(%s)=%g", n, c.NodeSet[n])
	}
	sb.WriteString("\n.end\n")
	return sb.String()
}

// cornerDeck is the Table 2 circuit with its compensation knobs as
// .param design variables: the element values become {name} or an
// expression over the variable, and one .param card declares them.
func cornerDeck(t testing.TB) string {
	lines := strings.Split(deckText(t, circuits.FullCircuit()), "\n")
	exprs := map[string]string{"c1": "{c1}", "rzero": "{rzero*1}", "cload": "{ cload / 2 * 2 }"}
	decl := ".param"
	for i, ln := range lines[1:] {
		f := strings.Fields(ln)
		if len(f) < 4 {
			continue
		}
		if e, ok := exprs[f[0]]; ok {
			decl += fmt.Sprintf(" %s=%s", f[0], f[len(f)-1])
			f[len(f)-1] = e
			lines[i+1] = strings.Join(f, " ")
		}
	}
	return strings.Join(append([]string{lines[0], decl}, lines[1:]...), "\n")
}

// overrideDeck reads design variables in element values, instance and
// subckt parameters and source specs, beside literal values that must
// not move when the variables do.
const overrideDeck = `override
.param x=1k y=2 z={x*y}
.subckt cell a b params: rc={x/2}
Rc a b {rc}
Rk b 0 1k
.ends
R1 a 0 {x}
R2 a 0 2k
R3 a 0 {2*1k}
R4 a b {z} tc1={y*1m} tc2=1u
C1 b 0 {1p*y}
V1 a 0 DC {y} AC 1
I1 b 0 DC 1m AC {y}
X1 a c cell
X2 c 0 cell rc={y*100}
`

type frontEndDeck struct {
	name string
	src  string
	vars map[string]float64 // design-variable overrides applied before Flatten
}

func frontEndDecks(t testing.TB) []frontEndDeck {
	var decks []frontEndDeck
	for i, src := range netlist.ParseSeeds {
		decks = append(decks, frontEndDeck{name: fmt.Sprintf("seed-%02d", i), src: src})
	}
	for i, src := range netlist.RobustnessDecks {
		decks = append(decks, frontEndDeck{name: fmt.Sprintf("robustness-%d", i), src: src})
	}
	builders := []struct {
		name string
		c    *netlist.Circuit
	}{
		{"second-order", circuits.SecondOrder(0.3, 1e6)},
		{"opamp-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults())},
		{"opamp-open-loop", circuits.OpAmpOpenLoop(circuits.OpAmpDefaults())},
		{"bias-circuit", circuits.BiasCircuit(circuits.BiasDefaults())},
		{"full-circuit", circuits.FullCircuit()},
		{"rc-ladder-8", circuits.RCLadder(8)},
		{"field-32", circuits.ResonatorField(32, 1e5, 0.35)},
		{"transistor-opamp", circuits.TransistorOpAmp()},
		{"transistor-bias", circuits.TransistorBias()},
		{"snubbed-bias", circuits.SnubbedBias(1e3, 10e-12)},
	}
	for _, b := range builders {
		decks = append(decks, frontEndDeck{name: b.name, src: deckText(t, b.c)})
	}
	corner := cornerDeck(t)
	decks = append(decks,
		frontEndDeck{name: "table2-corner", src: corner},
		frontEndDeck{name: "table2-corner-moved", src: corner,
			vars: map[string]float64{"c1": 3e-12, "rzero": 12e3, "cload": 7e-12}},
		frontEndDeck{name: "override", src: overrideDeck},
		frontEndDeck{name: "override-moved", src: overrideDeck,
			vars: map[string]float64{"x": 5e3, "y": 3}},
	)
	return decks
}

// frontEndDump parses each deck, applies its overrides and flattens it,
// dumping both circuits (or the error that stopped the deck).
func frontEndDump(t testing.TB) string {
	var b strings.Builder
	for _, d := range frontEndDecks(t) {
		fmt.Fprintf(&b, "=== %s\n", d.name)
		c, err := netlist.Parse(d.src)
		if err != nil {
			fmt.Fprintf(&b, "parse error: %v\n", err)
			continue
		}
		b.WriteString("--- parse\n" + netlist.Dump(c))
		for k, v := range d.vars {
			if _, ok := c.Params[k]; !ok {
				t.Fatalf("%s: no design variable %q", d.name, k)
			}
			c.Params[k] = v
		}
		flat, err := netlist.Flatten(c)
		if err != nil {
			fmt.Fprintf(&b, "flatten error: %v\n", err)
			continue
		}
		b.WriteString("--- flatten\n" + netlist.Dump(flat))
	}
	return b.String()
}

// TestFrontEndGolden pins every field Parse and Flatten produce on the
// fuzz seeds, the robustness decks, every circuit builder's deck and the
// Table 2 corner deck, byte for byte. On a mismatch it writes the current
// dump to a file under the system temp directory and names it; a change
// that moves the parsed circuit on purpose copies that file over
// internal/netlist/testdata/frontend.golden and says why.
func TestFrontEndGolden(t *testing.T) {
	path := filepath.Join("testdata", "frontend.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := frontEndDump(t)
	if got == string(want) {
		return
	}
	if f, err := os.CreateTemp("", "frontend-*.golden"); err == nil {
		_, werr := f.WriteString(got)
		if cerr := f.Close(); werr == nil && cerr == nil {
			t.Logf("current dump written to %s", f.Name())
		}
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("front end differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("front end dump has %d lines, %s %d", len(gl), path, len(wl))
}

// TestOverrideMovesOnlyExpressions checks that a design variable changed
// after Parse reaches every expression that reads it, and no literal.
func TestOverrideMovesOnlyExpressions(t *testing.T) {
	c, err := netlist.Parse(overrideDeck)
	if err != nil {
		t.Fatal(err)
	}
	c.Params["x"] = 5e3
	c.Params["y"] = 3
	flat, err := netlist.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"r1":    5e3,   // {x}
		"r2":    2e3,   // literal
		"r3":    2e3,   // {2*1k}: no variable
		"r4":    2e3,   // {z}: .param z is not re-derived from x and y
		"c1":    3e-12, // {1p*y}
		"x1.rc": 2.5e3, // subckt default {x/2}
		"x1.rk": 1e3,
	}
	for name, v := range want {
		e := flat.Element(name)
		if e == nil || e.Value != v {
			t.Errorf("%s = %+v, want value %g", name, e, v)
		}
	}
	if r4 := flat.Element("r4"); r4.Params["tc1"] != 3e-3 || r4.Params["tc2"] != 1e-6 {
		t.Errorf("r4 params = %v", r4.Params)
	}
	if v1 := flat.Element("v1").Src; v1.DC != 3 || v1.ACMag != 1 {
		t.Errorf("v1 src = %+v", v1)
	}
	if i1 := flat.Element("i1").Src; i1.DC != 1e-3 || i1.ACMag != 3 {
		t.Errorf("i1 src = %+v", i1)
	}
}
