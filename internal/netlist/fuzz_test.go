package netlist

import "testing"

// FuzzParse feeds arbitrary text to the netlist parser, the entry point
// for untrusted decks (CLI files and farm requests alike). Parse may
// reject its input but must not panic, and neither may flattening or
// re-formatting what it accepts. What it accepts must parse the same
// twice, survive Flatten unchanged, and hold node lists that do not
// alias each other. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/netlist
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		parsed := dump(c)
		again, err := Parse(src)
		if err != nil || dump(again) != parsed {
			t.Fatalf("a second parse of the same deck differs (err %v)", err)
		}
		flat, err := Flatten(c)
		if dump(c) != parsed {
			t.Fatal("Flatten changed its input circuit")
		}
		checkNodesIsolated(t, c)
		if err != nil {
			return
		}
		checkNodesIsolated(t, flat)
		_ = Format(flat)
	})
}

// checkNodesIsolated appends to each element's node list in turn and
// fails if that changed any element: node lists carved from shared
// storage must not reach into their neighbours.
func checkNodesIsolated(t *testing.T, c *Circuit) {
	t.Helper()
	elems := c.Elems
	for _, s := range c.Subckts {
		elems = append(elems[:len(elems):len(elems)], s.Elems...)
	}
	before := dump(c)
	for _, e := range elems {
		_ = append(e.Nodes, "appended")
		if dump(c) != before {
			t.Fatalf("appending to %s's nodes changed another element", e.Name)
		}
	}
}

// FuzzEvalExpr feeds arbitrary text to the design-variable expression
// evaluator on its own, the path every {expr} in an untrusted deck and
// every corner override takes. It may reject its input or return a
// non-finite value, but must not panic. Run it with
//
//	go test -run '^$' -fuzz '^FuzzEvalExpr$' -fuzztime 10s ./internal/netlist
func FuzzEvalExpr(f *testing.F) {
	for _, expr := range []string{
		// TestEvalExpr
		"1+2", "a*b_x", "2^3", "2^3^2", "sqrt(16)", "min(2, 3)", "max(2, 3)",
		"pow(2, 10)", "1k + 1", "2*pi", "-a^2", "exp(0)", "ln(exp(2))",
		"log10(1000)", "abs(-5)", "atan(1)*4",
		// TestEvalExprErrors
		"", "1/0", "nosuch", "f(1)", "(1", "1+", "sqrt(1,2)",
		// robustness_test.go fragments and decks
		"a*", "x*1k", "1meg", "1e", "..", "1/(2*pi*rload*fc)",
	} {
		f.Add(expr)
	}
	params := map[string]float64{"a": 2, "b_x": 3, "x": 2, "rload": 2e3, "fc": 1e6}
	f.Fuzz(func(t *testing.T, expr string) {
		EvalExpr(expr, params) //nolint:errcheck // errors are acceptable, panics are not
	})
}
