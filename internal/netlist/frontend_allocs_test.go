package netlist_test

import (
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/mna"
	"acstab/internal/netlist"
)

// frontEnd runs one deck through the whole front end: Parse, Flatten and
// mna.Compile.
func frontEnd(tb testing.TB, src string) *mna.System {
	c, err := netlist.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	flat, err := netlist.Flatten(c)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestFrontEndAllocs pins the front end's allocations per card: going
// from the 8-loop to the 32-loop resonator field deck (48 to 192 element
// cards), Parse, Flatten and mna.Compile together make fewer than one
// extra allocation per extra card. Tokens, cards, elements and their
// node lists, and the compiled instances all come from storage that is
// sized once per pass or grows in doubling chunks.
func TestFrontEndAllocs(t *testing.T) {
	small := deckText(t, circuits.ResonatorField(8, 1e5, 0.35))
	large := deckText(t, circuits.ResonatorField(32, 1e5, 0.35))
	cards := func(src string) int { return len(frontEnd(t, src).Ckt.Elems) }
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(20, func() { frontEnd(t, src) })
	}
	nSmall, nLarge := cards(small), cards(large)
	aSmall, aLarge := allocs(small), allocs(large)
	perCard := (aLarge - aSmall) / float64(nLarge-nSmall)
	t.Logf("field-8: %d cards, %.0f allocs; field-32: %d cards, %.0f allocs; %.2f allocs per extra card",
		nSmall, aSmall, nLarge, aLarge, perCard)
	if perCard >= 1 {
		t.Errorf("front end makes %.2f allocations per extra card, want fewer than 1", perCard)
	}
}
