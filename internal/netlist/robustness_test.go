package netlist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: Parse never panics, whatever bytes arrive. (It may error.)
func TestParseNeverPanicsQuick(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", raw, r)
				ok = false
			}
		}()
		Parse(string(raw)) //nolint:errcheck // errors are acceptable, panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: structured garbage built from netlist-looking fragments never
// panics either (this hits deeper parser paths than raw bytes).
func TestParseFragmentsNeverPanicQuick(t *testing.T) {
	fragments := []string{
		"R1", "C2", "V1", "X9", ".model", ".subckt", ".ends", ".param",
		".nodeset", "a", "0", "{", "}", "(", ")", "=", "1k", "PULSE",
		"SIN", "PWL", "AC", "DC", "+", "*", ";", "npn", "1e", "-",
		"v(a)=1", "w=", "{a*}", "..", "1meg",
	}
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		sb.WriteString("fuzz title\n")
		lines := 1 + rng.Intn(8)
		for l := 0; l < lines; l++ {
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				sb.WriteString(fragments[rng.Intn(len(fragments))])
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
		}
		Parse(sb.String()) //nolint:errcheck
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: whatever parses successfully also flattens (or errors) without
// panicking, and a flattened circuit re-formats to parseable text.
func TestParseFlattenFormatNeverPanicQuick(t *testing.T) {
	for _, src := range robustnessDecks {
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		flat, err := Flatten(c)
		if err != nil {
			t.Fatalf("%q flatten: %v", src, err)
		}
		if _, err := Parse(Format(flat)); err != nil {
			t.Errorf("%q re-parse: %v", src, err)
		}
	}
}
