package main

import (
	"strings"
	"testing"
)

// FuzzParseCorners feeds arbitrary text to the -corners file parser. It
// may reject its input but must not panic, and every corner it accepts
// carries a non-empty label and lower-case variable names (the form the
// farm's variable lookup expects). Run it with
//
//	go test -run '^$' -fuzz '^FuzzParseCorners$' -fuzztime 10s ./cmd/acstab
func FuzzParseCorners(f *testing.F) {
	for _, text := range []string{
		// TestCornersLocal, TestCornersRemote, TestCornersFileErrors
		"# PVT corners for the tank\n* alt comment style\nnom\nhi_r rq=2k\nnom_again\n",
		"nom\nnom2\n",
		"bad nosuch=1\ngood\n",
		"# only comments\n",
		"nom rq=notanumber\n",
		// positional labels, mixed case, CRLF, malformed pairs
		"rq=1k CL=2p\nRQ=3meg\n",
		"fast\tVDD=1.1 temp=-40\r\nslow vdd=0.9 temp=125\r\n",
		"x =1\nx= \n=1\n",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		variants, err := parseCornersText("fuzz.txt", text)
		if err != nil {
			return
		}
		if len(variants) == 0 {
			t.Fatal("accepted a corners file with no corners")
		}
		for i, v := range variants {
			if v.Label == "" {
				t.Errorf("corner %d has an empty label", i)
			}
			for name := range v.Variables {
				if name != strings.ToLower(name) {
					t.Errorf("corner %q: variable %q is not lower-case", v.Label, name)
				}
			}
		}
	})
}
