package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReproAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
		"Table 1", "Loop at", "step response", "stability plot",
		"overshoot", "phase margin",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestReproOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "fig4"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fig4") || strings.Contains(s, "table1") {
		t.Errorf("only filter broken:\n%s", s)
	}
	if !strings.Contains(s, "-28") && !strings.Contains(s, "-29") {
		t.Errorf("fig4 peak missing:\n%s", s)
	}
}

// TestReproGolden pins the full repro output byte for byte. Solver and
// stability-plot changes that claim bitwise-identical results must leave
// it unchanged; a change that moves a number on purpose regenerates it
// with `go run ./cmd/repro > cmd/repro/testdata/repro.golden` and says why.
func TestReproGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "repro.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, ""); err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("repro output differs from testdata/repro.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("repro output has %d lines, testdata/repro.golden %d", len(gl), len(wl))
	}
}
