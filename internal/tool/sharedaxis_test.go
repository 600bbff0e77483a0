package tool_test

import (
	"bytes"
	"context"
	"io"
	"slices"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/num"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

// TestSharedFrequencyAxis: a node's Impedance and stability-plot waves take
// the sweep grid as their X axis without copying it, so every node swept
// only on the first-pass grid shares one array. Nothing downstream may
// write to it: after rendering every format, parsing the JSON back and,
// with adaptive grids, the refinement rounds, every axis must still hold
// its original values.
func TestSharedFrequencyAxis(t *testing.T) {
	for _, tc := range []struct {
		name      string
		coarsePPD int
	}{{"uniform", 0}, {"adaptive", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			// A resistive bystander node has a flat stability plot, so even
			// an adaptive run keeps it on the first-pass grid.
			ckt := circuits.ResonatorField(3, 1e6, 0.25)
			ckt.AddR("RBY", "by", "0", 1e3)
			opts := tool.DefaultOptions()
			opts.FStart, opts.FStop, opts.PointsPerDecade = 1e4, 1e8, 20
			opts.CoarsePointsPerDecade = tc.coarsePPD
			ppd := opts.PointsPerDecade
			if tc.coarsePPD > 0 {
				ppd = tc.coarsePPD
			}
			grid := num.LogGridPPD(opts.FStart, opts.FStop, ppd)
			tl, err := tool.New(ckt, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tl.AllNodes(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			var shared []float64 // the first-pass grid as the waves hold it
			axes := map[string][]float64{}
			refined := 0
			for _, nr := range rep.Nodes {
				if nr.Skipped {
					continue
				}
				x := nr.Impedance.X
				p, err := stab.Plot(nr.Impedance, opts.Stab)
				if err != nil {
					t.Fatal(err)
				}
				if &p.X[0] != &x[0] || len(p.X) != len(x) {
					t.Fatalf("node %s: stability plot does not alias the impedance axis", nr.Node)
				}
				axes[nr.Node] = slices.Clone(x)
				if len(x) != len(grid) {
					refined++
					continue
				}
				if shared == nil {
					shared = x
				} else if &x[0] != &shared[0] {
					t.Fatalf("node %s: first-pass axis is a copy, not the shared grid", nr.Node)
				}
			}
			if shared == nil || !slices.Equal(shared, grid) {
				t.Fatalf("no node holds the %d-point first-pass grid", len(grid))
			}
			if tc.coarsePPD > 0 && refined == 0 {
				t.Fatal("adaptive run refined no node")
			}

			var jb bytes.Buffer
			for _, err := range []error{report.Text(io.Discard, rep), report.CSV(io.Discard, rep), report.JSON(&jb, rep)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := report.ParseJSON(&jb); err != nil {
				t.Fatal(err)
			}

			if !slices.Equal(shared, grid) {
				t.Error("the shared first-pass grid was written to")
			}
			for _, nr := range rep.Nodes {
				if want, ok := axes[nr.Node]; ok && !slices.Equal(nr.Impedance.X, want) {
					t.Errorf("node %s: frequency axis was written to", nr.Node)
				}
			}
		})
	}
}
