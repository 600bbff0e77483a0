package tool_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

// TestSharedFrequencyAxis: a node's Impedance and stability-plot waves take
// the sweep grid as their X axis without copying it, so every node swept
// only on the first-pass grid shares one array, the process-wide axis of
// its options. Nothing downstream may write to it: after rendering every
// format, parsing the JSON back, a Single Node run with its stability plot
// (acstab -plot) and, with adaptive grids, the refinement rounds, every
// axis must still hold its original values, and the shared log axis its
// one-shot logarithms.
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
			nr, err := tl.SingleNode(context.Background(), "ra000")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stab.Plot(nr.Impedance, opts.Stab); err != nil {
				t.Fatal(err)
			}

			if !slices.Equal(shared, grid) {
				t.Error("the shared first-pass grid was written to")
			}
			ax := tool.FirstPassAxis(opts.FStart, opts.FStop, ppd)
			if &ax.Freqs()[0] != &shared[0] {
				t.Fatal("the process-wide axis is not the grid the run swept")
			}
			requireLogsOf(t, ax, grid)
			for _, nr := range rep.Nodes {
				if want, ok := axes[nr.Node]; ok && !slices.Equal(nr.Impedance.X, want) {
					t.Errorf("node %s: frequency axis was written to", nr.Node)
				}
			}
		})
	}
}

// requireLogsOf fails unless ax's log axis is math.Log of grid, bit for
// bit.
func requireLogsOf(t *testing.T, ax *stab.Axis, grid []float64) {
	t.Helper()
	u := ax.Logs()
	if len(u) != len(grid) {
		t.Fatalf("log axis has %d points, grid %d", len(u), len(grid))
	}
	for i, f := range grid {
		if math.Float64bits(u[i]) != math.Float64bits(math.Log(f)) {
			t.Fatalf("log axis[%d] = %v, want ln %v = %v", i, u[i], f, math.Log(f))
		}
	}
}

// TestToolsShareFirstPassGrid: fresh Tools with equal sweep options sweep
// one grid array, process-wide. Switching the resolution 40 -> 20 -> 40,
// and then the start and the stop frequency, gives each time a grid
// bit-equal to a fresh num.LogGridPPD, with its log axis.
func TestToolsShareFirstPassGrid(t *testing.T) {
	ckt := circuits.SecondOrder(0.3, 1e6)
	run := func(fstart, fstop float64, ppd int) []float64 {
		t.Helper()
		opts := tool.DefaultOptions()
		opts.FStart, opts.FStop, opts.PointsPerDecade = fstart, fstop, ppd
		tl, err := tool.New(ckt, opts)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := tl.SingleNode(context.Background(), "t")
		if err != nil {
			t.Fatal(err)
		}
		x := nr.Impedance.X
		if want := num.LogGridPPD(fstart, fstop, ppd); !slices.Equal(x, want) {
			t.Fatalf("[%g, %g] at %d ppd: grid differs from num.LogGridPPD", fstart, fstop, ppd)
		}
		requireLogsOf(t, tool.FirstPassAxis(fstart, fstop, ppd), x)
		return x
	}
	a, b := run(1e3, 1e9, 40), run(1e3, 1e9, 40)
	if &a[0] != &b[0] {
		t.Error("two Tools with equal options swept different grid arrays")
	}
	run(1e3, 1e9, 20)
	run(1e3, 1e9, 40)
	run(1e4, 1e9, 40)
	run(1e4, 1e8, 40)
	run(1e3, 1e9, 40)
}

// TestConcurrentRunsMatchSerial runs Single Node and All Nodes analyses
// concurrently on separate Tools under two sweep option sets, so the
// process-wide first-pass axis is replaced while other runs read theirs.
// Every report must equal, byte for byte, the serial run's. Run it under
// -race.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	variants := []tool.Options{tool.DefaultOptions(), tool.DefaultOptions()}
	variants[1].FStart, variants[1].PointsPerDecade, variants[1].CoarsePointsPerDecade = 1e4, 30, 10
	type job struct {
		ckt    func() *netlist.Circuit
		single string // the probed node; "" runs All Nodes
	}
	jobs := []job{
		{func() *netlist.Circuit { return circuits.ResonatorField(4, 1e5, 0.2) }, ""},
		{func() *netlist.Circuit { return circuits.SecondOrder(0.1, 1e6) }, "t"},
		{func() *netlist.Circuit { return circuits.BiasCircuit(circuits.BiasDefaults()) }, ""},
	}
	render := func(j job, opts tool.Options) (string, error) {
		tl, err := tool.New(j.ckt(), opts)
		if err != nil {
			return "", err
		}
		rep := &tool.Report{Options: tl.Opts}
		if j.single == "" {
			if rep, err = tl.AllNodes(context.Background()); err != nil {
				return "", err
			}
		} else {
			nr, err := tl.SingleNode(context.Background(), j.single)
			if err != nil {
				return "", err
			}
			rep.Nodes = []tool.NodeResult{*nr}
		}
		var b bytes.Buffer
		if err := report.Text(&b, rep); err != nil {
			return "", err
		}
		if err := report.JSON(&b, rep); err != nil {
			return "", err
		}
		for _, nr := range rep.Nodes {
			if nr.Impedance != nil {
				fmt.Fprintf(&b, "%s %x %x\n", nr.Node, nr.Impedance.X, nr.Impedance.Y)
			}
		}
		return b.String(), nil
	}
	n := len(jobs) * len(variants)
	serial := make([]string, n)
	for k := range serial {
		var err error
		if serial[k], err = render(jobs[k%len(jobs)], variants[k/len(jobs)]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, 4*n)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := r % n
			got[r], errs[r] = render(jobs[k%len(jobs)], variants[k/len(jobs)])
		}()
	}
	wg.Wait()
	for r := range got {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		if k := r % n; got[r] != serial[k] {
			t.Errorf("run %d (job %d, variant %d): report differs from the serial run", r, k%len(jobs), k/len(jobs))
		}
	}
}
