// Command repro regenerates every table and figure of the paper's
// evaluation section (see EXPERIMENTS.md for the paper-vs-measured
// record).
//
// Usage:
//
//	repro            # everything to stdout
//	repro -only fig4 # one artifact: table1, table2, fig1..fig5
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/report"
	"acstab/internal/sos"
	"acstab/internal/stab"
	"acstab/internal/tool"
	"acstab/internal/wave"
)

func main() {
	only := flag.String("only", "", "regenerate one artifact: table1, table2, fig1, fig2, fig3, fig4, fig5")
	flag.Parse()
	if err := run(os.Stdout, *only); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
}

func run(out io.Writer, only string) error {
	artifacts := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"table1", table1},
		{"fig1", fig1},
		{"fig2", fig2},
		{"fig3", fig3},
		{"fig4", fig4},
		{"table2", table2},
		{"fig5", fig5},
	}
	for _, a := range artifacts {
		if only != "" && a.name != only {
			continue
		}
		fmt.Fprintf(out, "==================== %s ====================\n", a.name)
		if err := a.fn(out); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func table1(out io.Writer) error {
	fmt.Fprintln(out, "Table 1: key performance characteristics of a second-order system")
	fmt.Fprintln(out, "(paper values in parentheses; sim = stability tool on an RLC tank)")
	fmt.Fprintf(out, "%-6s %-22s %-22s %-14s %-22s\n",
		"zeta", "overshoot % (paper)", "phase margin (paper)", "max mag", "perf index (paper)")
	for _, row := range sos.PaperTable1() {
		z := row.Zeta
		simIdx := math.NaN()
		if z > 0.05 && z < 1 {
			tl, err := tool.New(circuits.SecondOrder(z, 1e6), tool.DefaultOptions())
			if err != nil {
				return err
			}
			nr, err := tl.SingleNode(context.Background(), "t")
			if err != nil {
				return err
			}
			if nr.Best != nil {
				simIdx = nr.Best.Value
			}
		}
		fmt.Fprintf(out, "%-6.1f %6.1f (%5.1f)       %6.1f (%5.1f)        %-14.3g %8.2f sim %8.2f (%6.1f)\n",
			z, sos.Overshoot(z), row.OvershootPct,
			sos.PhaseMargin(z), row.PhaseMarginDeg,
			sos.PeakMagnitude(z),
			sos.PerformanceIndex(z), simIdx, row.PerformanceIndex)
	}
	return nil
}

func fig1(out io.Writer) error {
	fmt.Fprintln(out, "Fig 1: the 2 MHz op-amp buffer (behavioral equivalent netlist)")
	c := circuits.OpAmpBuffer(circuits.OpAmpDefaults())
	flat, err := netlist.Flatten(c)
	if err != nil {
		return err
	}
	fmt.Fprint(out, netlist.Format(flat))
	return nil
}

func fig2(out io.Writer) error {
	s, err := compile(circuits.OpAmpBuffer(circuits.OpAmpDefaults()))
	if err != nil {
		return err
	}
	res, err := s.Tran(context.Background(), analysis.TranSpec{TStop: 3e-6, TStep: 1e-9, RecordEvery: 10})
	if err != nil {
		return err
	}
	w, err := res.NodeWave("output")
	if err != nil {
		return err
	}
	if err := wave.Plot(out, wave.PlotOptions{
		Title: "Fig 2: buffer step response", XLabel: "time (s)", YLabel: "v(output)",
	}, w); err != nil {
		return err
	}
	fmt.Fprintf(out, "overshoot: %.1f%%  (paper: ~55%%)\n", w.OvershootPct())
	return nil
}

func fig3(out io.Writer) error {
	s, err := compile(circuits.OpAmpOpenLoop(circuits.OpAmpDefaults()))
	if err != nil {
		return err
	}
	op, err := s.OP(context.Background())
	if err != nil {
		return err
	}
	res, err := s.AC(context.Background(), num.LogGridPPD(1e2, 1e9, 30), op)
	if err != nil {
		return err
	}
	w, err := res.NodeWave("output")
	if err != nil {
		return err
	}
	gain := w.DB20()
	phase := w.PhaseDeg()
	if err := wave.Plot(out, wave.PlotOptions{Title: "Fig 3a: loop gain (dB)", LogX: true, XLabel: "Hz"}, gain); err != nil {
		return err
	}
	if err := wave.Plot(out, wave.PlotOptions{Title: "Fig 3b: loop phase (deg)", LogX: true, XLabel: "Hz"}, phase); err != nil {
		return err
	}
	fc := gain.Cross(0)
	f180 := phase.Cross(0)
	fmt.Fprintf(out, "0 dB at %.3g Hz (paper 2.4 MHz), phase margin %.1f deg (paper ~20), -180 deg at %.3g Hz (paper 3.5 MHz)\n",
		fc[0], phase.At(fc[0]), f180[0])
	return nil
}

func fig4(out io.Writer) error {
	tl, err := tool.New(circuits.OpAmpBuffer(circuits.OpAmpDefaults()), tool.DefaultOptions())
	if err != nil {
		return err
	}
	nr, err := tl.SingleNode(context.Background(), "output")
	if err != nil {
		return err
	}
	p, err := stab.Plot(nr.Impedance, tl.Opts.Stab)
	if err != nil {
		return err
	}
	if err := wave.Plot(out, wave.PlotOptions{
		Title: "Fig 4: stability plot at the output node", LogX: true, XLabel: "Hz", YLabel: "P",
	}, p); err != nil {
		return err
	}
	b := nr.Best
	fmt.Fprintf(out, "peak %.2f at %.4g Hz (paper: -28.9 at 3.16 MHz); zeta %.3f, est. phase margin %.1f deg, overshoot %.1f%%\n",
		b.Value, b.Freq, b.Zeta, b.PhaseMarginDeg, b.OvershootPct)
	return nil
}

func table2(out io.Writer) error {
	tl, err := tool.New(circuits.FullCircuit(), tool.DefaultOptions())
	if err != nil {
		return err
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		return err
	}
	return report.Text(out, rep)
}

func fig5(out io.Writer) error {
	tl, err := tool.New(circuits.BiasCircuit(circuits.BiasDefaults()), tool.DefaultOptions())
	if err != nil {
		return err
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		return err
	}
	return report.Annotate(out, tl.Flat, rep)
}

func compile(c *netlist.Circuit) (*analysis.Sim, error) {
	flat, err := netlist.Flatten(c)
	if err != nil {
		return nil, err
	}
	sys, err := mna.Compile(flat)
	if err != nil {
		return nil, err
	}
	return analysis.New(sys), nil
}
