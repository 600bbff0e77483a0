// Package acstab is a tool and library for AC-stability analysis of
// continuous-time closed-loop circuits, reproducing Milev & Burt, "A Tool
// and Methodology for AC-Stability Analysis of Continuous-Time Closed-Loop
// Systems" (DATE 2005).
//
// The method injects a unit AC current at a circuit node, sweeps
// frequency, and post-processes the node's response magnitude into the
// stability plot P(ω) = d²ln|T|/d(lnω)². Complex pole pairs — potential
// oscillators — appear as sharp negative peaks of depth -1/ζ² at their
// natural frequency, regardless of how many real poles and zeros surround
// them, and without breaking any feedback loop. Running the injection at
// every node and clustering peaks by frequency identifies each feedback
// loop in the circuit (main loop and local loops alike) along with its
// damping ratio, estimated phase margin, and equivalent step overshoot.
//
// The package bundles everything the methodology needs: a SPICE-class
// circuit simulator (netlist parsing, device models, DC operating point,
// AC and transient analyses), the stability-plot analysis, run
// orchestration with parallel sweeps, and report generation.
//
// # Quick start
//
//	ckt, _ := acstab.ParseNetlist(netlistText)
//	rep, _ := acstab.AnalyzeAllNodesContext(ctx, ckt, acstab.DefaultOptions())
//	rep.WriteText(os.Stdout)
//
// # Cancellation and deadlines
//
// Every analysis entry point has a Context variant
// (AnalyzeNodeContext, AnalyzeAllNodesContext, ACSweepContext,
// TransientContext, PolesContext). A canceled or deadline-expired
// context aborts the run within one unit of work (a Newton iteration, a
// frequency point or a pair of them, a timestep); the returned error
// wraps ErrCanceled plus the context's own error, so
// errors.Is(err, context.DeadlineExceeded) still distinguishes a
// deadline from an explicit cancel.
package acstab

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"

	"acstab/internal/acerr"
	"acstab/internal/netlist"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
	"acstab/internal/wave"
)

// Sentinel errors. Internal layers wrap these with %w, so errors.Is
// recognizes them across the API boundary no matter how much context a
// failure accumulated on the way out.
var (
	// ErrCanceled is returned when a run is aborted by context
	// cancellation or deadline expiry. The chain also wraps the
	// context's own error (context.Canceled or
	// context.DeadlineExceeded).
	ErrCanceled = acerr.ErrCanceled
	// ErrNoConvergence is returned when the DC operating point cannot
	// be found: plain Newton, gmin stepping, and source stepping all
	// failed.
	ErrNoConvergence = acerr.ErrNoConvergence
	// ErrSingularMatrix is returned when a linear solve hits an
	// (effectively) singular MNA matrix — typically a floating node or
	// a degenerate source loop.
	ErrSingularMatrix = acerr.ErrSingularMatrix
	// ErrUnknownNode is returned when a named node does not exist in
	// the (flattened) circuit.
	ErrUnknownNode = acerr.ErrUnknownNode
)

// Circuit is a captured circuit: parse one from netlist text or build one
// programmatically with the Add* methods.
type Circuit struct {
	n *netlist.Circuit
}

// ParseNetlist reads a SPICE-style netlist (first line is the title;
// R C L V I E G F H D Q M X elements, .subckt, .model, .param, .temp,
// .option cards).
func ParseNetlist(src string) (*Circuit, error) {
	c, err := netlist.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Circuit{n: c}, nil
}

// ParseNetlistFS parses a netlist from a filesystem, resolving .include
// directives relative to the including file — the entry point for
// multi-file decks (model libraries, PDK fragments).
func ParseNetlistFS(fsys fs.FS, name string) (*Circuit, error) {
	c, err := netlist.ParseFS(fsys, name)
	if err != nil {
		return nil, err
	}
	return &Circuit{n: c}, nil
}

// NewCircuit starts an empty circuit with the given title.
func NewCircuit(title string) *Circuit {
	return &Circuit{n: netlist.NewCircuit(title)}
}

// Title returns the circuit title.
func (c *Circuit) Title() string { return c.n.Title }

// SetTemp sets the simulation temperature in Celsius (default 27).
func (c *Circuit) SetTemp(tc float64) { c.n.Temp = tc }

// SetParam defines or overrides a design variable.
func (c *Circuit) SetParam(name string, v float64) {
	c.n.Params[strings.ToLower(name)] = v
}

// Netlist renders the circuit back as netlist text.
func (c *Circuit) Netlist() string { return netlist.Format(c.n) }

// Nodes lists all non-ground nodes.
func (c *Circuit) Nodes() []string { return c.n.Nodes() }

// AddR adds a resistor between two nodes (ohms).
func (c *Circuit) AddR(name, n1, n2 string, ohms float64) { c.n.AddR(name, n1, n2, ohms) }

// AddC adds a capacitor (farads).
func (c *Circuit) AddC(name, n1, n2 string, farads float64) { c.n.AddC(name, n1, n2, farads) }

// AddL adds an inductor (henries).
func (c *Circuit) AddL(name, n1, n2 string, henries float64) { c.n.AddL(name, n1, n2, henries) }

// AddVDC adds a DC voltage source from n+ to n-.
func (c *Circuit) AddVDC(name, np, nn string, volts float64) { c.n.AddVDC(name, np, nn, volts) }

// AddIDC adds a DC current source (SPICE convention: positive current
// flows from n+ through the source into n-).
func (c *Circuit) AddIDC(name, np, nn string, amps float64) { c.n.AddIDC(name, np, nn, amps) }

// AddVAC adds a voltage source with both DC and AC small-signal values.
func (c *Circuit) AddVAC(name, np, nn string, dc, acMag float64) {
	c.n.AddV(name, np, nn, netlist.SourceSpec{DC: dc, ACMag: acMag})
}

// AddVStep adds a voltage source that steps from v1 to v2 at time td.
func (c *Circuit) AddVStep(name, np, nn string, v1, v2, td float64) {
	c.n.AddV(name, np, nn, netlist.SourceSpec{
		DC:   v1,
		Tran: netlist.PulseFunc{V1: v1, V2: v2, TD: td, TR: 1e-9, TF: 1e-9, PW: 1e3, PER: 2e3},
	})
}

// AddG adds a voltage-controlled current source: i(np->nn) = gm*v(cp,cn).
func (c *Circuit) AddG(name, np, nn, cp, cn string, gm float64) { c.n.AddG(name, np, nn, cp, cn, gm) }

// AddE adds a voltage-controlled voltage source: v(np,nn) = gain*v(cp,cn).
func (c *Circuit) AddE(name, np, nn, cp, cn string, gain float64) {
	c.n.AddE(name, np, nn, cp, cn, gain)
}

// AddD adds a diode with a previously registered model.
func (c *Circuit) AddD(name, anode, cathode, model string) { c.n.AddD(name, anode, cathode, model) }

// AddQ adds a BJT (collector, base, emitter) with a registered npn/pnp
// model.
func (c *Circuit) AddQ(name, col, base, emit, model string) { c.n.AddQ(name, col, base, emit, model) }

// AddM adds a MOSFET (drain, gate, source, bulk) with a registered
// nmos/pmos model and channel dimensions in meters.
func (c *Circuit) AddM(name, d, g, s, b, model string, w, l float64) {
	c.n.AddM(name, d, g, s, b, model, w, l)
}

// SetModel registers a device model ("d", "npn", "pnp", "nmos", "pmos")
// with its parameters.
func (c *Circuit) SetModel(name, typ string, params map[string]float64) {
	c.n.SetModel(name, typ, params)
}

// Options configures a stability run. A zero field takes its default; a
// negative one, or a range whose stop is not above its start, is an
// error.
type Options struct {
	// FStart and FStop bound the frequency sweep in Hz (default 1 kHz to
	// 1 GHz).
	FStart, FStop float64
	// PointsPerDecade sets the sweep density (default 40).
	PointsPerDecade int
	// LoopTolerance is the relative natural-frequency tolerance for
	// grouping nodes into loops (default 0.12).
	LoopTolerance float64
	// SkipNodes excludes nodes whose names contain any of these
	// substrings.
	SkipNodes []string
	// OnlySubckt restricts the all-nodes run to one subcircuit instance
	// (instance path prefix, e.g. "x1"); ports shared with the parent are
	// included.
	OnlySubckt string
}

// DefaultOptions returns the documented defaults.
func DefaultOptions() Options {
	t := tool.DefaultOptions()
	return Options{FStart: t.FStart, FStop: t.FStop, PointsPerDecade: t.PointsPerDecade, LoopTolerance: t.LoopTol}
}

// toTool maps the options onto the tool's; tool.Options.Resolve fills the
// zero values and refuses bad ones.
func (o Options) toTool() tool.Options {
	t := tool.DefaultOptions()
	t.FStart, t.FStop = o.FStart, o.FStop
	t.PointsPerDecade = o.PointsPerDecade
	t.LoopTol = o.LoopTolerance
	t.SkipNodes = o.SkipNodes
	t.OnlySubckt = o.OnlySubckt
	return t
}

// PeakKind classifies a stability-plot peak.
type PeakKind string

// Peak kinds, mirroring the tool's report notices.
const (
	PeakNormal     PeakKind = "normal"
	PeakEndOfRange PeakKind = "end-of-range"
	PeakMinMax     PeakKind = "min/max"
)

// Peak is one detected stability-plot extremum.
type Peak struct {
	// FreqHz is the natural frequency of the (potential) oscillation.
	FreqHz float64
	// Value is the performance index: negative for complex poles,
	// positive for complex zeros; P(ωn) = -1/ζ².
	Value float64
	Kind  PeakKind
	// IsZero marks a complex-zero (positive) peak.
	IsZero bool
	// Zeta is the damping ratio (NaN for zero peaks).
	Zeta float64
	// PhaseMarginDeg estimates the loop phase margin from Zeta.
	PhaseMarginDeg float64
	// OvershootPct is the equivalent unit-step overshoot.
	OvershootPct float64
}

func fromStabPeak(p stab.Peak) Peak {
	return Peak{
		FreqHz: p.Freq, Value: p.Value, Kind: PeakKind(p.Type.String()),
		IsZero: p.IsZero, Zeta: p.Zeta,
		PhaseMarginDeg: p.PhaseMarginDeg, OvershootPct: p.OvershootPct,
	}
}

// NodeReport is the stability analysis of one node.
type NodeReport struct {
	Node string
	// Impedance is the probed |Z(f)| waveform.
	Impedance *Waveform
	// StabilityPlot is P(f).
	StabilityPlot *Waveform
	// Peaks lists every detected extremum sorted by frequency.
	Peaks []Peak
	// Dominant is the deepest negative peak, or nil.
	Dominant   *Peak
	Skipped    bool
	SkipReason string
}

// Loop is one identified feedback loop.
type Loop struct {
	ID             int
	FreqHz         float64
	WorstPeak      float64
	Zeta           float64
	PhaseMarginDeg float64
	OvershootPct   float64
	Nodes          []string
}

// StabilityReport is the outcome of an all-nodes run.
type StabilityReport struct {
	CircuitTitle string
	Loops        []Loop
	Nodes        []NodeReport

	raw  *tool.Report
	tool *tool.Tool
}

// AnalyzeNodeContext runs the "Single Node" mode at the named node.
//
// Errors: ErrUnknownNode if the node does not exist, ErrNoConvergence
// if the operating point cannot be found, ErrSingularMatrix on a
// degenerate MNA system, and ErrCanceled once ctx is done (the run
// aborts within one unit of work: at most two frequency points of the
// sweep).
func AnalyzeNodeContext(ctx context.Context, c *Circuit, node string, opts Options) (*NodeReport, error) {
	if c == nil || c.n == nil {
		return nil, fmt.Errorf("acstab: empty circuit (use NewCircuit or ParseNetlist)")
	}
	t, err := tool.New(c.n, opts.toTool())
	if err != nil {
		return nil, err
	}
	nr, err := t.SingleNode(ctx, node)
	if err != nil {
		return nil, err
	}
	out := fromNodeResult(nr, t.Opts.Stab)
	return &out, nil
}

// fromNodeResult converts nr, analyzed under opts, to its public form.
func fromNodeResult(nr *tool.NodeResult, opts stab.Options) NodeReport {
	out := NodeReport{Node: nr.Node, Skipped: nr.Skipped, SkipReason: nr.SkipReason}
	if nr.Impedance != nil {
		out.Impedance = &Waveform{w: nr.Impedance}
	}
	if nr.Stab != nil {
		z := nr.Impedance
		out.StabilityPlot = &Waveform{build: func() *wave.Wave {
			// Cannot fail: Analyze accepted z under the same options.
			p, _ := stab.Plot(z, opts)
			return p
		}}
		for _, p := range nr.Stab.Peaks {
			out.Peaks = append(out.Peaks, fromStabPeak(p))
		}
	}
	if nr.Best != nil {
		p := fromStabPeak(*nr.Best)
		out.Dominant = &p
	}
	return out
}

// AnalyzeAllNodesContext runs the "All Nodes" mode: every non-ground
// node is probed and the resonant nodes are clustered into feedback
// loops.
//
// Errors: ErrNoConvergence if the operating point cannot be found,
// ErrSingularMatrix on a degenerate MNA system, and ErrCanceled once
// ctx is done — the sweep and the Newton loop both observe the
// context, so cancellation aborts within one unit of work (at most two
// frequency points of the sweep).
func AnalyzeAllNodesContext(ctx context.Context, c *Circuit, opts Options) (*StabilityReport, error) {
	if c == nil || c.n == nil {
		return nil, fmt.Errorf("acstab: empty circuit (use NewCircuit or ParseNetlist)")
	}
	t, err := tool.New(c.n, opts.toTool())
	if err != nil {
		return nil, err
	}
	rep, err := t.AllNodes(ctx)
	if err != nil {
		return nil, err
	}
	out := &StabilityReport{CircuitTitle: rep.CircuitTitle, raw: rep, tool: t}
	for _, l := range rep.Loops {
		ol := Loop{
			ID: l.ID, FreqHz: l.Freq, WorstPeak: l.WorstPeak, Zeta: l.Zeta,
			PhaseMarginDeg: l.PhaseMarginDeg, OvershootPct: l.OvershootPct,
		}
		for _, np := range l.Nodes {
			ol.Nodes = append(ol.Nodes, np.Node)
		}
		out.Loops = append(out.Loops, ol)
	}
	for i := range rep.Nodes {
		out.Nodes = append(out.Nodes, fromNodeResult(&rep.Nodes[i], t.Opts.Stab))
	}
	return out, nil
}

// WriteText renders the report in the paper's Table 2 layout.
func (r *StabilityReport) WriteText(w io.Writer) error { return report.Text(w, r.raw) }

// WriteCSV renders one CSV row per node.
func (r *StabilityReport) WriteCSV(w io.Writer) error { return report.CSV(w, r.raw) }

// WriteJSON renders the report as JSON.
func (r *StabilityReport) WriteJSON(w io.Writer) error { return report.JSON(w, r.raw) }

// WriteAnnotatedNetlist renders the flattened netlist with per-node
// stability annotations (the schematic-annotation substitute).
func (r *StabilityReport) WriteAnnotatedNetlist(w io.Writer) error {
	return report.Annotate(w, r.tool.Flat, r.raw)
}

// Waveform is a sampled waveform handle. It is safe for concurrent use.
type Waveform struct {
	// build, when set, computes w on first use: a stability plot is
	// built from the node's impedance only if someone reads it.
	build func() *wave.Wave
	once  sync.Once
	w     *wave.Wave
}

func (w *Waveform) wave() *wave.Wave {
	if w.build != nil {
		w.once.Do(func() { w.w = w.build() })
	}
	return w.w
}

// Samples returns copies of the x and real-valued y samples.
func (w *Waveform) Samples() (x, y []float64) {
	ww := w.wave()
	x = append([]float64(nil), ww.X...)
	return x, ww.Real()
}

// At returns the (interpolated) value at x.
func (w *Waveform) At(x float64) float64 { return w.wave().At(x) }

// Plot renders the waveform as an ASCII chart.
func (w *Waveform) Plot(out io.Writer, title string) error {
	ww := w.wave()
	return wave.Plot(out, wave.PlotOptions{Title: title, LogX: ww.LogX,
		XLabel: ww.XUnit, YLabel: ww.YUnit}, ww)
}

// String summarizes the waveform.
func (w *Waveform) String() string {
	ww := w.wave()
	if ww.Len() == 0 {
		return "waveform(empty)"
	}
	return fmt.Sprintf("waveform(%s, %d pts, x %g..%g)", ww.Name, ww.Len(),
		ww.X[0], ww.X[ww.Len()-1])
}
