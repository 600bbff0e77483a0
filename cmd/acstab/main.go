// Command acstab is the AC-stability analysis tool: the push-button CLI
// equivalent of the paper's DFII tool. It reads a SPICE-style netlist and
// runs either the single-node or the all-nodes stability analysis.
//
// Usage:
//
//	acstab -i circuit.cir                      # all-nodes report (text)
//	acstab -i circuit.cir -node out -plot      # single node with ASCII plot
//	acstab -i circuit.cir -format csv          # CSV report
//	acstab -i circuit.cir -annotate            # annotated netlist (Fig. 5)
//	acstab -i circuit.cir -temps 27,85,125     # temperature sweep (one report per temperature)
//	acstab -i circuit.cir -sweep rload=1k,2k   # design-variable sweep (worst loop per value)
//	acstab -i circuit.cir -mc 50 -sigma rq=0.1 # Monte Carlo (worst loop per sample)
//	acstab -i circuit.cir -set rload=2k        # design-variable override
//	acstab -i circuit.cir -corners pvt.corners # corner batch (one report per line of the file)
//	acstab -i circuit.cir -stats               # phase timings + solver counters
//	acstab -i circuit.cir -trace-json t.json   # machine-readable run trace
//	acstab -i circuit.cir -trace-chrome t.json # Chrome trace-event timeline (Perfetto)
//	acstab -i circuit.cir -cpuprofile cpu.pb   # pprof CPU profile of the run
//	acstab -i circuit.cir -memprofile mem.pb   # heap profile at run end
//
// -temps, -sweep, -mc and -corners each run the deck as a batch of
// variants through the farm's batch executor, in this process or, with
// -remote, on an acstabd worker; the two print the same bytes.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"acstab/internal/analysis"
	"acstab/internal/farm"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
	"acstab/internal/wave"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "acstab: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI with diagnostics (-stats) on stderr.
func run(args []string, out io.Writer) error {
	return runWith(args, out, os.Stderr)
}

func runWith(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("acstab", flag.ContinueOnError)
	def := tool.DefaultOptions()
	var (
		input     = fs.String("i", "", "input netlist file (default: stdin)")
		node      = fs.String("node", "", "single-node mode: analyze this node")
		fstart    = fs.String("fstart", num.FormatValue(def.FStart), "sweep start frequency")
		fstop     = fs.String("fstop", num.FormatValue(def.FStop), "sweep stop frequency")
		ppd       = fs.Int("ppd", def.PointsPerDecade, "points per decade")
		coarsePPD = fs.Int("coarse-ppd", 0, "adaptive sweep: coarse pass resolution in points per decade (0 = adaptive off, dense uniform grid)")
		refinePPD = fs.Int("refine-ppd", 0, "adaptive sweep: refinement resolution cap in points per decade (0 = -ppd)")
		refineThr = fs.Float64("refine-threshold", 0, "adaptive sweep: |P| level that marks an interval resonant (0 = default 0.5)")
		format    = fs.String("format", "text", "all-nodes output: text, csv, json")
		annotate  = fs.Bool("annotate", false, "print the annotated netlist instead of the report")
		plot      = fs.Bool("plot", false, "render ASCII plots (single-node mode)")
		loopTol   = fs.Float64("loop-tol", def.LoopTol, "relative tolerance for loop clustering")
		resTol    = fs.Float64("residual-tol", 0, "scale-relative residual above which a solve is refined (0 = default 1e-9, negative disables the numerics observatory)")
		skip      = fs.String("skip", "", "comma-separated node-name substrings to skip")
		subckt    = fs.String("subckt", "", "restrict all-nodes mode to one subcircuit instance (e.g. x1)")
		temps     = fs.String("temps", "", "temperature sweep: comma-separated temperatures (C), one report each in -format (a batch, local or with -remote)")
		sweep     = fs.String("sweep", "", "design-variable sweep: name=v1,v2,v3, the worst loop at each value (a batch, local or with -remote)")
		corners   = fs.String("corners", "", "corners file: one corner per line, 'label name=value ...', one report each in -format (a batch, local or with -remote)")
		mcRuns    = fs.Int("mc", 0, "Monte Carlo runs (with -sigma), the worst loop of each (a batch, local or with -remote)")
		mcSeed    = fs.Int64("mc-seed", 1, "Monte Carlo seed")
		sigmas    multiFlag
		stateIn   = fs.String("state", "", "load run setup from a saved state file")
		stateOut  = fs.String("save-state", "", "save the run setup to a state file")
		remote    = fs.String("remote", "", "submit the run to a remote acstabd worker at this URL")
		sets      multiFlag
		diagFile  = fs.String("diag", "", "write a diagnostic report file on completion")
		stats     = fs.Bool("stats", false, "print phase timings and solver counters to stderr")
		traceOut  = fs.String("trace-json", "", "write the machine-readable run trace to this file")
		chromeOut = fs.String("trace-chrome", "", "write the run trace in Chrome trace-event format (open in Perfetto)")
		timeout   = fs.Duration("timeout", 0, "abort the run after this long (e.g. 30s; 0 = no limit)")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile at run end to this file")
	)
	fs.Var(&sets, "set", "design-variable override name=value (repeatable)")
	fs.Var(&sigmas, "sigma", "Monte Carlo relative sigma name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strings.Contains(*remote, ",") {
		return fmt.Errorf("-remote takes one worker URL, got %q", *remote)
	}
	// A variant source runs the deck as a batch of farm jobs; one at most.
	source := ""
	for _, f := range []struct {
		name string
		on   bool
	}{{"-corners", *corners != ""}, {"-temps", *temps != ""}, {"-sweep", *sweep != ""}, {"-mc", *mcRuns > 0}} {
		if f.on && source != "" {
			return fmt.Errorf("%s and %s are two variant sources; give one", source, f.name)
		}
		if f.on {
			source = f.name
		}
	}
	// A farm job, remote or one variant of a batch, is one whole analysis
	// rendered as a report; a flag it cannot honour is refused by name
	// rather than silently dropped. Only the wire lacks -residual-tol, and
	// the -sweep and -mc tables read every node's report.
	var refusal error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case refusal != nil:
		case *remote != "" && (f.Name == "plot" || f.Name == "residual-tol"):
			refusal = fmt.Errorf("-%s does not run remotely; drop -remote to run it locally", f.Name)
		case source != "" && f.Name == "plot":
			refusal = fmt.Errorf("-plot does not run with %s: each variant is one report, not a plot", source)
		case (source == "-sweep" || source == "-mc") && (f.Name == "node" || f.Name == "format" || f.Name == "annotate"):
			refusal = fmt.Errorf("-%s does not run with %s: its table reads the all-nodes report", f.Name, source)
		}
	})
	if refusal != nil {
		return refusal
	}

	// Profiling: the CPU profile brackets everything after flag parsing
	// (parse, OP, sweep, report); the heap profile snapshots live objects
	// at run end, after a GC so dead sweep scratch does not pollute it.
	// Both work without the daemon's -pprof HTTP surface.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("-memprofile: %v", err)
		}
		defer func() {
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	// Interrupt (Ctrl-C) cancels the run mid-sweep; -timeout bounds it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	trace := obs.StartRun("acstab")
	sp := trace.StartPhase("parse")
	src, ckt, err := loadCircuit(*input)
	sp.End()
	if err != nil {
		return err
	}
	// overrides are the design-variable values -set and -state put over
	// the deck's own, and tempC a -state temperature; a farm job carries
	// them as its variables and its variants' temp_c.
	overrides := map[string]float64{}
	var tempC *float64
	for _, s := range sets {
		name, vs, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("-set wants name=value, got %q", s)
		}
		v, err := num.ParseValue(vs)
		if err != nil {
			return fmt.Errorf("-set %s: %v", s, err)
		}
		name = strings.ToLower(name)
		if _, ok := ckt.Params[name]; !ok {
			return fmt.Errorf("-set: unknown design variable %q", name)
		}
		ckt.Params[name] = v
		overrides[name] = v
	}

	opts := def
	if opts.FStart, err = num.ParseValue(*fstart); err != nil {
		return fmt.Errorf("-fstart: %v", err)
	}
	if opts.FStop, err = num.ParseValue(*fstop); err != nil {
		return fmt.Errorf("-fstop: %v", err)
	}
	opts.PointsPerDecade = *ppd
	opts.CoarsePointsPerDecade = *coarsePPD
	opts.RefinePointsPerDecade = *refinePPD
	opts.RefineThreshold = *refineThr
	opts.LoopTol = *loopTol
	if *resTol != 0 {
		aopts := analysis.DefaultOptions()
		aopts.ResidualThreshold = *resTol
		opts.Analysis = &aopts
	}
	if *skip != "" {
		opts.SkipNodes = strings.Split(*skip, ",")
	}
	opts.OnlySubckt = *subckt
	opts.Trace = trace
	if *stateIn != "" {
		f, err := os.Open(*stateIn)
		if err != nil {
			return fmt.Errorf("-state: %v", err)
		}
		// The file's setup keys win over the flags; absent keys keep them.
		st, err := tool.LoadState(f, opts)
		f.Close()
		if err != nil {
			return err
		}
		if err := st.Apply(ckt); err != nil {
			return err
		}
		opts = st.Options
		for k, v := range st.Variables {
			overrides[k] = v
		}
		tempC = st.TempC
	}
	wireFormat := *format
	if *annotate {
		wireFormat = "annotate"
	}
	// One validation for every path: a local run, a batch and a -remote
	// job accept and refuse the same setups and formats. A refused setup
	// is the run's error, so -stats, the traces and -diag still report it.
	var runErr error
	if opts, runErr = opts.Resolve(); runErr == nil {
		runErr = report.CheckFormat(wireFormat)
	}
	if runErr == nil && *stateOut != "" {
		f, err := os.Create(*stateOut)
		if err != nil {
			return fmt.Errorf("-save-state: %v", err)
		}
		err = tool.CaptureState(ckt, opts).Save(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	// The farm job for this run setup: the deck, the options and the
	// design-variable overrides. A variant source fills in its variants;
	// a plain -remote run ships one, so a worker analyzes exactly what
	// the local run would.
	job := &farm.BatchRequest{
		Netlist:   src,
		Format:    wireFormat,
		Node:      *node,
		TimeoutMS: timeout.Milliseconds(),
		Options:   opts,
		Variables: overrides,
	}
	b := batch{remote: *remote, job: job, tempC: tempC, trace: trace}
	switch {
	case runErr != nil:
	case *corners != "":
		runErr = runCorners(ctx, out, b, *corners)
	case *temps != "":
		runErr = runTemps(ctx, out, b, *temps)
	case *sweep != "":
		runErr = runSweep(ctx, out, b, ckt, *sweep)
	case *mcRuns > 0:
		runErr = runMC(ctx, out, b, ckt, *mcRuns, *mcSeed, sigmas)
	case *remote != "":
		var itemErr error
		if runErr = b.run(ctx, []farm.Variant{{}}, func(r farm.BatchResult) {
			if itemErr = r.Err; itemErr == nil {
				_, itemErr = out.Write(r.Body)
			}
		}); runErr == nil {
			runErr = itemErr
		}
	default:
		runErr = dispatch(ctx, out, ckt, opts, *node, wireFormat, *plot)
	}
	trace.Finish()
	if *stats {
		if err := trace.WriteSummary(errOut); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("-trace-json: %v", err)
		}
		werr := trace.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("-trace-json: %v", werr)
		}
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			return fmt.Errorf("-trace-chrome: %v", err)
		}
		werr := trace.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("-trace-chrome: %v", werr)
		}
	}
	if *diagFile != "" {
		f, err := os.Create(*diagFile)
		if err != nil {
			return fmt.Errorf("diagnostic file: %v", err)
		}
		defer f.Close()
		if derr := report.Diagnostic(f, ckt.Title, opts, runErr); derr != nil {
			return derr
		}
	}
	return runErr
}

func dispatch(ctx context.Context, out io.Writer, ckt *netlist.Circuit, opts tool.Options,
	node, format string, plot bool) error {
	t, err := tool.New(ckt, opts)
	if err != nil {
		return err
	}
	if node != "" {
		return runSingle(ctx, out, t, node, plot)
	}
	rep, err := t.AllNodes(ctx)
	if err != nil {
		return err
	}
	body, _, err := report.Render(format, t.Flat, rep)
	if err != nil {
		return err
	}
	_, err = out.Write(body)
	return err
}

func runSingle(ctx context.Context, out io.Writer, t *tool.Tool, node string, plot bool) error {
	nr, err := t.SingleNode(ctx, node)
	if err != nil {
		return err
	}
	if nr.Skipped {
		fmt.Fprintf(out, "node %s skipped: %s\n", nr.Node, nr.SkipReason)
		return nil
	}
	if plot {
		p, err := stab.Plot(nr.Impedance, t.Opts.Stab)
		if err != nil {
			return err
		}
		if err := wave.Plot(out, wave.PlotOptions{
			Title: "stability plot at " + nr.Node, LogX: true,
			XLabel: "Hz", YLabel: "P",
		}, p); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "node %s: %d peak(s)\n", nr.Node, len(nr.Stab.Peaks))
	for _, p := range nr.Stab.Peaks {
		kind := "pole"
		if p.IsZero {
			kind = "zero"
		}
		fmt.Fprintf(out, "  %-4s peak %9.3f at %.4g Hz (%s)\n", kind, p.Value, p.Freq, p.Type)
	}
	if nr.Best != nil && !nr.Best.IsZero {
		fmt.Fprintf(out, "dominant: peak %.3f at %.4g Hz -> zeta %.3f, phase margin %.1f deg, overshoot %.1f%%\n",
			nr.Best.Value, nr.Best.Freq, nr.Best.Zeta, nr.Best.PhaseMarginDeg, nr.Best.OvershootPct)
	}
	return nil
}

// batch runs variants of a farm job: on the worker at remote, or in
// this process through the farm's batch executor against a
// process-local compile cache, so a repeated variable set skips flatten
// and compile. Either way each variant is one whole analysis with the
// job's per-item deadline and panic boundary, and fails alone.
type batch struct {
	remote string
	job    *farm.BatchRequest
	tempC  *float64 // a -state temperature, for variants that set none
	trace  *obs.Run
}

// run runs the variants and hands each answered one's result to emit in
// order; a failed variant's Err is its *farm.ItemError, which reads the
// same locally and remotely. A remote batch runs traced, so the worker's
// phase spans and solver counters land in this run's trace. run returns
// the batch-level failure: the context ended, or the worker refused the
// job or stopped answering.
func (b batch) run(ctx context.Context, variants []farm.Variant, emit func(farm.BatchResult)) error {
	for i := range variants {
		if variants[i].TempC == nil {
			variants[i].TempC = b.tempC
		}
	}
	b.job.Variants = variants
	if b.remote != "" {
		c := &farm.Client{BaseURL: strings.TrimRight(b.remote, "/")}
		results, err := c.SubmitBatchTraced(ctx, b.job, b.trace)
		for _, r := range results {
			if err == nil || !errors.Is(r.Err, err) { // err marks the unanswered ones
				emit(r)
			}
		}
		return err
	}
	timeout := time.Duration(b.job.TimeoutMS) * time.Millisecond
	return farm.RunBatch(ctx, farm.NewCache(0), b.job, b.job.Options, timeout, b.trace, func(it farm.BatchItem) {
		r := farm.BatchResult{Index: it.Index, Label: it.Label, Body: it.Body, CacheHit: it.CacheHit, DurationMS: it.DurationMS}
		if it.Error != nil {
			r.Err = &farm.ItemError{Detail: *it.Error}
		}
		emit(r)
	})
}

// parseValues parses a comma-separated value list (SI suffixes
// accepted) for flag and returns it sorted.
func parseValues(flag, list string) ([]float64, error) {
	var vals []float64
	for _, s := range strings.Split(list, ",") {
		v, err := num.ParseValue(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", flag, err)
		}
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	return vals, nil
}

// worstLoop reads a -sweep or -mc variant's JSON report and returns its
// deepest loop, nil when it has none.
func worstLoop(r farm.BatchResult) (*stab.Loop, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	rep, err := report.ParseJSON(bytes.NewReader(r.Body))
	if err != nil {
		return nil, err
	}
	return tool.WorstLoop(rep), nil
}

// runTemps runs the deck at each temperature, coldest first (the
// paper's "in-tool sweeps (TEMP etc)"), and prints each report in the
// run's format under a === TEMP === banner.
func runTemps(ctx context.Context, out io.Writer, b batch, temps string) error {
	list, err := parseValues("-temps", temps)
	if err != nil {
		return err
	}
	variants := make([]farm.Variant, len(list))
	for i := range list {
		variants[i] = farm.Variant{Label: fmt.Sprintf("%g C", list[i]), TempC: &list[i]}
	}
	return b.run(ctx, variants, func(r farm.BatchResult) {
		fmt.Fprintf(out, "=== TEMP %g C ===\n", list[r.Index])
		if r.Err != nil {
			fmt.Fprintf(out, "failed: %v\n", r.Err)
		} else {
			fmt.Fprintf(out, "%s\n", r.Body)
		}
	})
}

// runSweep runs a design-variable sweep, smallest value first (the
// paper's in-tool sweeps generalized beyond temperature), and prints the
// worst loop at each value: the trend is the interesting output of a
// sweep.
func runSweep(ctx context.Context, out io.Writer, b batch, ckt *netlist.Circuit, sweep string) error {
	name, list, ok := strings.Cut(sweep, "=")
	if !ok {
		return fmt.Errorf("-sweep wants name=v1,v2,..., got %q", sweep)
	}
	vals, err := parseValues("-sweep", list)
	if err != nil {
		return err
	}
	param := strings.ToLower(name)
	if _, ok := ckt.Params[param]; !ok {
		return fmt.Errorf("tool: unknown design variable %q", param)
	}
	variants := make([]farm.Variant, len(vals))
	for i, v := range vals {
		variants[i] = farm.Variant{Label: fmt.Sprintf("%s=%g", param, v), Variables: map[string]float64{param: v}}
	}
	// The header waits for the first answer, so a refused batch prints
	// only its error.
	header := fmt.Sprintf("%-14s %-14s %-16s %-10s %-12s %s\n",
		name, "worst peak", "natural freq", "zeta", "PM deg", "overshoot %")
	b.job.Format = "json"
	return b.run(ctx, variants, func(r farm.BatchResult) {
		io.WriteString(out, header)
		header = ""
		v := vals[r.Index]
		switch w, err := worstLoop(r); {
		case err != nil:
			fmt.Fprintf(out, "%-14g failed: %v\n", v, err)
		case w == nil:
			fmt.Fprintf(out, "%-14g (no resonant loops)\n", v)
		default:
			fmt.Fprintf(out, "%-14g %-14.3f %-16.4g %-10.3f %-12.1f %.1f\n",
				v, w.WorstPeak, w.Freq, w.Zeta, w.PhaseMarginDeg, w.OvershootPct)
		}
	})
}

// runMC runs a Monte Carlo mismatch study over the design variables and
// prints the worst loop of each sample and the phase-margin quantiles.
func runMC(ctx context.Context, out io.Writer, b batch, ckt *netlist.Circuit, runs int, seed int64, sigmas multiFlag) error {
	spec := tool.MCSpec{Runs: runs, Seed: seed, Sigma: map[string]float64{}}
	for _, s := range sigmas {
		name, vs, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("-sigma wants name=value, got %q", s)
		}
		v, err := num.ParseValue(vs)
		if err != nil {
			return fmt.Errorf("-sigma %s: %v", s, err)
		}
		spec.Sigma[strings.ToLower(name)] = v
	}
	draws, err := tool.MonteCarlo(ckt, spec)
	if err != nil {
		return err
	}
	variants := make([]farm.Variant, len(draws))
	for i, vars := range draws {
		variants[i] = farm.Variant{Label: fmt.Sprintf("mc%d", i), Variables: vars}
	}
	header := fmt.Sprintf("%-6s %-14s %-16s %-10s\n", "run", "worst peak", "natural freq", "PM deg")
	var pms []float64 // of the samples with a resonant loop
	failed := 0
	b.job.Format = "json"
	err = b.run(ctx, variants, func(r farm.BatchResult) {
		io.WriteString(out, header)
		header = ""
		w, err := worstLoop(r)
		if err != nil {
			failed++
			fmt.Fprintf(out, "%-6d failed: %v\n", r.Index, err)
			return
		}
		var l stab.Loop
		if w != nil {
			l = *w
		}
		if l.Freq > 0 {
			pms = append(pms, l.PhaseMarginDeg)
		}
		fmt.Fprintf(out, "%-6d %-14.3f %-16.4g %-10.1f\n", r.Index, l.WorstPeak, l.Freq, l.PhaseMarginDeg)
	})
	if err == nil && len(pms) > 0 {
		sort.Float64s(pms)
		q := func(p float64) float64 { return pms[int(p*float64(len(pms)-1))] }
		fmt.Fprintf(out, "phase margin quantiles: p5=%.1f p50=%.1f p95=%.1f (deg), %d/%d runs failed\n",
			q(0.05), q(0.50), q(0.95), failed, runs)
	}
	return err
}

// runCorners runs a corner batch from a corners file: every corner is
// the job's circuit under different design-variable overrides (on top of
// the job's own), exactly the workload the farm's compiled-system cache
// amortizes. Each prints its report under a === CORNER === banner,
// mirroring the temperature sweep.
func runCorners(ctx context.Context, out io.Writer, b batch, path string) error {
	variants, err := parseCorners(path)
	if err != nil {
		return err
	}
	return b.run(ctx, variants, func(r farm.BatchResult) {
		how := "compiled"
		if r.CacheHit {
			how = "cache hit"
		}
		fmt.Fprintf(out, "=== CORNER %s (%s, %.1f ms) ===\n", r.Label, how, r.DurationMS)
		if r.Err != nil {
			fmt.Fprintf(out, "failed: %v\n\n", r.Err)
		} else {
			fmt.Fprintf(out, "%s\n", r.Body)
		}
	})
}

// parseCorners reads a corners file: one corner per line; blank lines and
// lines starting with '#' or '*' are skipped. A line is
//
//	label name=value name=value ...
//
// where the leading label (any first token without '=') names the corner
// and each name=value pair overrides a design variable (SI suffixes
// accepted). A line of bare name=value pairs gets a positional label.
func parseCorners(path string) ([]farm.Variant, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-corners: %v", err)
	}
	return parseCornersText(path, string(b))
}

// parseCornersText parses the text of a corners file; name attributes
// errors to the file.
func parseCornersText(name, text string) ([]farm.Variant, error) {
	var out []farm.Variant
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "*") {
			continue
		}
		fields := strings.Fields(line)
		v := farm.Variant{}
		rest := fields
		if !strings.Contains(fields[0], "=") {
			v.Label = fields[0]
			rest = fields[1:]
		} else {
			v.Label = fmt.Sprintf("corner%d", len(out)+1)
		}
		vars := map[string]float64{}
		for _, f := range rest {
			vname, vs, ok := strings.Cut(f, "=")
			if !ok || vname == "" {
				return nil, fmt.Errorf("-corners %s:%d: want name=value, got %q", name, ln+1, f)
			}
			val, err := num.ParseValue(vs)
			if err != nil {
				return nil, fmt.Errorf("-corners %s:%d: %s: %v", name, ln+1, f, err)
			}
			vars[strings.ToLower(vname)] = val
		}
		if len(vars) > 0 {
			v.Variables = vars
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-corners %s: no corners in file", name)
	}
	return out, nil
}

// loadCircuit reads the netlist from a file (resolving .include relative
// to it) or from stdin (no includes).
func loadCircuit(path string) (string, *netlist.Circuit, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", nil, err
		}
		c, err := netlist.Parse(string(b))
		return string(b), c, err
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", nil, err
	}
	dir, base := filepath.Dir(abs), filepath.Base(abs)
	// Expand includes so remote submission ships a self-contained deck.
	src, err := netlist.ExpandFS(os.DirFS(dir), base)
	if err != nil {
		return "", nil, err
	}
	c, err := netlist.Parse(src)
	return src, c, err
}

// multiFlag collects repeated flag values.
type multiFlag []string

// String implements flag.Value.
func (m *multiFlag) String() string { return strings.Join(*m, ",") }

// Set implements flag.Value.
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
