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
//	acstab -i circuit.cir -temps 27,85,125     # temperature sweep
//	acstab -i circuit.cir -set rload=2k        # design-variable override
//	acstab -i circuit.cir -corners pvt.corners # corner batch (one report per line of the file)
//	acstab -i circuit.cir -stats               # phase timings + solver counters
//	acstab -i circuit.cir -trace-json t.json   # machine-readable run trace
//	acstab -i circuit.cir -trace-chrome t.json # Chrome trace-event timeline (Perfetto)
//	acstab -i circuit.cir -cpuprofile cpu.pb   # pprof CPU profile of the run
//	acstab -i circuit.cir -memprofile mem.pb   # heap profile at run end
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
	var (
		input     = fs.String("i", "", "input netlist file (default: stdin)")
		node      = fs.String("node", "", "single-node mode: analyze this node")
		fstart    = fs.String("fstart", "1k", "sweep start frequency")
		fstop     = fs.String("fstop", "1g", "sweep stop frequency")
		ppd       = fs.Int("ppd", 40, "points per decade")
		coarsePPD = fs.Int("coarse-ppd", 0, "adaptive sweep: coarse pass resolution in points per decade (0 = adaptive off, dense uniform grid)")
		refinePPD = fs.Int("refine-ppd", 0, "adaptive sweep: refinement resolution cap in points per decade (0 = -ppd)")
		refineThr = fs.Float64("refine-threshold", 0, "adaptive sweep: |P| level that marks an interval resonant (0 = default 0.5)")
		format    = fs.String("format", "text", "all-nodes output: text, csv, json")
		annotate  = fs.Bool("annotate", false, "print the annotated netlist instead of the report")
		plot      = fs.Bool("plot", false, "render ASCII plots (single-node mode)")
		loopTol   = fs.Float64("loop-tol", 0.12, "relative tolerance for loop clustering")
		resTol    = fs.Float64("residual-tol", 0, "scale-relative residual above which a solve is refined (0 = default 1e-9, negative disables the numerics observatory)")
		skip      = fs.String("skip", "", "comma-separated node-name substrings to skip")
		subckt    = fs.String("subckt", "", "restrict all-nodes mode to one subcircuit instance (e.g. x1)")
		temps     = fs.String("temps", "", "comma-separated temperatures (C) for a sweep")
		sweep     = fs.String("sweep", "", "design-variable sweep: name=v1,v2,v3")
		corners   = fs.String("corners", "", "corners file: one corner per line, 'label name=value ...'; runs the whole batch (local, or one wire-v2 submission with -remote)")
		mcRuns    = fs.Int("mc", 0, "Monte Carlo runs (with -sigma)")
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
	// A farm job, remote or one -corners variant, is one whole analysis of
	// the deck at its own temperature; what it cannot carry is refused by
	// name rather than silently dropped. Only the wire lacks -residual-tol.
	refuse := func(what string) error {
		if *remote != "" {
			return fmt.Errorf("%s does not run remotely; drop -remote to run it locally", what)
		}
		return fmt.Errorf("%s does not run with -corners: each corner is one analysis of the deck at its own temperature", what)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"mc", *mcRuns > 0}, {"temps", *temps != ""}, {"sweep", *sweep != ""},
		{"plot", *plot}, {"residual-tol", *resTol != 0 && *remote != ""},
	} {
		if f.set && (*remote != "" || *corners != "") {
			return refuse("-" + f.name)
		}
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
	// the deck's own; a farm job carries them as its variables.
	overrides := map[string]float64{}
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

	opts := tool.DefaultOptions()
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
		st, err := tool.LoadState(f)
		f.Close()
		if err != nil {
			return err
		}
		if (*remote != "" || *corners != "") && st.TempC != nil && *st.TempC != ckt.Temp {
			return refuse(fmt.Sprintf("-state: temp_c %g (the deck runs at %g)", *st.TempC, ckt.Temp))
		}
		if err := st.Apply(ckt, &opts, true); err != nil {
			return err
		}
		for k, v := range st.Variables {
			overrides[k] = v
		}
	}
	if *stateOut != "" {
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

	wireFormat := *format
	if *annotate {
		wireFormat = "annotate"
	}
	job := farmRequest(src, opts, overrides, *node, wireFormat, *timeout)
	var runErr error
	switch {
	case *corners != "":
		runErr = runCorners(ctx, out, *remote, job, opts, trace, *corners)
	case *remote != "":
		runErr = runRemote(ctx, out, *remote, job, trace)
	case *mcRuns > 0:
		runErr = runMC(ctx, out, ckt, opts, *mcRuns, *mcSeed, sigmas)
	default:
		runErr = dispatch(ctx, out, ckt, opts, *node, *format, *annotate, *plot, *temps, *sweep)
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
	node, format string, annotate, plot bool, temps, sweep string) error {
	if temps != "" {
		return runTemps(ctx, out, ckt, opts, temps)
	}
	if sweep != "" {
		return runSweep(ctx, out, ckt, opts, sweep)
	}
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
	if annotate {
		return report.Annotate(out, t.Flat, rep)
	}
	switch format {
	case "text":
		return report.Text(out, rep)
	case "csv":
		return report.CSV(out, rep)
	case "json":
		return report.JSON(out, rep)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
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

// runSweep executes a design-variable sweep and prints the worst loop at
// each point (the trend is the interesting output of a sweep).
func runSweep(ctx context.Context, out io.Writer, ckt *netlist.Circuit, opts tool.Options, sweep string) error {
	name, list, ok := strings.Cut(sweep, "=")
	if !ok {
		return fmt.Errorf("-sweep wants name=v1,v2,..., got %q", sweep)
	}
	var vals []float64
	for _, s := range strings.Split(list, ",") {
		v, err := num.ParseValue(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("-sweep: %v", err)
		}
		vals = append(vals, v)
	}
	points, err := tool.RunParamSweep(ctx, ckt, opts, strings.ToLower(name), vals)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %-14s %-16s %-10s %-12s %s\n",
		name, "worst peak", "natural freq", "zeta", "PM deg", "overshoot %")
	for _, p := range points {
		if p.Err != nil {
			fmt.Fprintf(out, "%-14g failed: %v\n", p.Value, p.Err)
			continue
		}
		w := tool.WorstLoop(p.Report)
		if w == nil {
			fmt.Fprintf(out, "%-14g (no resonant loops)\n", p.Value)
			continue
		}
		fmt.Fprintf(out, "%-14g %-14.3f %-16.4g %-10.3f %-12.1f %.1f\n",
			p.Value, w.WorstPeak, w.Freq, w.Zeta, w.PhaseMarginDeg, w.OvershootPct)
	}
	return nil
}

func runTemps(ctx context.Context, out io.Writer, ckt *netlist.Circuit, opts tool.Options, temps string) error {
	var list []float64
	for _, s := range strings.Split(temps, ",") {
		v, err := num.ParseValue(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("-temps: %v", err)
		}
		list = append(list, v)
	}
	results := tool.RunTemps(ctx, ckt, opts, list)
	for _, r := range results {
		fmt.Fprintf(out, "=== TEMP %g C ===\n", r.Temp)
		if r.Err != nil {
			fmt.Fprintf(out, "failed: %v\n", r.Err)
			continue
		}
		if err := report.Text(out, r.Report); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runMC runs a Monte Carlo mismatch study over the design variables.
func runMC(ctx context.Context, out io.Writer, ckt *netlist.Circuit, opts tool.Options, runs int, seed int64, sigmas multiFlag) error {
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
	res, err := tool.MonteCarlo(ctx, ckt, opts, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-6s %-14s %-16s %-10s\n", "run", "worst peak", "natural freq", "PM deg")
	for i, sm := range res.Samples {
		if sm.Err != nil {
			fmt.Fprintf(out, "%-6d failed: %v\n", i, sm.Err)
			continue
		}
		fmt.Fprintf(out, "%-6d %-14.3f %-16.4g %-10.1f\n", i, sm.WorstPeak, sm.FreqHz, sm.PMDeg)
	}
	if p5, ok := res.PMQuantile(0.05); ok {
		p50, _ := res.PMQuantile(0.50)
		p95, _ := res.PMQuantile(0.95)
		fmt.Fprintf(out, "phase margin quantiles: p5=%.1f p50=%.1f p95=%.1f (deg), %d/%d runs failed\n",
			p5, p50, p95, res.Failed, runs)
	}
	return nil
}

// farmRequest is the farm job for the CLI's run setup: the deck, the
// sweep options, and the design-variable overrides (-set values and a
// -state file's variables), as a batch of one empty variant. runRemote
// ships it as it is and runCorners swaps in the corners, so a worker
// analyzes exactly what the local run would.
func farmRequest(src string, opts tool.Options, vars map[string]float64,
	node, format string, timeout time.Duration) *farm.BatchRequest {
	return &farm.BatchRequest{
		Netlist:   src,
		Format:    format,
		Node:      node,
		TimeoutMS: timeout.Milliseconds(),
		Variables: vars,
		Options: farm.RequestOptions{
			FStartHz:              opts.FStart,
			FStopHz:               opts.FStop,
			PointsPerDecade:       opts.PointsPerDecade,
			CoarsePointsPerDecade: opts.CoarsePointsPerDecade,
			RefinePointsPerDecade: opts.RefinePointsPerDecade,
			RefineThreshold:       opts.RefineThreshold,
			LoopTol:               opts.LoopTol,
			SkipNodes:             opts.SkipNodes,
			OnlySubckt:            opts.OnlySubckt,
		},
		Variants: []farm.Variant{{}},
	}
}

// runRemote ships the job to an acstabd farm worker as a one-variant
// batch and prints its report, or returns the item's typed error. A
// -timeout is forwarded as the job's timeout_ms so the worker enforces
// the same deadline server-side. The submission runs traced: the
// worker's phase spans and solver counters come back over the wire and
// land in this process's run trace, so -stats/-trace-json/-trace-chrome
// show the remote flatten/op/sweep/stability work as if it ran locally.
func runRemote(ctx context.Context, out io.Writer, url string, job *farm.BatchRequest, trace *obs.Run) error {
	c := &farm.Client{BaseURL: strings.TrimRight(url, "/")}
	results, err := c.SubmitBatchTraced(ctx, job, trace)
	if err != nil {
		return err
	}
	if err := results[0].Err; err != nil {
		return err
	}
	_, err = out.Write(results[0].Body)
	return err
}

// runCorners drives a corner batch from a corners file: every corner is
// the job's circuit under different design-variable overrides (on top of
// the job's own), exactly the workload the farm's compiled-system cache
// amortizes. With -remote the whole batch ships as one traced submission
// (per-item errors and retries handled by the client, each corner's
// worker trace grafted into this run's); locally the corners run through
// the same batch executor against a process-local cache, so corner 2 of
// an unchanged variable set skips flatten/compile entirely.
func runCorners(ctx context.Context, out io.Writer, remote string, job *farm.BatchRequest,
	opts tool.Options, trace *obs.Run, path string) error {
	variants, err := parseCorners(path)
	if err != nil {
		return err
	}
	job.Variants = variants
	if remote != "" {
		c := &farm.Client{BaseURL: strings.TrimRight(remote, "/")}
		results, err := c.SubmitBatchTraced(ctx, job, trace)
		for _, r := range results {
			printCorner(out, r.Label, r.CacheHit, r.DurationMS, r.Body, r.Err)
		}
		return err
	}
	timeout := time.Duration(job.TimeoutMS) * time.Millisecond
	return farm.RunBatch(ctx, farm.NewCache(0), job, opts, timeout, trace, func(it farm.BatchItem) {
		var err error
		if it.Error != nil {
			err = fmt.Errorf("%s: %s", it.Error.Code, it.Error.Message)
		}
		printCorner(out, it.Label, it.CacheHit, it.DurationMS, it.Body, err)
	})
}

// printCorner renders one corner's banner and report, mirroring the
// temperature sweep's === section === style.
func printCorner(out io.Writer, label string, hit bool, durMS float64, body []byte, err error) {
	how := "compiled"
	if hit {
		how = "cache hit"
	}
	fmt.Fprintf(out, "=== CORNER %s (%s, %.1f ms) ===\n", label, how, durMS)
	if err != nil {
		fmt.Fprintf(out, "failed: %v\n\n", err)
		return
	}
	out.Write(body)
	fmt.Fprintln(out)
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
