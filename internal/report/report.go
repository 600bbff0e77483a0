// Package report renders the outputs of the stability tool: the sorted
// all-nodes text report (the paper's Table 2 format, including the
// "special cases" notices), CSV and JSON exports, netlist annotation (the
// schematic-annotation substitute for Fig. 5), and the diagnostic report
// file that stands in for the tool's auto-generated support e-mails.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"acstab/internal/netlist"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

// Text writes the all-nodes report in the paper's Table 2 layout: loops
// sorted by natural frequency, nodes within each loop, stability peak
// magnitude and natural frequency per node, with special-case notices and
// the loop-level damping/phase-margin/overshoot estimate.
func Text(w io.Writer, rep *tool.Report) error {
	fmt.Fprintf(w, "AC-Stability All-Nodes Report\n")
	fmt.Fprintf(w, "circuit: %s\n", rep.CircuitTitle)
	fmt.Fprintf(w, "temperature: %g C, sweep %s .. %s, %d pts/dec\n",
		rep.Temp, hz(rep.Options.FStart), hz(rep.Options.FStop), rep.Options.PointsPerDecade)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-14s %-18s %s\n", "Node", "Stability Peak", "Natural Frequency", "Notes")
	fmt.Fprintln(w, strings.Repeat("-", 64))

	inLoop := map[string]bool{}
	for _, l := range rep.Loops {
		fmt.Fprintf(w, "Loop at %s   (zeta %.2f, phase margin %.0f deg, overshoot %.0f%%)\n",
			hz(l.Freq), l.Zeta, l.PhaseMarginDeg, l.OvershootPct)
		for _, np := range l.Nodes {
			inLoop[np.Node] = true
			fmt.Fprintf(w, "%-12s %-14.6f %-18s %s\n",
				np.Node, math.Abs(np.Peak.Value), sci(np.Peak.Freq), notice(np.Peak))
		}
	}
	// Nodes without a resonant peak or skipped.
	var rest []tool.NodeResult
	for _, n := range rep.Nodes {
		if !inLoop[n.Node] {
			rest = append(rest, n)
		}
	}
	if len(rest) > 0 {
		fmt.Fprintln(w, "Nodes without resonant peaks")
		for _, n := range rest {
			switch {
			case n.Skipped:
				fmt.Fprintf(w, "%-12s %-14s %-18s skipped: %s\n", n.Node, "-", "-", n.SkipReason)
			case n.Best == nil:
				fmt.Fprintf(w, "%-12s %-14s %-18s no negative peak\n", n.Node, "-", "-")
			default:
				fmt.Fprintf(w, "%-12s %-14.6f %-18s %s\n",
					n.Node, math.Abs(n.Best.Value), sci(n.Best.Freq), notice(*n.Best))
			}
		}
	}
	return nil
}

// notice renders the special-case annotation of a peak, mirroring the
// "end-of-range" and "min/max" notices of the original tool.
func notice(p stab.Peak) string {
	switch p.Type {
	case stab.PeakEndOfRange:
		return "notice: end-of-range peak"
	case stab.PeakMinMax:
		return "notice: min/max peak (no resonance)"
	}
	return ""
}

// sci formats a frequency like the paper's Table 2 ("3.16E+06").
func sci(f float64) string {
	return strings.ToUpper(strconv.FormatFloat(f, 'E', 2, 64))
}

// hz formats a frequency with engineering units for headers.
func hz(f float64) string {
	switch {
	case f >= 1e9:
		return fmt.Sprintf("%.3g GHz", f/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%.3g MHz", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.3g kHz", f/1e3)
	}
	return fmt.Sprintf("%.3g Hz", f)
}

// CSV writes one row per node with loop assignment.
func CSV(w io.Writer, rep *tool.Report) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{
		"node", "loop_id", "loop_freq_hz", "peak", "natural_freq_hz",
		"zeta", "phase_margin_deg", "overshoot_pct", "peak_type", "skipped",
	}); err != nil {
		return err
	}
	loopOf := map[string]*stab.Loop{}
	for i := range rep.Loops {
		for _, np := range rep.Loops[i].Nodes {
			loopOf[np.Node] = &rep.Loops[i]
		}
	}
	for _, n := range rep.Nodes {
		row := []string{n.Node, "", "", "", "", "", "", "", "", strconv.FormatBool(n.Skipped)}
		if l := loopOf[n.Node]; l != nil {
			row[1] = strconv.Itoa(l.ID)
			row[2] = fmt.Sprintf("%g", l.Freq)
		}
		if n.Best != nil {
			row[3] = fmt.Sprintf("%g", n.Best.Value)
			row[4] = fmt.Sprintf("%g", n.Best.Freq)
			if !math.IsNaN(n.Best.Zeta) {
				row[5] = fmt.Sprintf("%g", n.Best.Zeta)
				row[6] = fmt.Sprintf("%g", n.Best.PhaseMarginDeg)
				row[7] = fmt.Sprintf("%g", n.Best.OvershootPct)
			}
			row[8] = n.Best.Type.String()
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return cw.Error()
}

// jsonPeak is the JSON shape of a peak.
type jsonPeak struct {
	FreqHz         float64 `json:"freq_hz"`
	Value          float64 `json:"value"`
	Type           string  `json:"type"`
	IsZero         bool    `json:"is_zero"`
	Zeta           float64 `json:"zeta,omitempty"`
	PhaseMarginDeg float64 `json:"phase_margin_deg,omitempty"`
	OvershootPct   float64 `json:"overshoot_pct,omitempty"`
}

type jsonNode struct {
	Node       string     `json:"node"`
	Skipped    bool       `json:"skipped,omitempty"`
	SkipReason string     `json:"skip_reason,omitempty"`
	Best       *jsonPeak  `json:"best,omitempty"`
	Peaks      []jsonPeak `json:"peaks,omitempty"`
}

type jsonLoop struct {
	ID             int      `json:"id"`
	FreqHz         float64  `json:"freq_hz"`
	WorstPeak      float64  `json:"worst_peak"`
	Zeta           float64  `json:"zeta"`
	PhaseMarginDeg float64  `json:"phase_margin_deg"`
	OvershootPct   float64  `json:"overshoot_pct"`
	Nodes          []string `json:"nodes"`
}

type jsonReport struct {
	Circuit string     `json:"circuit"`
	TempC   float64    `json:"temp_c"`
	Loops   []jsonLoop `json:"loops"`
	Nodes   []jsonNode `json:"nodes"`
}

// JSON writes the report as a machine-readable document.
func JSON(w io.Writer, rep *tool.Report) error {
	out := jsonReport{Circuit: rep.CircuitTitle, TempC: rep.Temp}
	for _, l := range rep.Loops {
		jl := jsonLoop{
			ID: l.ID, FreqHz: l.Freq, WorstPeak: l.WorstPeak,
			Zeta: l.Zeta, PhaseMarginDeg: l.PhaseMarginDeg, OvershootPct: l.OvershootPct,
		}
		for _, np := range l.Nodes {
			jl.Nodes = append(jl.Nodes, np.Node)
		}
		out.Loops = append(out.Loops, jl)
	}
	for _, n := range rep.Nodes {
		jn := jsonNode{Node: n.Node, Skipped: n.Skipped, SkipReason: n.SkipReason}
		if n.Best != nil {
			jn.Best = toJSONPeak(*n.Best)
		}
		if n.Stab != nil {
			for _, p := range n.Stab.Peaks {
				jn.Peaks = append(jn.Peaks, *toJSONPeak(p))
			}
		}
		out.Nodes = append(out.Nodes, jn)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func toJSONPeak(p stab.Peak) *jsonPeak {
	jp := &jsonPeak{FreqHz: p.Freq, Value: p.Value, Type: p.Type.String(), IsZero: p.IsZero}
	if !math.IsNaN(p.Zeta) {
		jp.Zeta = p.Zeta
		jp.PhaseMarginDeg = p.PhaseMarginDeg
		jp.OvershootPct = p.OvershootPct
	}
	return jp
}

// fromJSONPeak inverts toJSONPeak. The damping trio is omitted from the
// wire when it is NaN (zero peaks, paper footnote 2); a genuine zeta of
// exactly 0 cannot occur for a finite peak value (depth is -1/zeta², so
// zeta→0 means an infinite peak, and a zero zeta would print a 100%
// overshoot, not 0), so an all-zero trio decodes back to NaN.
func fromJSONPeak(jp jsonPeak) (stab.Peak, error) {
	typ, err := stab.ParsePeakType(jp.Type)
	if err != nil {
		return stab.Peak{}, err
	}
	p := stab.Peak{
		Freq: jp.FreqHz, Value: jp.Value, Type: typ, IsZero: jp.IsZero,
		Zeta: jp.Zeta, PhaseMarginDeg: jp.PhaseMarginDeg, OvershootPct: jp.OvershootPct,
	}
	if jp.Zeta == 0 && jp.PhaseMarginDeg == 0 && jp.OvershootPct == 0 {
		p.Zeta, p.PhaseMarginDeg, p.OvershootPct = math.NaN(), math.NaN(), math.NaN()
	}
	return p, nil
}

// ParseJSON reads a report previously written by JSON back into a
// tool.Report — the shard coordinator's merge input: each worker answers
// its node-range shard in `format: "json"` and the coordinator
// reconstructs the partial reports before re-clustering the union of
// peaks. Waveforms (per-node impedance and stability plots) are not part
// of the JSON schema, so the parsed report carries peaks and loop
// structure only — exactly what the text, CSV, JSON, and annotate
// renderers consume. Loop membership is rebuilt by joining the loop's
// node names against the nodes' dominant peaks; float values round-trip
// exactly (encoding/json emits shortest-round-trip representations).
func ParseJSON(r io.Reader) (*tool.Report, error) {
	var in jsonReport
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("report: parse json: %w", err)
	}
	rep := &tool.Report{CircuitTitle: in.Circuit, Temp: in.TempC}
	best := map[string]*stab.Peak{}
	for _, jn := range in.Nodes {
		nr := tool.NodeResult{Node: jn.Node, Skipped: jn.Skipped, SkipReason: jn.SkipReason}
		if jn.Best != nil {
			p, err := fromJSONPeak(*jn.Best)
			if err != nil {
				return nil, fmt.Errorf("report: node %s: %w", jn.Node, err)
			}
			nr.Best = &p
			best[jn.Node] = &p
		}
		if len(jn.Peaks) > 0 {
			res := &stab.Result{}
			for _, jp := range jn.Peaks {
				p, err := fromJSONPeak(jp)
				if err != nil {
					return nil, fmt.Errorf("report: node %s: %w", jn.Node, err)
				}
				res.Peaks = append(res.Peaks, p)
			}
			nr.Stab = res
		}
		rep.Nodes = append(rep.Nodes, nr)
	}
	for _, jl := range in.Loops {
		l := stab.Loop{
			ID: jl.ID, Freq: jl.FreqHz, WorstPeak: jl.WorstPeak,
			Zeta: jl.Zeta, PhaseMarginDeg: jl.PhaseMarginDeg, OvershootPct: jl.OvershootPct,
		}
		for _, name := range jl.Nodes {
			p, ok := best[name]
			if !ok {
				return nil, fmt.Errorf("report: loop %d references node %q with no dominant peak", jl.ID, name)
			}
			l.Nodes = append(l.Nodes, stab.NodePeak{Node: name, Peak: *p})
		}
		rep.Loops = append(rep.Loops, l)
	}
	return rep, nil
}

// Annotate writes the flattened netlist with per-node stability results as
// comments next to each element — the text substitute for annotating
// results onto the schematic (paper Fig. 5).
func Annotate(w io.Writer, ckt *netlist.Circuit, rep *tool.Report) error {
	best := map[string]*stab.Peak{}
	for i := range rep.Nodes {
		n := &rep.Nodes[i]
		if n.Best != nil {
			best[n.Node] = n.Best
		}
	}
	fmt.Fprintf(w, "* %s\n", ckt.Title)
	fmt.Fprintf(w, "* annotated with stability peaks (|peak| @ natural frequency)\n")
	seen := map[string]bool{}
	var nodes []string
	for _, e := range ckt.Elems {
		for _, n := range e.Nodes {
			if !seen[n] && !netlist.IsGround(n) {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if p, ok := best[n]; ok {
			fmt.Fprintf(w, "* node %-12s peak %8.3f @ %s %s\n",
				n, math.Abs(p.Value), sci(p.Freq), notice(*p))
		} else {
			fmt.Fprintf(w, "* node %-12s (no resonant peak)\n", n)
		}
	}
	fmt.Fprintln(w, "*")
	fmt.Fprint(w, netlist.Format(ckt))
	return nil
}

// Diagnostic writes a support-report file describing a failed (or
// successful) run — the offline substitute for the original tool's
// automatic error-reporting e-mails.
func Diagnostic(w io.Writer, circuitTitle string, opts tool.Options, runErr error) error {
	fmt.Fprintln(w, "acstab diagnostic report")
	fmt.Fprintf(w, "circuit: %s\n", circuitTitle)
	fmt.Fprintf(w, "sweep: %s .. %s, %d pts/dec, workers=%d\n",
		hz(opts.FStart), hz(opts.FStop), opts.PointsPerDecade, opts.Workers)
	if runErr != nil {
		fmt.Fprintf(w, "status: FAILED\nerror: %v\n", runErr)
	} else {
		fmt.Fprintln(w, "status: ok")
	}
	fmt.Fprintln(w, "attach this file when reporting tool issues.")
	return nil
}
