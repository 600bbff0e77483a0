// Package report renders the outputs of the stability tool: the sorted
// all-nodes text report (the paper's Table 2 format, including the
// "special cases" notices), CSV and JSON exports, netlist annotation (the
// schematic-annotation substitute for Fig. 5), and the diagnostic report
// file that stands in for the tool's auto-generated support e-mails.
package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
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

// CheckFormat checks the name of a report format: text, csv, json,
// annotate (the annotated netlist), or "" for text. A rejection is a
// *tool.FieldError on "format", the farm wire's key for it, so the CLI
// and the worker refuse a format with the same words.
func CheckFormat(format string) error {
	switch format {
	case "", "text", "csv", "json", "annotate":
		return nil
	}
	return &tool.FieldError{Field: "format",
		Reason: fmt.Sprintf("unknown format %q (text, csv, json, annotate)", format)}
}

// Render renders an all-nodes report in a format CheckFormat accepts and
// returns the bytes with their media type. flat is the flattened circuit
// that annotate prints. json is one AppendJSON into a buffer sized for
// the report.
func Render(format string, flat *netlist.Circuit, rep *tool.Report) ([]byte, string, error) {
	if format == "json" {
		b, err := AppendJSON(nil, rep)
		return b, "application/json", err
	}
	var buf bytes.Buffer
	var err error
	contentType := "text/plain; charset=utf-8"
	switch format {
	case "", "text":
		err = Text(&buf, rep)
	case "csv":
		err = CSV(&buf, rep)
		contentType = "text/csv"
	case "annotate":
		err = Annotate(&buf, flat, rep)
	default:
		return nil, "", CheckFormat(format)
	}
	return buf.Bytes(), contentType, err
}

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

// jsonPeak, jsonNode, jsonLoop and jsonReport are the document shapes
// ParseJSON decodes into. Their field order and omitempty tags spell out
// the schema AppendJSON writes by hand.
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

// JSON writes the report as a machine-readable document: one AppendJSON
// and one Write.
func JSON(w io.Writer, rep *tool.Report) error {
	b, err := AppendJSON(nil, rep)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendJSON appends the report as a machine-readable JSON document to
// dst and returns the extended buffer. The bytes are exactly those of
// encoding/json's Encoder with SetIndent("", "  ") over the jsonReport
// shape: two-space indentation, a trailing newline, null for a report
// without loops or nodes and for a loop without nodes, and the peak
// damping trio (zeta, phase margin, overshoot) omitted when zeta is NaN
// and each member omitted when it is zero. Floats are written by
// AppendJSONFloat and strings by AppendJSONString. A NaN or infinite
// value fails with *json.UnsupportedValueError and returns dst with
// nothing appended.
func AppendJSON(dst []byte, rep *tool.Report) ([]byte, error) {
	n0 := len(dst)
	if dst == nil {
		dst = make([]byte, 0, jsonSizeHint(rep))
	}
	w := jsonWriter{b: dst}
	w.open('{')
	w.key("circuit")
	w.str(rep.CircuitTitle)
	w.key("temp_c")
	w.float(rep.Temp)
	w.key("loops")
	if len(rep.Loops) == 0 {
		w.null()
	} else {
		w.open('[')
		for i := range rep.Loops {
			w.next()
			w.loop(&rep.Loops[i])
		}
		w.close(']')
	}
	w.key("nodes")
	if len(rep.Nodes) == 0 {
		w.null()
	} else {
		w.open('[')
		for i := range rep.Nodes {
			w.next()
			w.node(&rep.Nodes[i])
		}
		w.close(']')
	}
	w.close('}')
	if w.err != nil {
		return dst[:n0], w.err
	}
	return append(w.b, '\n'), nil
}

// jsonSizeHint estimates the rendered size of a report from above, so
// that AppendJSON into a nil buffer allocates once. The constants are the
// indentation, keys and punctuation of each part at its nesting depth;
// every float is budgeted at jsonFloatHint bytes.
func jsonSizeHint(rep *tool.Report) int {
	n := 64 + len(rep.CircuitTitle) + jsonFloatHint
	for i := range rep.Loops {
		n += 168 + 5*jsonFloatHint
		for _, np := range rep.Loops[i].Nodes {
			n += 12 + len(np.Node)
		}
	}
	for i := range rep.Nodes {
		nr := &rep.Nodes[i]
		n += 32 + len(nr.Node)
		if nr.Skipped || nr.SkipReason != "" {
			n += 48 + len(nr.SkipReason)
		}
		if nr.Best != nil {
			n += 16 + peakSizeHint(nr.Best)
		}
		if nr.Stab != nil {
			n += 26
			for j := range nr.Stab.Peaks {
				n += peakSizeHint(&nr.Stab.Peaks[j])
			}
		}
	}
	return n
}

// jsonFloatHint covers a 17-digit mantissa with its sign and point.
const jsonFloatHint = 20

// peakSizeHint is the size of one peak object at the deepest indent.
func peakSizeHint(p *stab.Peak) int {
	if math.IsNaN(p.Zeta) {
		return 128 + 2*jsonFloatHint
	}
	return 210 + 5*jsonFloatHint
}

// jsonWriter appends an indented JSON document. depth is the current
// nesting level and first reports that the innermost open object or array
// has no member yet, so the next one is written without a comma. err holds
// the first unsupported value; the caller discards b when it is set.
type jsonWriter struct {
	b     []byte
	depth int
	first bool
	err   error
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// next starts a member of the innermost object or array.
func (w *jsonWriter) next() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

func (w *jsonWriter) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

// key starts an object member; k must be a plain ASCII constant.
func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *jsonWriter) null() { w.b = append(w.b, "null"...) }

func (w *jsonWriter) boolean(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *jsonWriter) str(s string) { w.b = AppendJSONString(w.b, s) }

func (w *jsonWriter) float(f float64) {
	b, err := AppendJSONFloat(w.b, f)
	w.b = b
	if err != nil && w.err == nil {
		w.err = err
	}
}

// AppendJSONString appends s as a JSON string, byte for byte as
// encoding/json writes it with HTML escaping on. A string of printable
// ASCII other than `"`, `\`, `<`, `>` and `&` is copied verbatim; any
// other string is escaped by json.Marshal (HTML-safe escapes,
// \u2028/\u2029, U+FFFD for invalid UTF-8).
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendJSONFloat appends f in encoding/json's float64 format: the
// shortest representation that round-trips, in 'f' notation unless
// |f| < 1e-6 or |f| >= 1e21, where it is 'e' with a two-digit minimum
// exponent cleaned to one digit (1e-7, not 1e-07). A NaN or infinite f
// fails with *json.UnsupportedValueError and returns dst unchanged.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

func (w *jsonWriter) loop(l *stab.Loop) {
	w.open('{')
	w.key("id")
	w.b = strconv.AppendInt(w.b, int64(l.ID), 10)
	w.key("freq_hz")
	w.float(l.Freq)
	w.key("worst_peak")
	w.float(l.WorstPeak)
	w.key("zeta")
	w.float(l.Zeta)
	w.key("phase_margin_deg")
	w.float(l.PhaseMarginDeg)
	w.key("overshoot_pct")
	w.float(l.OvershootPct)
	w.key("nodes")
	if len(l.Nodes) == 0 {
		w.null()
	} else {
		w.open('[')
		for _, np := range l.Nodes {
			w.next()
			w.str(np.Node)
		}
		w.close(']')
	}
	w.close('}')
}

func (w *jsonWriter) node(n *tool.NodeResult) {
	w.open('{')
	w.key("node")
	w.str(n.Node)
	if n.Skipped {
		w.key("skipped")
		w.boolean(true)
	}
	if n.SkipReason != "" {
		w.key("skip_reason")
		w.str(n.SkipReason)
	}
	if n.Best != nil {
		w.key("best")
		w.peak(n.Best)
	}
	if n.Stab != nil && len(n.Stab.Peaks) > 0 {
		w.key("peaks")
		w.open('[')
		for i := range n.Stab.Peaks {
			w.next()
			w.peak(&n.Stab.Peaks[i])
		}
		w.close(']')
	}
	w.close('}')
}

// peak writes one peak. The damping trio is left out when zeta is NaN
// (zero peaks, paper footnote 2), and each member when it is zero.
func (w *jsonWriter) peak(p *stab.Peak) {
	w.open('{')
	w.key("freq_hz")
	w.float(p.Freq)
	w.key("value")
	w.float(p.Value)
	w.key("type")
	w.str(p.Type.String())
	w.key("is_zero")
	w.boolean(p.IsZero)
	if !math.IsNaN(p.Zeta) {
		w.nonzero("zeta", p.Zeta)
		w.nonzero("phase_margin_deg", p.PhaseMarginDeg)
		w.nonzero("overshoot_pct", p.OvershootPct)
	}
	w.close('}')
}

// nonzero writes an omitempty float member: nothing when f is zero.
func (w *jsonWriter) nonzero(k string, f float64) {
	if f != 0 {
		w.key(k)
		w.float(f)
	}
}

// fromJSONPeak inverts AppendJSON's peak encoding. The damping trio is
// omitted from the wire when it is NaN (zero peaks, paper footnote 2); a
// genuine zeta of exactly 0 cannot occur for a finite peak value (depth
// is -1/zeta², so zeta→0 means an infinite peak, and a zero zeta would
// print a 100% overshoot, not 0), so an all-zero trio decodes back to
// NaN.
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
// tool.Report — the benchmark oracle reads every JSON report through it,
// and FuzzParseJSON holds it to rejecting, never panicking on, bad input.
// Waveforms (per-node impedance and stability plots) are not part
// of the JSON schema, so the parsed report carries peaks and loop
// structure only — exactly what the text, CSV, JSON, and annotate
// renderers consume. Loop membership is rebuilt by joining the loop's
// node names against the nodes' dominant peaks, so a node listed twice
// is an error. The input must hold one document; anything after it
// other than whitespace (JSON ends with a newline) is an error.
//
// A report written by JSON parses back to one that JSON writes to the
// same bytes: AppendJSON writes each float as the shortest representation
// that reads back as the same float64, and each string either verbatim
// (printable ASCII without `"`, `\`, `<`, `>`, `&`) or with
// encoding/json's escapes, which decode back to the original string when
// it is valid UTF-8 (invalid bytes are written as U+FFFD).
func ParseJSON(r io.Reader) (*tool.Report, error) {
	var in jsonReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("report: parse json: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("report: parse json: data after the report document")
	}
	rep := &tool.Report{CircuitTitle: in.Circuit, Temp: in.TempC}
	best := map[string]*stab.Peak{}
	seen := make(map[string]bool, len(in.Nodes))
	for _, jn := range in.Nodes {
		if seen[jn.Node] {
			return nil, fmt.Errorf("report: node %q is listed twice", jn.Node)
		}
		seen[jn.Node] = true
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
	fmt.Fprintf(w, "sweep: %s .. %s, %d pts/dec\n",
		hz(opts.FStart), hz(opts.FStop), opts.PointsPerDecade)
	if runErr != nil {
		fmt.Fprintf(w, "status: FAILED\nerror: %v\n", runErr)
	} else {
		fmt.Fprintln(w, "status: ok")
	}
	fmt.Fprintln(w, "attach this file when reporting tool issues.")
	return nil
}
