package report

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

func table2Report(t *testing.T) (*tool.Tool, *tool.Report) {
	t.Helper()
	tl, err := tool.New(circuits.FullCircuit(), tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tl, rep
}

func TestTextReportShape(t *testing.T) {
	_, rep := table2Report(t)
	var buf bytes.Buffer
	if err := Text(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Loop headers sorted by frequency with the main loop first.
	first := strings.Index(out, "Loop at ")
	if first < 0 {
		t.Fatal("no loop headers")
	}
	for _, want := range []string{"output", "net052", "net136", "net138", "net99",
		"net81", "net056", "net013", "net75", "net066"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing node %s", want)
		}
	}
	if !strings.Contains(out, "phase margin") {
		t.Error("report missing phase margin estimate")
	}
	// The paper's E-notation frequencies.
	if !strings.Contains(out, "E+06") {
		t.Errorf("frequencies not in E notation:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestTextReportNotices(t *testing.T) {
	// net17/net16 style shallow peaks must carry the min/max notice
	// somewhere in the bias report.
	tl, err := tool.New(circuits.BiasCircuit(circuits.BiasDefaults()), tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Text(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "notice:") {
		t.Errorf("expected special-case notices in:\n%s", buf.String())
	}
}

func TestCSVReport(t *testing.T) {
	_, rep := table2Report(t)
	var buf bytes.Buffer
	if err := CSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rep.Nodes)+1 {
		t.Errorf("rows = %d, want %d", len(rows), len(rep.Nodes)+1)
	}
	if rows[0][0] != "node" || len(rows[0]) != 10 {
		t.Errorf("header = %v", rows[0])
	}
	// Find the output row: it must carry a loop id and negative peak.
	found := false
	for _, r := range rows[1:] {
		if r[0] == "output" {
			found = true
			if r[1] == "" || !strings.HasPrefix(r[3], "-") {
				t.Errorf("output row = %v", r)
			}
		}
	}
	if !found {
		t.Error("output row missing")
	}
}

func TestJSONReport(t *testing.T) {
	_, rep := table2Report(t)
	var buf bytes.Buffer
	if err := JSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Circuit string `json:"circuit"`
		Loops   []struct {
			FreqHz float64  `json:"freq_hz"`
			Nodes  []string `json:"nodes"`
		} `json:"loops"`
		Nodes []struct {
			Node string `json:"node"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if len(doc.Loops) < 2 || len(doc.Nodes) == 0 {
		t.Errorf("loops=%d nodes=%d", len(doc.Loops), len(doc.Nodes))
	}
	if doc.Loops[0].FreqHz > doc.Loops[len(doc.Loops)-1].FreqHz {
		t.Error("loops not sorted")
	}
}

func TestAnnotate(t *testing.T) {
	tl, rep := table2Report(t)
	var buf bytes.Buffer
	if err := Annotate(&buf, tl.Flat, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "* node output") {
		t.Errorf("missing annotation for output:\n%s", out)
	}
	if !strings.Contains(out, ".end") {
		t.Error("netlist body missing")
	}
}

func TestDiagnostic(t *testing.T) {
	var buf bytes.Buffer
	if err := Diagnostic(&buf, "test ckt", tool.DefaultOptions(), errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "boom") {
		t.Errorf("diagnostic:\n%s", out)
	}
	buf.Reset()
	if err := Diagnostic(&buf, "test ckt", tool.DefaultOptions(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "status: ok") {
		t.Error("success diagnostic wrong")
	}
}

// TestParseJSONRoundTrip pins the ParseJSON contract the benchmark
// oracle relies on: a report rendered with JSON and read back with ParseJSON
// must re-render to the identical JSON document. AppendJSON writes
// shortest-round-trip float representations, so equality here is exact
// byte equality, not approximate.
func TestParseJSONRoundTrip(t *testing.T) {
	_, rep := table2Report(t)
	var first bytes.Buffer
	if err := JSON(&first, rep); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := JSON(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("JSON round-trip not stable:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	// Zero peaks ship without the damping trio; the parse must restore
	// NaN (not 0) so downstream rendering keeps omitting it.
	for _, n := range parsed.Nodes {
		if n.Stab == nil {
			continue
		}
		for _, p := range n.Stab.Peaks {
			if p.IsZero && !math.IsNaN(p.Zeta) {
				t.Errorf("node %s: zero peak parsed with zeta %v, want NaN", n.Node, p.Zeta)
			}
		}
	}
}

// TestParseJSONRejectsGarbage covers the error paths a reader hits on a
// report from a different version.
func TestParseJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ParseJSON(strings.NewReader(
		`{"nodes":[{"node":"a","best":{"freq_hz":1,"value":-2,"type":"martian"}}]}`)); err == nil {
		t.Error("unknown peak type accepted")
	}
	if _, err := ParseJSON(strings.NewReader(
		`{"loops":[{"id":1,"freq_hz":1,"nodes":["ghost"]}]}`)); err == nil {
		t.Error("loop referencing unknown node accepted")
	}
	for _, tail := range []string{" trailing garbage", "{}", "\n\n]", `{"nodes":[]}`} {
		if _, err := ParseJSON(strings.NewReader(`{"nodes":[]}` + tail)); err == nil {
			t.Errorf("data %q after the document accepted", tail)
		}
	}
	for _, tail := range []string{"", "\n", " \t\r\n "} {
		if _, err := ParseJSON(strings.NewReader(`{"nodes":[]}` + tail)); err != nil {
			t.Errorf("whitespace %q after the document rejected: %v", tail, err)
		}
	}
}

// TestParseJSONRejectsDuplicateNode: loop membership joins node names
// against the nodes' rows, so a node listed twice would make a loop
// member silently take the last row's peak. The parse must fail and
// name the node instead.
func TestParseJSONRejectsDuplicateNode(t *testing.T) {
	_, err := ParseJSON(strings.NewReader(`{"nodes":[
		{"node":"out","best":{"freq_hz":1e6,"value":-9,"type":"normal","zeta":0.16}},
		{"node":"mid"},
		{"node":"out","best":{"freq_hz":2e6,"value":-3,"type":"normal","zeta":0.3}}],
		"loops":[{"id":1,"freq_hz":1e6,"nodes":["out"]}]}`))
	if err == nil || !strings.Contains(err.Error(), `"out"`) {
		t.Errorf("duplicate node: error %v, want one naming \"out\"", err)
	}
}

// referenceText is the fmt-based Text that AppendText replaced, kept as
// its oracle: AppendText must write exactly these bytes.
func referenceText(w io.Writer, rep *tool.Report) error {
	fmt.Fprintf(w, "AC-Stability All-Nodes Report\n")
	fmt.Fprintf(w, "circuit: %s\n", rep.CircuitTitle)
	fmt.Fprintf(w, "temperature: %g C, sweep %s .. %s, %d pts/dec\n",
		rep.Temp, referenceHz(rep.Options.FStart), referenceHz(rep.Options.FStop), rep.Options.PointsPerDecade)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-14s %-18s %s\n", "Node", "Stability Peak", "Natural Frequency", "Notes")
	fmt.Fprintln(w, strings.Repeat("-", 64))

	inLoop := map[string]bool{}
	for _, l := range rep.Loops {
		fmt.Fprintf(w, "Loop at %s   (zeta %.2f, phase margin %.0f deg, overshoot %.0f%%)\n",
			referenceHz(l.Freq), l.Zeta, l.PhaseMarginDeg, l.OvershootPct)
		for _, np := range l.Nodes {
			inLoop[np.Node] = true
			fmt.Fprintf(w, "%-12s %-14.6f %-18s %s\n",
				np.Node, math.Abs(np.Peak.Value), referenceSci(np.Peak.Freq), notice(np.Peak))
		}
	}
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
					n.Node, math.Abs(n.Best.Value), referenceSci(n.Best.Freq), notice(*n.Best))
			}
		}
	}
	return nil
}

func referenceSci(f float64) string {
	return strings.ToUpper(strconv.FormatFloat(f, 'E', 2, 64))
}

func referenceHz(f float64) string {
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

// sameTextAsReference fails unless Text and AppendText onto a prefix
// write referenceText's bytes for rep.
func sameTextAsReference(t *testing.T, name string, rep *tool.Report) {
	t.Helper()
	var got, want bytes.Buffer
	if err := Text(&got, rep); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	referenceText(&want, rep)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: text differs from the fmt reference:\n--- got ---\n%s\n--- want ---\n%s", name, got.Bytes(), want.Bytes())
	}
	const prefix = "prefix"
	if out := AppendText([]byte(prefix), rep); string(out) != prefix+want.String() {
		t.Errorf("%s: AppendText onto %q gave %q, want the prefix and then the report", name, prefix, out)
	}
}

// TestTextMatchesReference pins AppendText to the fmt layout it
// replaced, on the report of every circuits builder and on synthetic
// reports that reach the layout's edges: no loops, skipped nodes, names
// wider than the node column or not ASCII, and non-finite and
// negative-zero figures (the E-notation column upper-cases NaN to NAN).
// A real report also fits the size hint, so Text allocates one buffer.
func TestTextMatchesReference(t *testing.T) {
	for _, c := range seedCircuits() {
		rep := allNodesReport(t, c.ckt, c.opts)
		sameTextAsReference(t, c.name, rep)
		if n, hint := len(AppendText(nil, rep)), textSizeHint(rep); n > hint {
			t.Errorf("%s: %d-byte text report over its %d-byte size hint", c.name, n, hint)
		}
	}

	peak := func(f, v float64, typ stab.PeakType) stab.Peak {
		return stab.Peak{Freq: f, Value: v, Type: typ, Zeta: 0.2, PhaseMarginDeg: 22, OvershootPct: 52}
	}
	opts := tool.DefaultOptions()
	sameTextAsReference(t, "empty", &tool.Report{})
	sameTextAsReference(t, "no loops", &tool.Report{
		CircuitTitle: "plain", Temp: 27, Options: opts,
		Nodes: []tool.NodeResult{
			{Node: "in", Skipped: true, SkipReason: "driven by an ideal source"},
			{Node: "mid"},
			{Node: "out", Best: &stab.Peak{Freq: 2e5, Value: -1.5, Type: stab.PeakMinMax}},
			{Node: "edge", Best: &stab.Peak{Freq: 1e10, Value: -0.5, Type: stab.PeakEndOfRange}},
		},
	})
	long := peak(3.3e6, -7.25, stab.PeakNormal)
	sameTextAsReference(t, "long and wide names", &tool.Report{
		CircuitTitle: "réseau Ω \xff", Options: opts,
		Loops: []stab.Loop{{ID: 1, Freq: 3.3e6, WorstPeak: -7.25, Zeta: 0.186, PhaseMarginDeg: 20.6, OvershootPct: 55.1,
			Nodes: []stab.NodePeak{
				{Node: "x1.x2.very_long_node_name", Peak: long},
				{Node: "exactly12chr", Peak: long},
				{Node: "réseau", Peak: long},
				{Node: "电路", Peak: long},
				{Node: "bad\xff\xfe", Peak: long},
			}}},
		Nodes: []tool.NodeResult{
			{Node: "x1.x2.very_long_node_name", Best: &long},
			{Node: "skipped_node_with_a_long_name", Skipped: true, SkipReason: "no DC path"},
			{Node: "quiet_node_with_a_long_name"},
			{Node: "ünïcödé", Best: &stab.Peak{Freq: 1e3, Value: -1, Type: stab.PeakMinMax}},
		},
	})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e-300, 1e300, 999.5, 999.4999, 1e9 - 1, 5e-324, -2.5} {
		p := peak(f, f, stab.PeakNormal)
		sameTextAsReference(t, fmt.Sprint("figures ", f), &tool.Report{
			Temp:    f,
			Options: tool.Options{FStart: f, FStop: f, PointsPerDecade: -3},
			Loops: []stab.Loop{{ID: 1, Freq: f, WorstPeak: f, Zeta: f, PhaseMarginDeg: f, OvershootPct: f,
				Nodes: []stab.NodePeak{{Node: "n", Peak: p}}}},
			Nodes: []tool.NodeResult{{Node: "n", Best: &p}, {Node: "m", Best: &p}},
		})
	}
	var b bytes.Buffer
	p := peak(math.NaN(), math.NaN(), stab.PeakNormal)
	Text(&b, &tool.Report{Nodes: []tool.NodeResult{{Node: "n", Best: &p}}})
	if !strings.Contains(b.String(), "NaN            NAN") {
		t.Errorf("a NaN peak should print as NaN and its frequency as NAN:\n%s", b.String())
	}
}

// errFull is failWriter's write error.
var errFull = errors.New("disk full")

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFull }

// TestWritersReturnWriteErrors: every renderer returns the error of the
// writer it renders to. CSV's rows stay in its buffer until the final
// flush, so its error comes from the flush.
func TestWritersReturnWriteErrors(t *testing.T) {
	tl, rep := table2Report(t)
	for name, write := range map[string]func(io.Writer) error{
		"text":       func(w io.Writer) error { return Text(w, rep) },
		"csv":        func(w io.Writer) error { return CSV(w, rep) },
		"json":       func(w io.Writer) error { return JSON(w, rep) },
		"annotate":   func(w io.Writer) error { return Annotate(w, tl.Flat, rep) },
		"diagnostic": func(w io.Writer) error { return Diagnostic(w, "t", tool.DefaultOptions(), errors.New("boom")) },
	} {
		if err := write(failWriter{}); !errors.Is(err, errFull) {
			t.Errorf("%s into a failing writer: error %v, want %v", name, err, errFull)
		}
	}
}

// TestRenderAppends: Render appends every format to the buffer it is
// lent, after the bytes already there, with the bytes and media type of
// the io.Writer renderers; an unknown format or a failed render leaves
// the lent bytes as they were.
func TestRenderAppends(t *testing.T) {
	tl, rep := table2Report(t)
	for _, c := range []struct {
		format, contentType string
		write               func(io.Writer) error
	}{
		{"", "text/plain; charset=utf-8", func(w io.Writer) error { return Text(w, rep) }},
		{"text", "text/plain; charset=utf-8", func(w io.Writer) error { return Text(w, rep) }},
		{"csv", "text/csv", func(w io.Writer) error { return CSV(w, rep) }},
		{"json", "application/json", func(w io.Writer) error { return JSON(w, rep) }},
		{"annotate", "text/plain; charset=utf-8", func(w io.Writer) error { return Annotate(w, tl.Flat, rep) }},
	} {
		var want bytes.Buffer
		if err := c.write(&want); err != nil {
			t.Fatal(err)
		}
		got, ct, err := Render([]byte("lent:"), c.format, tl.Flat, rep)
		if err != nil || ct != c.contentType || string(got) != "lent:"+want.String() {
			t.Errorf("Render %q: content type %q, error %v, prefix kept %v, want %q and the writer's bytes",
				c.format, ct, err, bytes.HasPrefix(got, []byte("lent:")), c.contentType)
		}
	}
	if got, _, err := Render([]byte("lent:"), "xml", tl.Flat, rep); err == nil || string(got) != "lent:" {
		t.Errorf("Render xml: %q, error %v; want the lent bytes and an error", got, err)
	}
	bad := &tool.Report{Temp: math.NaN()}
	if got, _, err := Render([]byte("lent:"), "json", nil, bad); err == nil || string(got) != "lent:" {
		t.Errorf("Render json of a NaN temperature: %q, error %v; want the lent bytes and an error", got, err)
	}
}
