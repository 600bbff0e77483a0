package report

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"acstab/internal/circuits"
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
