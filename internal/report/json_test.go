package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

func allNodesReport(tb testing.TB, ckt *netlist.Circuit, opts tool.Options) *tool.Report {
	tb.Helper()
	tl, err := tool.New(ckt, opts)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// sameAsReference renders rep with JSON and with the reference encoder
// and fails unless both write the same bytes, or both fail and write
// nothing. It also checks that AppendJSON appends after the bytes
// already in dst, and leaves them alone when it fails.
func sameAsReference(t *testing.T, name string, rep *tool.Report) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := JSON(&got, rep)
	wantErr := referenceJSON(&want, rep)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: JSON error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		if got.Len() != 0 || want.Len() != 0 {
			t.Errorf("%s: failed render wrote %d bytes (reference %d), want none", name, got.Len(), want.Len())
		}
	} else if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: JSON differs from the reference encoder:\n--- got ---\n%s\n--- want ---\n%s",
			name, got.Bytes(), want.Bytes())
	}
	const prefix = "prefix"
	if out, _ := AppendJSON([]byte(prefix), rep); string(out) != prefix+want.String() {
		t.Errorf("%s: AppendJSON onto %q gave %q, want the prefix and then the document", name, prefix, out)
	}
}

// seedCircuit is a circuits builder's deck and the options it is
// analyzed under.
type seedCircuit struct {
	name string
	ckt  *netlist.Circuit
	opts tool.Options
}

// seedCircuits returns a deck from every circuits builder, and Table 2
// once more under the adaptive sweep.
func seedCircuits() []seedCircuit {
	adaptive := tool.DefaultOptions()
	adaptive.CoarsePointsPerDecade = 8
	return []seedCircuit{
		{"second-order", circuits.SecondOrder(0.186, 3.16e6), tool.DefaultOptions()},
		{"opamp-buffer", circuits.OpAmpBuffer(circuits.OpAmpDefaults()), tool.DefaultOptions()},
		{"opamp-open-loop", circuits.OpAmpOpenLoop(circuits.OpAmpDefaults()), tool.DefaultOptions()},
		{"bias", circuits.BiasCircuit(circuits.BiasDefaults()), tool.DefaultOptions()},
		{"table2", circuits.FullCircuit(), tool.DefaultOptions()},
		{"rc-ladder", circuits.RCLadder(8), tool.DefaultOptions()},
		{"field-32", circuits.ResonatorField(32, 1e5, 0.35), tool.DefaultOptions()},
		{"transistor-opamp", circuits.TransistorOpAmp(), tool.DefaultOptions()},
		{"transistor-bias", circuits.TransistorBias(), tool.DefaultOptions()},
		{"snubbed-bias", circuits.SnubbedBias(100, 1e-9), tool.DefaultOptions()},
		{"table2-adaptive", circuits.FullCircuit(), adaptive},
	}
}

// TestJSONMatchesReference pins AppendJSON to the bytes of the reflection
// encoder it replaced, on real reports of every seed circuit and on
// synthetic reports built to reach the escape and float-format edges.
func TestJSONMatchesReference(t *testing.T) {
	for _, c := range seedCircuits() {
		sameAsReference(t, c.name, allNodesReport(t, c.ckt, c.opts))
	}

	peak := func(f, v float64) *stab.Peak {
		return &stab.Peak{Freq: f, Value: v, Zeta: 0.2, PhaseMarginDeg: 22, OvershootPct: 52}
	}
	zero := &stab.Peak{Freq: 1e6, Value: 3, IsZero: true,
		Zeta: math.NaN(), PhaseMarginDeg: math.NaN(), OvershootPct: math.NaN()}
	// No loops, a skipped node, a node without a peak, a zero peak and a
	// partly zero damping trio.
	sameAsReference(t, "no loops", &tool.Report{
		CircuitTitle: "plain",
		Nodes: []tool.NodeResult{
			{Node: "in", Skipped: true, SkipReason: "driven by an ideal source"},
			{Node: "mid"},
			{Node: "out", Best: zero, Stab: &stab.Result{Peaks: []stab.Peak{*zero}}},
			{Node: "aux", Best: &stab.Peak{Freq: 2e5, Value: -1.5, Type: stab.PeakMinMax, Zeta: 0, PhaseMarginDeg: 0, OvershootPct: 7},
				Stab: &stab.Result{}},
		},
	})
	sameAsReference(t, "empty", &tool.Report{})
	sameAsReference(t, "empty slices", &tool.Report{Loops: []stab.Loop{{ID: 1, Nodes: []stab.NodePeak{}}}, Nodes: []tool.NodeResult{}})

	for _, s := range []string{
		"", "plain ascii 0-9 ~!@#$%^*()_+{}|:?[];',./`=",
		"<script>&amp;</script>", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "tab\there", "cr\rlf\n", "\x00\x01\x1f", "del\x7f",
		"line\u2028sep\u2029para", "réseau Ω µV 电路", "bad \xff\xfe utf8 \xc3", "\xed\xa0\x80 surrogate",
	} {
		p := peak(1e6, -4)
		sameAsReference(t, "string "+s, &tool.Report{
			CircuitTitle: s,
			Loops:        []stab.Loop{{ID: 1, Freq: 1e6, Nodes: []stab.NodePeak{{Node: s, Peak: *p}}}},
			Nodes:        []tool.NodeResult{{Node: s, Best: p, Skipped: true, SkipReason: s}},
		})
	}

	for _, f := range []float64{
		1e-6, -1e-6, math.Nextafter(1e-6, 0), -math.Nextafter(1e-6, 0), 1e21, -1e21,
		math.Nextafter(1e21, 0), math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308 / 3,
		math.MaxFloat64, -math.MaxFloat64, 1e-7, 1.5e-10, 1e-100, 1e100, 123456789012345678,
		0.1, 1.0 / 3, 100, -2.5,
	} {
		p := &stab.Peak{Freq: f, Value: f, Zeta: f, PhaseMarginDeg: f, OvershootPct: f}
		sameAsReference(t, "float", &tool.Report{
			Temp:  f,
			Loops: []stab.Loop{{ID: -3, Freq: f, WorstPeak: f, Zeta: f, PhaseMarginDeg: f, OvershootPct: f, Nodes: []stab.NodePeak{{Node: "n", Peak: *p}}}},
			Nodes: []tool.NodeResult{{Node: "n", Best: p, Stab: &stab.Result{Peaks: []stab.Peak{*p, *p}}}},
		})
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rep := range []*tool.Report{
			{Temp: bad},
			{Loops: []stab.Loop{{ID: 1, PhaseMarginDeg: bad}}},
			{Nodes: []tool.NodeResult{{Node: "n", Best: peak(bad, -1)}}},
			{Nodes: []tool.NodeResult{{Node: "n", Best: &stab.Peak{Zeta: 0.3, OvershootPct: bad}}}},
		} {
			sameAsReference(t, "unsupported", rep)
			var uv *json.UnsupportedValueError
			if _, err := AppendJSON(nil, rep); !errors.As(err, &uv) {
				t.Errorf("AppendJSON(%v): error %v, want *json.UnsupportedValueError", bad, err)
			}
		}
	}
}

// TestJSONAllocs pins the writer's allocations: rendering the Table 2
// report into a nil buffer allocates the sized buffer and nothing else
// (the reflection encoder it replaced made 151 allocations).
func TestJSONAllocs(t *testing.T) {
	_, rep := table2Report(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := AppendJSON(nil, rep); err != nil {
			t.Fatal(err)
		}
	})
	b, _ := AppendJSON(nil, rep)
	t.Logf("Table 2 report: %d bytes, %.0f allocations", len(b), allocs)
	if allocs > 2 {
		t.Errorf("AppendJSON made %.0f allocations on the Table 2 report, want at most 2", allocs)
	}
}

// jsonSink keeps the benchmarked render from being optimized away.
var jsonSink []byte

// BenchmarkReportJSON measures rendering the Table 2 and 32-loop
// resonator field reports as JSON into a fresh buffer.
func BenchmarkReportJSON(b *testing.B) {
	for _, c := range []struct {
		name string
		ckt  *netlist.Circuit
	}{
		{"table2", circuits.FullCircuit()},
		{"field32", circuits.ResonatorField(32, 1e5, 0.35)},
	} {
		rep := allNodesReport(b, c.ckt, tool.DefaultOptions())
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := AppendJSON(nil, rep)
				if err != nil {
					b.Fatal(err)
				}
				jsonSink = out
			}
			b.SetBytes(int64(len(jsonSink)))
		})
	}
}

// singleNodeOracle is the single-node body as the worker encoded it with
// encoding/json, the oracle appendNodeJSON is held to.
func singleNodeOracle(nr *tool.NodeResult) ([]byte, error) {
	type singleNodeResult struct {
		Node       string  `json:"node"`
		Skipped    bool    `json:"skipped,omitempty"`
		SkipReason string  `json:"skip_reason,omitempty"`
		PeakValue  float64 `json:"peak,omitempty"`
		FreqHz     float64 `json:"natural_freq_hz,omitempty"`
		Zeta       float64 `json:"zeta,omitempty"`
		PMDeg      float64 `json:"phase_margin_deg,omitempty"`
		Overshoot  float64 `json:"overshoot_pct,omitempty"`
	}
	out := singleNodeResult{Node: nr.Node, Skipped: nr.Skipped, SkipReason: nr.SkipReason}
	if nr.Best != nil {
		out.PeakValue = nr.Best.Value
		out.FreqHz = nr.Best.Freq
		out.Zeta = nr.Best.Zeta
		out.PMDeg = nr.Best.PhaseMarginDeg
		out.Overshoot = nr.Best.OvershootPct
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestSingleNodeJSONMatchesEncoder: a single-node JSON body appended to
// a lent buffer is byte for byte what encoding/json wrote, for skipped
// nodes, nodes without a best peak, zero, -0, tiny and huge figures, and
// names JSON must escape; a NaN or infinite figure fails with the
// encoder's error and appends nothing. A real single-node run's body
// matches too.
func TestSingleNodeJSONMatchesEncoder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	peak := func(v, f, z, pm, os float64) *stab.Peak {
		return &stab.Peak{Value: v, Freq: f, Zeta: z, PhaseMarginDeg: pm, OvershootPct: os}
	}
	cases := []tool.NodeResult{
		{Node: "out"},
		{Node: "vdd", Skipped: true, SkipReason: "driven node (zero driving-point impedance)"},
		{Node: "x1.n<&>\"q\"", Skipped: true},
		{Node: "n\u2028\xff", SkipReason: "why"},
		{Node: "t", Best: peak(-16.3, 1.0e6, 0.2477, 28.4, 44.7)},
		{Node: "t", Best: peak(0, negZero, 0, negZero, 0)},
		{Node: "t", Best: peak(-1e-7, 1e21, 5e-324, 1.7976931348623157e308, -0.5)},
		{Node: "t", Best: peak(-3, 123456789.125, 0.5773502691896258, 52, 16.3)},
	}
	for i := range cases {
		nr := &cases[i]
		want, err := singleNodeOracle(nr)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RenderNode([]byte("lent"), "json", nr)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "lent"+string(want) {
			t.Errorf("case %d: got\n%s\nwant\n%s", i, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		nr := &tool.NodeResult{Node: "t", Best: peak(-2, 1e6, bad, 40, 20)}
		_, werr := singleNodeOracle(nr)
		got, _, err := RenderNode([]byte("lent"), "json", nr)
		if err == nil || werr == nil || err.Error() != werr.Error() || string(got) != "lent" {
			t.Errorf("figure %v: got %q, %v; want \"lent\", %v", bad, got, err, werr)
		}
	}

	tl, err := tool.New(circuits.SecondOrder(0.25, 1e6), tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nr, err := tl.SingleNode(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if nr.Best == nil {
		t.Fatal("the second-order section shows no peak")
	}
	want, err := singleNodeOracle(nr)
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := RenderNode(nil, "json", nr)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("single-node body\n%s\nwant\n%s", body, want)
	}
}
