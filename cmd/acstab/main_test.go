package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acstab/internal/farm"
	"acstab/internal/obs"
)

// opampNetlist is the paper's Fig. 1 op-amp buffer (the examples/opamp
// workload) as a netlist, used to exercise the observability flags on a
// realistic multi-node circuit.
const opampNetlist = `2 MHz op-amp as unity-gain buffer (Fig. 1)
.param rzero=503 c1=8p cload=12.9p
V1 inp 0 DC 0 AC 1
G1 net136 0 inp net99 175.3u
R1 net136 0 10meg
C1 net136 net052 {c1}
RZERO net052 net138 {rzero}
G2 net138 0 net136 0 280.5u
R2 net138 0 1meg
C2 net138 0 2.41p
ROUT net138 output 547
CLOAD output 0 {cload}
RFB output net99 10
CFB net99 0 1p
`

const tankNetlist = `test tank
.param rq=318
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 1n
`

func writeNetlist(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckt.cir")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAllNodesText(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	var out bytes.Buffer
	if err := run([]string{"-i", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Loop at 1 MHz") {
		t.Errorf("missing loop header:\n%s", s)
	}
	if !strings.Contains(s, "t ") {
		t.Errorf("missing node row:\n%s", s)
	}
}

func TestSingleNodeWithPlot(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-node", "t", "-plot"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "stability plot at t") || !strings.Contains(s, "dominant:") {
		t.Errorf("output:\n%s", s)
	}
	if !strings.Contains(s, "phase margin") {
		t.Error("missing phase margin estimate")
	}
}

func TestFormats(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	for _, format := range []string{"csv", "json"} {
		var out bytes.Buffer
		if err := run([]string{"-i", path, "-format", format}, &out); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s output empty", format)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-format", "bogus"}, &out); err == nil {
		t.Error("expected bad-format error")
	}
}

func TestAnnotateFlag(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-annotate"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "* node t") {
		t.Errorf("annotation missing:\n%s", out.String())
	}
}

func TestSetOverride(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	var nominal, light bytes.Buffer
	if err := run([]string{"-i", path, "-node", "t"}, &nominal); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-i", path, "-node", "t", "-set", "rq=2k"}, &light); err != nil {
		t.Fatal(err)
	}
	if nominal.String() == light.String() {
		t.Error("-set had no effect")
	}
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-set", "nosuch=1"}, &out); err == nil {
		t.Error("unknown variable should fail")
	}
	if err := run([]string{"-i", path, "-set", "malformed"}, &out); err == nil {
		t.Error("malformed -set should fail")
	}
}

// subcktDeck damps a tank through a top-level subckt instance parameter
// written as an expression of a design variable.
const subcktDeck = `damped tank through a subckt instance parameter
.param y=%s
.subckt damp a b params: rq=1k
Rq a b {rq}
.ends
L1 t 0 25.33u
C1 t 0 1n
X1 t 0 damp rq={y*100}
I1 0 t DC 0 AC 1
`

// TestSetOverrideReachesInstanceParams: -set re-evaluates a top-level
// subckt instance's rq={y*100} instead of keeping the parse-time value,
// so moving y by -set reports exactly what writing the new y does.
func TestSetOverrideReachesInstanceParams(t *testing.T) {
	var set, written bytes.Buffer
	if err := run([]string{"-i", writeNetlist(t, fmt.Sprintf(subcktDeck, "2")), "-node", "t", "-set", "y=3"}, &set); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-i", writeNetlist(t, fmt.Sprintf(subcktDeck, "3")), "-node", "t"}, &written); err != nil {
		t.Fatal(err)
	}
	if set.String() != written.String() {
		t.Errorf("-set y=3 report:\n%s\nwant the y=3 deck's report:\n%s", set.String(), written.String())
	}
}

func TestTempsSweep(t *testing.T) {
	path := writeNetlist(t, `temp tank
R1 t 0 318 tc1=2m
L1 t 0 25.33u
C1 t 0 1n
`)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-temps", "27,125"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "TEMP 27") || !strings.Contains(s, "TEMP 125") {
		t.Errorf("temps missing:\n%s", s)
	}
}

func TestDiagnosticFile(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	diag := filepath.Join(t.TempDir(), "diag.txt")
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-diag", diag}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(diag)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "status: ok") {
		t.Errorf("diagnostic:\n%s", b)
	}
}

func TestBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-i", "/nonexistent/file.cir"}, &out); err == nil {
		t.Error("missing file should fail")
	}
	bad := writeNetlist(t, "broken\nZZ bogus\n")
	if err := run([]string{"-i", bad}, &out); err == nil {
		t.Error("bad netlist should fail")
	}
	good := writeNetlist(t, tankNetlist)
	if err := run([]string{"-i", good, "-node", "nosuch"}, &out); err == nil {
		t.Error("unknown node should fail")
	}
	if err := run([]string{"-i", good, "-fstart", "zz"}, &out); err == nil {
		t.Error("bad fstart should fail")
	}
}

func TestStatsFlag(t *testing.T) {
	path := writeNetlist(t, opampNetlist)
	var out, errOut bytes.Buffer
	if err := runWith([]string{"-i", path, "-stats"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Loop at") {
		t.Errorf("report missing:\n%s", out.String())
	}
	s := errOut.String()
	for _, phase := range []string{"parse", "flatten", "mna_assembly", "op", "sweep", "stability", "loop_clustering"} {
		if !strings.Contains(s, "phase "+phase) {
			t.Errorf("stats missing phase %s:\n%s", phase, s)
		}
	}
	if !strings.Contains(s, "solver counters:") ||
		!strings.Contains(s, "ac_factorizations") || !strings.Contains(s, "newton_iterations") {
		t.Errorf("stats missing solver counters:\n%s", s)
	}
	// Phase timings are nonzero: the total line carries a real duration.
	if strings.Contains(s, "0s total") {
		t.Errorf("total duration is zero:\n%s", s)
	}
}

func TestTraceJSONFlag(t *testing.T) {
	path := writeNetlist(t, opampNetlist)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if err := runWith([]string{"-i", path, "-trace-json", traceFile}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace does not round-trip through encoding/json: %v", err)
	}
	if tr.Name != "acstab" || tr.DurationNS <= 0 {
		t.Errorf("trace header = %+v", tr)
	}
	phases := map[string]bool{}
	for _, p := range tr.Phases {
		if p.DurationNS < 0 {
			t.Errorf("phase %s has negative duration", p.Phase)
		}
		phases[p.Phase] = true
	}
	for _, want := range []string{"parse", "flatten", "mna_assembly", "op", "sweep", "stability", "loop_clustering"} {
		if !phases[want] {
			t.Errorf("trace missing phase %s (got %v)", want, phases)
		}
	}
	if tr.Counters["ac_factorizations"] <= 0 || tr.Counters["ac_solves"] <= 0 {
		t.Errorf("trace solver counters = %v", tr.Counters)
	}
	if tr.Counters["sweep_nodes"] <= 0 || tr.Counters["sweep_freq_points"] <= 0 {
		t.Errorf("trace sweep counters = %v", tr.Counters)
	}
}

func TestRemoteSubmission(t *testing.T) {
	srv := httptest.NewServer(farm.Handler())
	defer srv.Close()
	path := writeNetlist(t, tankNetlist)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-remote", srv.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Loop at 1 MHz") {
		t.Errorf("remote report:\n%s", out.String())
	}
	if err := run([]string{"-i", path, "-remote", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable worker should fail")
	}
}

func TestMonteCarloFlag(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-mc", "8", "-sigma", "rq=0.2",
		"-fstart", "10k", "-fstop", "100meg"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "quantiles") || !strings.Contains(s, "p5=") {
		t.Errorf("MC output:\n%s", s)
	}
	if err := run([]string{"-i", path, "-mc", "2", "-sigma", "bad"}, &out); err == nil {
		t.Error("malformed sigma should fail")
	}
	if err := run([]string{"-i", path, "-mc", "2"}, &out); err == nil {
		t.Error("MC without sigma should fail")
	}
}

func TestSubcktFlag(t *testing.T) {
	path := writeNetlist(t, `scoped
.subckt tank t
R1 t 0 318
L1 t 0 25.33u
C1 t 0 1n
.ends
X1 a tank
X2 b tank
R9 a b 1e6
Rg a 0 1e6
`)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-subckt", "x2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "b ") || strings.Contains(s, "\na ") {
		t.Errorf("subckt scope wrong:\n%s", s)
	}
}

func TestIncludeFromCLI(t *testing.T) {
	dir := t.TempDir()
	top := filepath.Join(dir, "top.cir")
	inc := filepath.Join(dir, "tank.inc")
	if err := os.WriteFile(inc, []byte("R1 t 0 318\nL1 t 0 25.33u\nC1 t 0 1n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(top, []byte("with include\n.include tank.inc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-i", top, "-node", "t"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dominant:") {
		t.Errorf("include run failed:\n%s", out.String())
	}
}

// TestRemoteTraceJSON is the distributed-tracing acceptance check: a
// -remote run with -trace-json produces one merged trace in which the
// worker's flatten/op/sweep/stability phases appear (attempt 1) alongside
// the client's own spans, with the worker's solver counters merged in.
func TestRemoteTraceJSON(t *testing.T) {
	srv := httptest.NewServer(farm.Handler())
	defer srv.Close()
	path := writeNetlist(t, opampNetlist)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if err := runWith([]string{"-i", path, "-remote", srv.URL,
		"-trace-json", traceFile, "-stats"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Loop at") {
		t.Errorf("remote report:\n%s", out.String())
	}

	b, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	local, remote := map[string]bool{}, map[string]bool{}
	for _, p := range tr.Phases {
		if p.Attempt == 0 {
			local[p.Phase] = true
			continue
		}
		if p.Attempt != 1 {
			t.Errorf("remote span %s attempt = %d, want 1", p.Phase, p.Attempt)
		}
		remote[p.Phase] = true
	}
	for _, want := range []string{"flatten", "op", "sweep", "stability"} {
		if !remote[want] {
			t.Errorf("worker phase %q missing from merged trace (remote=%v)", want, remote)
		}
	}
	if !local["parse"] || !local["farm_submit"] {
		t.Errorf("client-side spans missing (local=%v)", local)
	}
	if tr.Counters["ac_factorizations"] <= 0 {
		t.Errorf("worker solver counters not merged: %v", tr.Counters)
	}
	// -stats aggregates the merged phases by plain name.
	for _, want := range []string{"phase sweep", "phase farm_submit", "ac_factorizations"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("-stats missing %q:\n%s", want, errOut.String())
		}
	}
}

// TestTraceChromeFlag: -trace-chrome writes a valid Trace Event Format
// document with the run's phases as complete events.
func TestTraceChromeFlag(t *testing.T) {
	path := writeNetlist(t, opampNetlist)
	chromeFile := filepath.Join(t.TempDir(), "chrome.json")
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-trace-chrome", chromeFile}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(chromeFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("-trace-chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	names := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "M" {
			t.Errorf("event %d: ph = %q", i, ph)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Errorf("event %d: missing pid", i)
		}
		if ph == "X" {
			if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
				t.Errorf("event %d: ts = %v", i, ev["ts"])
			}
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Errorf("event %d: dur = %v", i, ev["dur"])
			}
		}
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
	}
	for _, want := range []string{"process_name", "sweep", "stability"} {
		if !names[want] {
			t.Errorf("missing event %q (got %v)", want, names)
		}
	}
}

// TestRemoteTraceChrome: the merged remote trace exports to Chrome format
// with the worker's spans under their own attempt process.
func TestRemoteTraceChrome(t *testing.T) {
	srv := httptest.NewServer(farm.Handler())
	defer srv.Close()
	path := writeNetlist(t, tankNetlist)
	chromeFile := filepath.Join(t.TempDir(), "chrome.json")
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-remote", srv.URL, "-trace-chrome", chromeFile}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(chromeFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var workerPid float64
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "sweep" {
			workerPid, _ = ev["pid"].(float64)
		}
	}
	if workerPid != 2 {
		t.Errorf("worker sweep span under pid %g, want 2 (attempt 1)", workerPid)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write valid (gzip magic)
// pprof files covering the run, with no daemon required.
func TestProfileFlags(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	dir := t.TempDir()
	cpuFile := filepath.Join(dir, "cpu.pb")
	memFile := filepath.Join(dir, "mem.pb")
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-cpuprofile", cpuFile, "-memprofile", memFile}, &out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpuFile, memFile} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: not a gzip-compressed pprof profile (got % x...)", f, b[:min(4, len(b))])
		}
	}
	// A bad path must surface as a flag error, not a silent no-profile run.
	if err := run([]string{"-i", path, "-cpuprofile", filepath.Join(dir, "no/such/dir/cpu.pb")}, &out); err == nil {
		t.Error("expected -cpuprofile error for unwritable path")
	}
}

// writeCorners drops a corners file next to the test's netlist.
func writeCorners(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corners.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCornersLocal(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	corners := writeCorners(t, `# PVT corners for the tank
* alt comment style
nom
hi_r rq=2k
nom_again
`)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-node", "t", "-corners", corners}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, banner := range []string{"=== CORNER nom (", "=== CORNER hi_r (", "=== CORNER nom_again (cache hit"} {
		if !strings.Contains(s, banner) {
			t.Errorf("missing %q in:\n%s", banner, s)
		}
	}
	// The hi_r corner really ran with a different rq: its zeta differs.
	sections := strings.Split(s, "=== CORNER ")
	if len(sections) != 4 {
		t.Fatalf("got %d sections, want 3 corners:\n%s", len(sections)-1, s)
	}
	if sections[1] == sections[2] {
		t.Error("corner override had no effect on the report")
	}
}

func TestCornersRemote(t *testing.T) {
	srv := httptest.NewServer(farm.Handler())
	defer srv.Close()
	path := writeNetlist(t, tankNetlist)
	corners := writeCorners(t, "nom\nnom2\n")
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-node", "t", "-remote", srv.URL, "-corners", corners}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "=== CORNER nom (") || !strings.Contains(s, "=== CORNER nom2 (cache hit") {
		t.Errorf("remote corner batch output:\n%s", s)
	}
	// One bad corner reports inline and does not sink the others.
	corners = writeCorners(t, "bad nosuch=1\ngood\n")
	out.Reset()
	if err := run([]string{"-i", path, "-node", "t", "-remote", srv.URL, "-corners", corners}, &out); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	if !strings.Contains(s, "=== CORNER bad (") || !strings.Contains(s, "failed:") ||
		!strings.Contains(s, "unknown design variable") {
		t.Errorf("bad corner not reported inline:\n%s", s)
	}
	if !strings.Contains(s, "=== CORNER good (") {
		t.Errorf("good corner missing after a failed one:\n%s", s)
	}
}

// TestCornersRemoteStats: a remote corner batch runs traced, so -stats
// and -trace-json show every corner's worker phases and solver counters
// grafted into the client's run, tagged with the attempt that ran them.
func TestCornersRemoteStats(t *testing.T) {
	srv := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	path := writeNetlist(t, tankNetlist)
	corners := writeCorners(t, "nom\nhi_r rq=2k\n")
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if err := runWith([]string{"-i", path, "-remote", srv.URL, "-corners", corners,
		"-stats", "-trace-json", traceFile}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "=== CORNER hi_r (") {
		t.Errorf("remote corner batch output:\n%s", out.String())
	}
	for _, want := range []string{"phase sweep", "phase stability", "phase farm_submit", "ac_factorizations"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("-stats missing %q:\n%s", want, errOut.String())
		}
	}
	b, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	for _, p := range tr.Phases {
		if p.Phase == "sweep" {
			sweeps++
			if p.Attempt != 1 {
				t.Errorf("worker sweep span attempt = %d, want 1", p.Attempt)
			}
		}
	}
	if sweeps != 2 {
		t.Errorf("merged trace holds %d worker sweep spans, want one per corner (2)", sweeps)
	}
	if tr.Counters["ac_factorizations"] <= 0 || tr.Counters["sweep_nodes"] <= 0 {
		t.Errorf("worker counters not merged: %v", tr.Counters)
	}
}

func TestCornersFileErrors(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-corners", filepath.Join(t.TempDir(), "nope.txt")}, &out); err == nil {
		t.Error("missing corners file should fail")
	}
	empty := writeCorners(t, "# only comments\n")
	if err := run([]string{"-i", path, "-corners", empty}, &out); err == nil ||
		!strings.Contains(err.Error(), "no corners") {
		t.Errorf("empty corners file: %v", err)
	}
	malformed := writeCorners(t, "nom rq=notanumber\n")
	if err := run([]string{"-i", path, "-corners", malformed}, &out); err == nil ||
		!strings.Contains(err.Error(), ":1:") {
		t.Errorf("malformed pair should fail with line attribution, got: %v", err)
	}
}

// overrideDeck is a tank whose damping resistor is a design variable set
// far from the value the tests pass with -set.
const overrideDeck = `override tank
.param rq=10k
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 1n
`

// scopeDeck has one tank inside subckt instance x1 and a second tank at
// the top level, so -subckt x1 reports one loop and an unscoped run two.
const scopeDeck = `scoped tanks
.subckt tank t
R1 t 0 318
L1 t 0 25.33u
C1 t 0 1n
.ends
X1 a tank
R2 b 0 100
L2 b 0 2.533u
C2 b 0 1n
`

// TestRemoteMatchesLocal: a -remote run on one worker prints exactly
// what the local run prints, in every format, with the run setup's
// -set, -state and -subckt carried to the worker.
func TestRemoteMatchesLocal(t *testing.T) {
	srv := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	state := filepath.Join(t.TempDir(), "setup.json")
	var discard bytes.Buffer
	if err := run([]string{"-i", writeNetlist(t, overrideDeck), "-set", "rq=318",
		"-fstart", "10k", "-save-state", state}, &discard); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, deck string
		args       []string
	}{
		{"opamp", opampNetlist, nil},
		{"set", overrideDeck, []string{"-set", "rq=318"}},
		{"state", overrideDeck, []string{"-state", state}},
		{"subckt", scopeDeck, []string{"-subckt", "x1"}},
	} {
		path := writeNetlist(t, tc.deck)
		for _, format := range [][]string{{"-format", "text"}, {"-format", "csv"}, {"-format", "json"}, {"-annotate"}} {
			args := append(append([]string{"-i", path}, tc.args...), format...)
			var local, remote bytes.Buffer
			if err := run(args, &local); err != nil {
				t.Fatal(err)
			}
			if err := run(append(args, "-remote", srv.URL), &remote); err != nil {
				t.Fatal(err)
			}
			if remote.String() != local.String() {
				t.Errorf("%s %v: remote output differs from local\n--- remote ---\n%s\n--- local ---\n%s",
					tc.name, format, remote.String(), local.String())
			}
		}
	}
}

// TestRemoteRefusals: what the farm wire cannot carry fails by name
// instead of running something else on the worker.
func TestRemoteRefusals(t *testing.T) {
	srv := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	path := writeNetlist(t, tankNetlist)
	hot := filepath.Join(t.TempDir(), "hot.json")
	if err := os.WriteFile(hot, []byte(`{"version": 1, "temp_c": 85}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mc", "4", "-sigma", "rq=0.1"}, "-mc"},
		{[]string{"-temps", "27,85"}, "-temps"},
		{[]string{"-sweep", "rq=100,200"}, "-sweep"},
		{[]string{"-node", "t", "-plot"}, "-plot"},
		{[]string{"-residual-tol", "1e-6"}, "-residual-tol"},
		{[]string{"-state", hot}, "-state"},
		{[]string{"-remote", srv.URL + "," + srv.URL}, "one worker URL"},
	} {
		args := append([]string{"-i", path, "-remote", srv.URL}, tc.args...)
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: refused run printed %q", tc.args, out.String())
		}
	}
}

// TestCornersRefusals: a local -corners batch runs every corner at the
// deck's own temperature through the farm, so each flag it cannot honour
// is refused by name instead of printing 27 C reports. -residual-tol runs
// locally, and a -state file at the deck's temperature is accepted.
func TestCornersRefusals(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	corners := writeCorners(t, "nom\nhi_r rq=2k\n")
	dir := t.TempDir()
	hot := filepath.Join(dir, "hot.json")
	if err := os.WriteFile(hot, []byte(`{"version": 1, "temp_c": 85}`), 0o644); err != nil {
		t.Fatal(err)
	}
	deck := filepath.Join(dir, "deck.json")
	if err := os.WriteFile(deck, []byte(`{"version": 1, "temp_c": 27}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mc", "4", "-sigma", "rq=0.1"}, "-mc does not run with -corners"},
		{[]string{"-temps", "85,125"}, "-temps does not run with -corners"},
		{[]string{"-sweep", "rq=100,200"}, "-sweep does not run with -corners"},
		{[]string{"-node", "t", "-plot"}, "-plot does not run with -corners"},
		{[]string{"-state", hot}, "-state: temp_c 85"},
	} {
		args := append([]string{"-i", path, "-corners", corners}, tc.args...)
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: refused run printed %q", tc.args, out.String())
		}
	}
	for _, extra := range [][]string{{"-residual-tol", "1e-6"}, {"-state", deck}} {
		var out bytes.Buffer
		args := append([]string{"-i", path, "-node", "t", "-corners", corners}, extra...)
		if err := run(args, &out); err != nil {
			t.Errorf("%v: %v", extra, err)
		}
		if !strings.Contains(out.String(), "=== CORNER hi_r (") {
			t.Errorf("%v: no corner reports in:\n%s", extra, out.String())
		}
	}
}
