package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"acstab/internal/farm"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/tool"
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

// TestTempsSortedAndApplied: -temps runs the deck at each temperature,
// coldest first, and each report is that temperature's analysis: the
// resistor's tempco lightens the damping as it heats, deepening the peak.
func TestTempsSortedAndApplied(t *testing.T) {
	path := writeNetlist(t, tempcoDeck)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-temps", "125,-40,27", "-format", "json",
		"-fstart", "10k", "-fstop", "100meg"}, &out); err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(out.String(), "=== TEMP ")[1:]
	if len(sections) != 3 {
		t.Fatalf("%d sections, want 3:\n%s", len(sections), out.String())
	}
	var peaks []float64
	for i, want := range []float64{-40, 27, 125} {
		banner, body, _ := strings.Cut(sections[i], " C ===\n")
		rep, err := report.ParseJSON(strings.NewReader(body))
		if err != nil {
			t.Fatalf("section %q: %v", banner, err)
		}
		if banner != fmt.Sprint(want) || rep.Temp != want {
			t.Fatalf("section %d is %q at %g C, want %g C", i, banner, rep.Temp, want)
		}
		w := tool.WorstLoop(rep)
		if w == nil {
			t.Fatalf("%g C: no loop", want)
		}
		peaks = append(peaks, w.WorstPeak)
	}
	if !(peaks[2] < peaks[1] && peaks[1] < peaks[0]) {
		t.Errorf("peaks %v at -40, 27, 125 C: want deeper when hotter", peaks)
	}
}

// tableRows returns the whitespace-separated fields of a -sweep or -mc
// table's rows, the header and a quantile line left out.
func tableRows(out string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		if !strings.HasPrefix(line, "phase margin quantiles") {
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

// TestSweepSortedAndMonotone: -sweep runs one analysis per value,
// smallest first, and the worst loop follows the damping resistor; an
// unknown variable is refused before anything runs.
func TestSweepSortedAndMonotone(t *testing.T) {
	path := writeNetlist(t, overrideDeck)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-sweep", "rq=2000,500,1000", "-fstart", "10k", "-fstop", "100meg"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(out.String())
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3:\n%s", len(rows), out.String())
	}
	var peaks []float64
	for i, want := range []string{"500", "1000", "2000"} {
		if rows[i][0] != want {
			t.Fatalf("row %d is rq=%s, want %s:\n%s", i, rows[i][0], want, out.String())
		}
		p, err := strconv.ParseFloat(rows[i][1], 64)
		if err != nil {
			t.Fatalf("row %v: %v", rows[i], err)
		}
		peaks = append(peaks, p)
	}
	// Larger R -> lighter damping -> deeper peak: strictly decreasing.
	if !(peaks[0] > peaks[1] && peaks[1] > peaks[2]) {
		t.Errorf("peaks not monotone with rq: %v", peaks)
	}
	out.Reset()
	if err := run([]string{"-i", path, "-sweep", "nosuch=1,2"}, &out); err == nil ||
		!strings.Contains(err.Error(), `unknown design variable "nosuch"`) || out.Len() != 0 {
		t.Errorf("unknown sweep variable: err = %v, output %q", err, out.String())
	}
}

// TestMonteCarloSpread: every sample of a two-sigma Monte Carlo run
// finds the loop, the draws spread its frequency and phase margin, and
// the phase-margin quantiles come out ordered.
func TestMonteCarloSpread(t *testing.T) {
	path := writeNetlist(t, mcDeck)
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-mc", "20", "-mc-seed", "42", "-sigma", "rq=0.2", "-sigma", "cq=0.05",
		"-fstart", "10k", "-fstop", "100meg"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(out.String())
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 20:\n%s", len(rows), out.String())
	}
	minF, maxF := math.Inf(1), math.Inf(-1)
	minPM, maxPM := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if len(r) != 4 {
			t.Fatalf("row %v: want run, peak, frequency, phase margin", r)
		}
		f, _ := strconv.ParseFloat(r[2], 64)
		pm, _ := strconv.ParseFloat(r[3], 64)
		if f == 0 {
			t.Fatalf("sample missed the loop: %v", r)
		}
		minF, maxF = math.Min(minF, f), math.Max(maxF, f)
		minPM, maxPM = math.Min(minPM, pm), math.Max(maxPM, pm)
	}
	if minF < 0.8e6 || maxF > 1.25e6 {
		t.Errorf("frequency spread [%g, %g] implausible", minF, maxF)
	}
	if maxPM-minPM < 2 {
		t.Errorf("20%% resistor sigma should spread PM; got [%g, %g]", minPM, maxPM)
	}
	var p5, p50, p95 float64
	var failed, runs int
	last := out.String()[strings.LastIndex(out.String(), "phase margin quantiles"):]
	if _, err := fmt.Sscanf(last, "phase margin quantiles: p5=%g p50=%g p95=%g (deg), %d/%d runs failed",
		&p5, &p50, &p95, &failed, &runs); err != nil || failed != 0 || runs != 20 || !(p5 <= p50 && p50 <= p95) {
		t.Errorf("quantile line %q (%v): want p5 <= p50 <= p95 and 0/20 failed", last, err)
	}
}

// TestVariantsKeepDeck: every variant source analyses the deck the plain
// run does — its .temp, .nodeset and .option cards included — so a
// variant that overrides nothing prints the plain run's report.
func TestVariantsKeepDeck(t *testing.T) {
	path := writeNetlist(t, `kept deck
.param rq=318
.temp 85
R1 t 0 {rq} tc1=2m
L1 t 0 25.33u
C1 t 0 1n
.nodeset v(t)=0.5
.option gmin=1e-12
`)
	var plain, temps, corner bytes.Buffer
	if err := run([]string{"-i", path}, &plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "temperature: 85 C") {
		t.Fatalf("plain run ignores .temp:\n%s", plain.String())
	}
	if err := run([]string{"-i", path, "-temps", "85"}, &temps); err != nil {
		t.Fatal(err)
	}
	if want := "=== TEMP 85 C ===\n" + plain.String() + "\n"; temps.String() != want {
		t.Errorf("-temps 85:\n%s\nwant:\n%s", temps.String(), want)
	}
	if err := run([]string{"-i", path, "-corners", writeCorners(t, "nom\n")}, &corner); err != nil {
		t.Fatal(err)
	}
	if _, body, _ := strings.Cut(corner.String(), "===\n"); body != plain.String()+"\n" {
		t.Errorf("-corners nom:\n%s\nwant the plain report:\n%s", corner.String(), plain.String())
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
	// A refused run setup is reported in the diagnostic file too.
	if err := run([]string{"-i", path, "-loop-tol", "-1", "-diag", diag}, &out); err == nil {
		t.Fatal("negative -loop-tol accepted")
	}
	if b, err = os.ReadFile(diag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "status: FAILED") || !strings.Contains(string(b), "option loop_tol") {
		t.Errorf("diagnostic of a refused setup:\n%s", b)
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
	// Without a resonant loop in any sample there is no phase margin to
	// take quantiles of.
	out.Reset()
	flat := writeNetlist(t, "resistor\n.param r=1k\nR1 a 0 {r}\nR2 a b 2k\nR3 b 0 {r}\n")
	if err := run([]string{"-i", flat, "-mc", "3", "-sigma", "r=0.1"}, &out); err != nil {
		t.Fatal(err)
	}
	if rows := tableRows(out.String()); len(rows) != 3 || strings.Contains(out.String(), "quantiles") {
		t.Errorf("loop-free MC output:\n%s", out.String())
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

// tempcoDeck is a tank whose damping resistor has a temperature
// coefficient, so every temperature reports a different peak.
const tempcoDeck = `temp tank
R1 t 0 318 tc1=2m
L1 t 0 25.33u
C1 t 0 1n
`

// mcDeck is a tank with two design variables for Monte Carlo runs.
const mcDeck = `mc tank
.param rq=400 cq=1n
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 {cq}
`

// TestRemoteMatchesLocal: a -remote run on one worker prints exactly
// what the local run prints, in every format, with the run setup's
// -set, -state (its temperature too) and -subckt carried to the worker,
// and -temps, -sweep and -mc batches print the same tables.
func TestRemoteMatchesLocal(t *testing.T) {
	srv := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	state := filepath.Join(t.TempDir(), "setup.json")
	var discard bytes.Buffer
	if err := run([]string{"-i", writeNetlist(t, overrideDeck), "-set", "rq=318",
		"-fstart", "10k", "-save-state", state}, &discard); err != nil {
		t.Fatal(err)
	}
	hot := filepath.Join(t.TempDir(), "hot.json")
	if err := os.WriteFile(hot, []byte(`{"version": 1, "temp_c": 85}`), 0o644); err != nil {
		t.Fatal(err)
	}
	formats := [][]string{{"-format", "text"}, {"-format", "csv"}, {"-format", "json"}, {"-annotate"}}
	for _, tc := range []struct {
		name, deck string
		args       []string
		formats    [][]string
	}{
		{"opamp", opampNetlist, nil, formats},
		{"set", overrideDeck, []string{"-set", "rq=318"}, formats},
		{"state", overrideDeck, []string{"-state", state}, formats},
		{"hot state", tempcoDeck, []string{"-state", hot}, formats},
		{"subckt", scopeDeck, []string{"-subckt", "x1"}, formats},
		{"temps", tempcoDeck, []string{"-temps", "125,-40,27"}, formats},
		{"sweep", overrideDeck, []string{"-sweep", "rq=2k,318,1k"}, [][]string{nil}},
		{"mc", mcDeck, []string{"-mc", "4", "-sigma", "rq=0.2", "-sigma", "cq=0.05"}, [][]string{nil}},
	} {
		path := writeNetlist(t, tc.deck)
		for _, format := range tc.formats {
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
// instead of running something else on the worker, and so do two
// variant sources and the table flags that need the all-nodes report.
func TestRemoteRefusals(t *testing.T) {
	srv := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	path := writeNetlist(t, tankNetlist)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-node", "t", "-plot"}, "-plot"},
		{[]string{"-residual-tol", "1e-6"}, "-residual-tol"},
		{[]string{"-remote", srv.URL + "," + srv.URL}, "one worker URL"},
		{[]string{"-temps", "27,85", "-sweep", "rq=100,200"}, "-temps and -sweep are two variant sources"},
		{[]string{"-sweep", "rq=100,200", "-node", "t"}, "-node does not run with -sweep"},
		{[]string{"-mc", "4", "-sigma", "rq=0.1", "-format", "csv"}, "-format does not run with -mc"},
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

// TestCornersRefusals: a local -corners batch is one variant source, so
// a second one is refused by name, and so is -plot, which a batch item
// cannot draw. -residual-tol runs locally, and a -state file runs every
// corner at its temperature.
func TestCornersRefusals(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	corners := writeCorners(t, "nom\nhi_r rq=2k\n")
	dir := t.TempDir()
	hot := filepath.Join(dir, "hot.json")
	if err := os.WriteFile(hot, []byte(`{"version": 1, "temp_c": 85}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mc", "4", "-sigma", "rq=0.1"}, "-corners and -mc are two variant sources"},
		{[]string{"-temps", "85,125"}, "-corners and -temps are two variant sources"},
		{[]string{"-sweep", "rq=100,200"}, "-corners and -sweep are two variant sources"},
		{[]string{"-node", "t", "-plot"}, "-plot does not run with -corners"},
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
	for _, extra := range [][]string{{"-residual-tol", "1e-6"}, {"-state", hot}} {
		var out bytes.Buffer
		args := append([]string{"-i", path, "-corners", corners}, extra...)
		if err := run(args, &out); err != nil {
			t.Errorf("%v: %v", extra, err)
		}
		if !strings.Contains(out.String(), "=== CORNER hi_r (") {
			t.Errorf("%v: no corner reports in:\n%s", extra, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-corners", corners, "-state", hot}, &out); err != nil ||
		strings.Count(out.String(), "temperature: 85 C") != 2 {
		t.Errorf("-state temp_c 85: %v, want both corners at 85 C in:\n%s", err, out.String())
	}
}

// TestSetupRefusalsAgree: a local run, a local -corners batch and a
// -remote job validate the run setup through the same tool.Options.Resolve
// and the format through the same report.CheckFormat, so each refuses a
// bad setup naming the same option for the same reason, and the
// worker's decoder refuses it the same way when a client sends it
// unchecked.
func TestSetupRefusalsAgree(t *testing.T) {
	srv := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	path := writeNetlist(t, tankNetlist)
	corners := writeCorners(t, "nom\nhi_r rq=2k\n")
	for _, tc := range []struct {
		args  []string
		opts  tool.Options // the same setup on the wire
		field string
	}{
		{[]string{"-refine-ppd", "80"}, tool.Options{RefinePointsPerDecade: 80}, "refine_points_per_decade"},
		{[]string{"-refine-threshold", "2"}, tool.Options{RefineThreshold: 2}, "refine_threshold"},
		{[]string{"-loop-tol", "-1"}, tool.Options{LoopTol: -1}, "loop_tol"},
		{[]string{"-coarse-ppd", "10", "-refine-ppd", "20000"},
			tool.Options{CoarsePointsPerDecade: 10, RefinePointsPerDecade: 20000}, "refine_points_per_decade"},
		{[]string{"-ppd", "20000"}, tool.Options{PointsPerDecade: 20000}, "points_per_decade"},
		{[]string{"-fstart", "1g", "-fstop", "1k"}, tool.Options{FStart: 1e9, FStop: 1e3}, "fstop_hz"},
		{[]string{"-format", "xml"}, tool.Options{}, "format"},
	} {
		var reasons []string
		for _, extra := range [][]string{nil, {"-corners", corners}, {"-remote", srv.URL}} {
			args := append(append([]string{"-i", path}, tc.args...), extra...)
			var out bytes.Buffer
			err := run(args, &out)
			var fe *tool.FieldError
			if !errors.As(err, &fe) || fe.Field != tc.field {
				t.Errorf("%v: err = %v, want a refusal of %s", args, err, tc.field)
				continue
			}
			if out.Len() != 0 {
				t.Errorf("%v: refused run printed %q", args, out.String())
			}
			reasons = append(reasons, fe.Error())
		}
		c := &farm.Client{BaseURL: srv.URL}
		var format string
		if tc.field == "format" {
			format = tc.args[1]
		}
		_, err := c.SubmitBatch(context.Background(), &farm.BatchRequest{
			Netlist: tankNetlist, Format: format, Options: tc.opts, Variants: []farm.Variant{{}}})
		var se *farm.StatusError
		if !errors.As(err, &se) || se.Code != "bad_option" {
			t.Errorf("%v on the wire: err = %v, want 400 bad_option", tc.args, err)
			continue
		}
		reasons = append(reasons, se.Message)
		for _, r := range reasons[1:] {
			if r != reasons[0] {
				t.Errorf("%v: refusals differ: %q", tc.args, reasons)
				break
			}
		}
	}
}

// stageDeck puts two internal nodes in subckt instance x1 beside a
// top-level tank, so -subckt and -skip both change what a run reports.
const stageDeck = `scoped ladder
.subckt stage t
R0 t m 10
R1 m 0 318
L1 m 0 25.33u
C1 m 0 1n
.ends
X1 a stage
R2 b 0 100
L2 b 0 2.533u
C2 b 0 1n
`

// TestSaveStateRoundTrip: -save-state captures every run-setup flag, so a
// run from the state file alone prints the bytes the flags run printed.
func TestSaveStateRoundTrip(t *testing.T) {
	path := writeNetlist(t, stageDeck)
	state := filepath.Join(t.TempDir(), "setup.json")
	var withFlags, fromState, plain bytes.Buffer
	if err := run([]string{"-i", path, "-format", "json", "-coarse-ppd", "10", "-refine-ppd", "320",
		"-refine-threshold", "0.6", "-subckt", "x1", "-skip", "a", "-save-state", state}, &withFlags); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"coarse_points_per_decade": 10`, `"refine_points_per_decade": 320`,
		`"refine_threshold": 0.6`, `"only_subckt": "x1"`, `"skip_nodes"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("state file lacks %s:\n%s", key, b)
		}
	}
	if err := run([]string{"-i", path, "-format", "json", "-state", state}, &fromState); err != nil {
		t.Fatal(err)
	}
	if fromState.String() != withFlags.String() {
		t.Errorf("-state run differs from the flags run\n--- state ---\n%s\n--- flags ---\n%s",
			fromState.String(), withFlags.String())
	}
	if err := run([]string{"-i", path, "-format", "json"}, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.String() == withFlags.String() {
		t.Error("the setup flags did not change the report")
	}
}

// TestCornersResidualTolSharesOP: a corner batch with -residual-tol
// compiles its artifacts with those solver options, so a repeated corner
// reuses the cached operating point exactly as it does without the flag.
func TestCornersResidualTolSharesOP(t *testing.T) {
	path := writeNetlist(t, tankNetlist)
	corners := writeCorners(t, "nom\nhi_r rq=2k\nnom_again\n")
	opSpans := func(extra ...string) int {
		traceFile := filepath.Join(t.TempDir(), "trace.json")
		args := append([]string{"-i", path, "-corners", corners, "-trace-json", traceFile}, extra...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "=== CORNER nom_again (cache hit") {
			t.Fatalf("%v: repeated corner missed the cache:\n%s", extra, out.String())
		}
		b, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tr obs.Trace
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range tr.Phases {
			if p.Phase == "op" {
				n++
			}
		}
		return n
	}
	plain, tol := opSpans(), opSpans("-residual-tol", "1e-8")
	if plain != 2 || tol != plain {
		t.Errorf("op spans: %d without -residual-tol, %d with it; want 2 for both", plain, tol)
	}
}
