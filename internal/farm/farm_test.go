package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"acstab/internal/tool"
)

const tankNetlist = `farm tank
.param rq=318
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 1n
`

// runJob runs req the way the worker runs a one-variant batch, without
// the HTTP layer: wire encode and decode (with its validation), then
// RunBatch. It returns the item's report and content type, or the
// rejection or the item's typed error.
func runJob(t *testing.T, req BatchRequest) ([]byte, string, error) {
	t.Helper()
	dec, opts, we := DecodeBatchRequest([]byte(oneJob(t, req)))
	if we != nil {
		return nil, "", we
	}
	var item BatchItem
	if err := RunBatch(context.Background(), nil, dec, opts, 0, nil, func(it BatchItem) {
		it.Body = bytes.Clone(it.Body) // lent until emit returns
		item = it
	}); err != nil {
		t.Fatal(err)
	}
	if item.Error != nil {
		return nil, "", &ItemError{Detail: *item.Error}
	}
	return item.Body, item.ContentType, nil
}

// mustJSON marshals a request body for the raw-HTTP tests.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// oneJob is the wire body of a one-variant batch: req with the version
// and a single empty variant filled in.
func oneJob(t *testing.T, req BatchRequest) string {
	t.Helper()
	req.V, req.Variants = WireV2, []Variant{{}}
	return mustJSON(t, &req)
}

// firstItem decodes the first line of a batch response body.
func firstItem(t *testing.T, body string) BatchItem {
	t.Helper()
	items := decodeItems(t, body)
	if len(items) == 0 {
		t.Fatalf("no item in batch response %q", body)
	}
	return items[0]
}

func TestRunAllNodesText(t *testing.T) {
	body, ct, err := runJob(t, BatchRequest{Netlist: tankNetlist})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(string(body), "Loop at 1 MHz") {
		t.Errorf("report:\n%s", body)
	}
}

func TestRunFormats(t *testing.T) {
	for _, f := range []string{"csv", "json", "annotate"} {
		body, _, err := runJob(t, BatchRequest{Netlist: tankNetlist, Format: f})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(body) == 0 {
			t.Errorf("%s: empty body", f)
		}
	}
	if _, _, err := runJob(t, BatchRequest{Netlist: tankNetlist, Format: "bogus"}); err == nil {
		t.Error("bad format should fail")
	}
}

// TestRunSingleNode: a single-node job renders in the job's format: text
// by default, json on request.
func TestRunSingleNode(t *testing.T) {
	text, ct, err := runJob(t, BatchRequest{Netlist: tankNetlist, Node: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if ct != "text/plain; charset=utf-8" || !strings.HasPrefix(string(text), "node t: ") {
		t.Errorf("default format: content type %q, body\n%s", ct, text)
	}
	body, ct, err := runJob(t, BatchRequest{Netlist: tankNetlist, Node: "t", Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	if ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var res struct {
		Node   string  `json:"node"`
		Peak   float64 `json:"peak"`
		FreqHz float64 `json:"natural_freq_hz"`
		Zeta   float64 `json:"zeta"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Node != "t" || math.Abs(res.Zeta-0.25) > 0.02 ||
		math.Abs(res.FreqHz-1e6) > 0.05e6 {
		t.Errorf("result: %+v", res)
	}
}

func TestRunVariables(t *testing.T) {
	a, _, err := runJob(t, BatchRequest{Netlist: tankNetlist, Node: "t"})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runJob(t, BatchRequest{Netlist: tankNetlist, Node: "t",
		Variables: map[string]float64{"rq": 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(b) {
		t.Error("variable override had no effect")
	}
	if _, _, err := runJob(t, BatchRequest{Netlist: tankNetlist,
		Variables: map[string]float64{"nosuch": 1}}); err == nil {
		t.Error("unknown variable should fail")
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := runJob(t, BatchRequest{Netlist: "broken\nZZ\n"}); err == nil {
		t.Error("bad netlist should fail")
	}
	if _, _, err := runJob(t, BatchRequest{Netlist: strings.Repeat("x", MaxNetlistBytes+1)}); err == nil {
		t.Error("oversized netlist should fail")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}})
	if err != nil || results[0].Err != nil {
		t.Fatal(err, results[0].Err)
	}
	if !strings.Contains(string(results[0].Body), "Loop at 1 MHz") {
		t.Errorf("remote report:\n%s", results[0].Body)
	}
	// Errors propagate as the item's typed error.
	results, err = c.SubmitBatch(context.Background(), &BatchRequest{Netlist: "broken\nZZ\n", Variants: []Variant{{}}})
	var ie *ItemError
	if err != nil || !errors.As(results[0].Err, &ie) {
		t.Errorf("remote error should surface as an item error: %v, %v", err, results[0].Err)
	}
	// Health endpoint.
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("healthz content type %q", ct)
	}
	resp.Body.Close()
	// Method checks: /batch is POST-only, /healthz is GET-only.
	resp, err = srv.Client().Get(srv.URL + "/batch")
	if err != nil || resp.StatusCode != 405 {
		t.Fatalf("GET /batch should 405, got %v %v", resp.Status, err)
	}
	resp.Body.Close()
	resp, err = srv.Client().Post(srv.URL+"/healthz", "text/plain", strings.NewReader("x"))
	if err != nil || resp.StatusCode != 405 {
		t.Fatalf("POST /healthz should 405, got %v %v", resp.Status, err)
	}
	resp.Body.Close()
}

func TestHandlerErrorPaths(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	// Malformed JSON body.
	if code, _, body := postBatch(t, srv, "{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, body %q", code, body)
	}
	// Unknown format is rejected at decode time with a typed field error.
	req := oneJob(t, BatchRequest{Netlist: tankNetlist, Format: "yaml"})
	if code, _, body := postBatch(t, srv, req); code != http.StatusBadRequest ||
		!strings.Contains(body, `"code":"bad_option"`) ||
		!strings.Contains(body, `"field":"format"`) {
		t.Errorf("unknown format: status %d, body %q", code, body)
	}
	// Oversized netlist: the decoded netlist exceeds MaxNetlistBytes
	// though the body fits the read budget, a typed 400 naming the field.
	big := oneJob(t, BatchRequest{Netlist: strings.Repeat("x", MaxNetlistBytes+1)})
	if code, _, body := postBatch(t, srv, big); code != http.StatusBadRequest ||
		!strings.Contains(body, `"field":"netlist"`) {
		t.Errorf("oversized netlist: status %d, body %q", code, body)
	}
	// A scope that leaves no node to probe is a failed item, not a panic
	// that takes the worker down.
	for _, o := range []tool.Options{{OnlySubckt: "x9"}, {SkipNodes: []string{"t"}}} {
		code, _, body := postBatch(t, srv, oneJob(t, BatchRequest{Netlist: tankNetlist, Options: o}))
		if it := firstItem(t, body); code != http.StatusOK || it.Error == nil ||
			!strings.Contains(it.Error.Message, "no node left to analyze") {
			t.Errorf("empty node scope %+v: status %d, body %q", o, code, body)
		}
	}
	// Grids too large to afford are refused before any is allocated: an
	// oversized resolution at decode, with the field named, and a first
	// pass of too many (node, frequency) pairs as a failed item.
	req = oneJob(t, BatchRequest{Netlist: tankNetlist, Options: tool.Options{PointsPerDecade: 1e9}})
	if code, _, body := postBatch(t, srv, req); code != http.StatusBadRequest ||
		!strings.Contains(body, `"field":"points_per_decade"`) {
		t.Errorf("points_per_decade 1e9: status %d, body %q", code, body)
	}
	req = oneJob(t, BatchRequest{Netlist: tankNetlist, Options: tool.Options{
		FStart: 1e-300, FStop: 1e300, PointsPerDecade: 10000}})
	code, _, body := postBatch(t, srv, req)
	if it := firstItem(t, body); code != http.StatusOK || it.Error == nil ||
		it.Error.Code != CodeRunFailed || !strings.Contains(it.Error.Message, "exceeds the limit") {
		t.Errorf("6e6-point sweep: status %d, body %q", code, body)
	}
}

// promValue extracts the value of one exposition line by exact metric name.
func promValue(t *testing.T, text, name string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	read := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	runs0, _ := promValue(t, read("/metrics"), "acstab_farm_runs_total")
	fact0, _ := promValue(t, read("/metrics"), "acstab_ac_factorizations_total")

	// One real job, then assert the counters moved.
	c := &Client{BaseURL: srv.URL}
	if _, err := c.SubmitBatch(context.Background(), &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}}); err != nil {
		t.Fatal(err)
	}
	text := read("/metrics")
	if !strings.Contains(text, "# TYPE acstab_farm_runs_total counter") {
		t.Errorf("missing TYPE header:\n%s", text)
	}
	if runs, ok := promValue(t, text, "acstab_farm_runs_total"); !ok || runs != runs0+1 {
		t.Errorf("farm_runs_total = %g, want %g", runs, runs0+1)
	}
	if fact, ok := promValue(t, text, "acstab_ac_factorizations_total"); !ok || fact <= fact0 {
		t.Errorf("ac_factorizations_total = %g, want > %g", fact, fact0)
	}
	// Request counter and latency histogram for the POST /batch we just made.
	if v, ok := promValue(t, text, `acstab_http_requests_total{path="/batch",code="200"}`); !ok || v < 1 {
		t.Errorf("batch request counter = %g (ok=%v)", v, ok)
	}
	if !strings.Contains(text, `acstab_http_request_duration_seconds_bucket{path="/batch",le="+Inf"}`) {
		t.Errorf("missing latency histogram buckets:\n%s", text)
	}
	// Per-phase sweep timings.
	for _, phase := range []string{"parse", "mna_assembly", "op", "sweep", "stability", "loop_clustering"} {
		name := fmt.Sprintf(`acstab_phase_duration_seconds_count{phase=%q}`, phase)
		if v, ok := promValue(t, text, name); !ok || v < 1 {
			t.Errorf("phase %s histogram count = %g (ok=%v)", phase, v, ok)
		}
	}
}

func TestStatuszEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	if _, err := c.SubmitBatch(context.Background(), &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("statusz content type %q", ct)
	}
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsInflight != 0 {
		t.Errorf("jobs_inflight = %g, want 0 at rest", st.JobsInflight)
	}
	if st.RunsTotal < 1 {
		t.Errorf("runs_total = %d", st.RunsTotal)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %g", st.UptimeSeconds)
	}
	sweep, ok := st.Phases["sweep"]
	if !ok || sweep.Count < 1 || sweep.Sum <= 0 {
		t.Errorf("sweep phase histogram = %+v (ok=%v)", sweep, ok)
	}
	if st.Solver["ac_factorizations"] < 1 {
		t.Errorf("solver counters = %v", st.Solver)
	}
	if st.Workers.GOMAXPROCS < 1 {
		t.Errorf("workers = %+v", st.Workers)
	}
	if _, clash := st.Solver["http_request_bytes"]; clash {
		t.Error("HTTP byte counters should not be classified as solver counters")
	}
	// Method check.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/statusz", nil)
	resp2, err := srv.Client().Do(req)
	if err != nil || resp2.StatusCode != 405 {
		t.Fatalf("POST /statusz should 405, got %v %v", resp2, err)
	}
	resp2.Body.Close()
}
