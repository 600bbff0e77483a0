package farm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"acstab/internal/obs"
)

// decodeEvents unmarshals every wide event an EventLogger wrote to sink,
// one JSON object per line, keeping only events with the given name (""
// keeps all).
func decodeEvents(t *testing.T, sink *bytes.Buffer, name string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(sink.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event line is not JSON: %v\n%s", err, line)
		}
		if name == "" || ev["event"] == name {
			out = append(out, ev)
		}
	}
	return out
}

// TestRunEmitsExactlyOneWideEvent is the canonical-event contract: one
// one-variant /batch request produces exactly one "batch" event plus one
// "batch_item" event — no separate middleware line — the batch event
// carrying the outcome, wall time, sweep volume, result shape and
// solver-counter deltas, correlated with the flight recorder by trace_id.
func TestRunEmitsExactlyOneWideEvent(t *testing.T) {
	var sink bytes.Buffer
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(&sink)}))
	defer srv.Close()

	code, _, _ := postBatch(t, srv, oneJob(t, BatchRequest{Netlist: tankNetlist, TraceID: "tr-wide-1"}))
	if code != 200 {
		t.Fatalf("run failed with %d", code)
	}

	all := decodeEvents(t, &sink, "")
	if len(all) != 2 || all[0]["event"] != "batch_item" || all[1]["event"] != "batch" {
		t.Fatalf("one one-variant /batch request must produce one batch_item and one batch event, got %d: %v", len(all), all)
	}
	if all[0]["outcome"] != "ok" || all[0]["request_id"] != all[1]["request_id"] {
		t.Errorf("batch_item event = %v", all[0])
	}
	ev := all[1]
	if ev["outcome"] != "ok" || ev["status"] != float64(200) {
		t.Errorf("outcome/status = %v/%v", ev["outcome"], ev["status"])
	}
	if ev["trace_id"] != "tr-wide-1" {
		t.Errorf("trace_id = %v", ev["trace_id"])
	}
	if dur, ok := ev["duration_ms"].(float64); !ok || dur <= 0 {
		t.Errorf("duration_ms = %v", ev["duration_ms"])
	}
	// Sweep volume and result shape ride on the event.
	if n, ok := ev["nodes"].(float64); !ok || n < 1 {
		t.Errorf("nodes = %v, want >= 1", ev["nodes"])
	}
	if fp, ok := ev["freq_points"].(float64); !ok || fp <= 0 {
		t.Errorf("freq_points = %v", ev["freq_points"])
	}
	if _, ok := ev["peaks"].(float64); !ok {
		t.Errorf("peaks missing: %v", ev)
	}
	if _, ok := ev["loops"].(float64); !ok {
		t.Errorf("loops missing: %v", ev)
	}
	// Solver-counter deltas for this run, nested under "solver".
	solver, ok := ev["solver"].(map[string]any)
	if !ok {
		t.Fatalf("solver deltas missing: %v", ev)
	}
	if v, ok := solver["ac_solves"].(float64); !ok || v <= 0 {
		t.Errorf("solver.ac_solves = %v, want > 0", solver["ac_solves"])
	}

	// Correlation: the event's request_id and trace_id match the flight
	// recorder's entry for the same run.
	resp, err := srv.Client().Get(srv.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Runs) != 1 {
		t.Fatalf("flight recorder has %d runs, want 1", len(listing.Runs))
	}
	rec := listing.Runs[0]
	if rec.TraceID != "tr-wide-1" || ev["request_id"] != rec.ID {
		t.Errorf("event (request_id=%v trace_id=%v) does not correlate with recorder (%s, %s)",
			ev["request_id"], ev["trace_id"], rec.ID, rec.TraceID)
	}
}

func TestRunWideEventOnErrorPaths(t *testing.T) {
	var sink bytes.Buffer
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(&sink)}))
	defer srv.Close()

	// Malformed body: still exactly one canonical event, outcome bad_json.
	if code, _, _ := postBatch(t, srv, "{not json"); code != 400 {
		t.Fatalf("bad JSON should 400, got %d", code)
	}
	// Broken netlist: a failed item in a served batch.
	if code, _, _ := postBatch(t, srv, oneJob(t, BatchRequest{Netlist: "broken\nZZ\n"})); code != 200 {
		t.Fatalf("broken netlist should stream its item error, got %d", code)
	}

	batches := decodeEvents(t, &sink, "batch")
	if len(batches) != 2 {
		t.Fatalf("2 requests must produce 2 batch events, got %d", len(batches))
	}
	if batches[0]["outcome"] != CodeBadJSON || batches[0]["error"] == nil {
		t.Errorf("first outcome = %v, want %s with its error", batches[0]["outcome"], CodeBadJSON)
	}
	if batches[1]["outcome"] != CodeRunFailed {
		t.Errorf("failed batch event outcome = %v, want %s: %v", batches[1]["outcome"], CodeRunFailed, batches[1])
	}
	items := decodeEvents(t, &sink, "batch_item")
	if len(items) != 1 || items[0]["outcome"] == "ok" || items[0]["error"] == nil {
		t.Errorf("failed item event lacks outcome/error: %v", items)
	}
	for _, ev := range batches {
		if ev["request_id"] == nil || ev["request_id"] == "" {
			t.Errorf("error event lacks request_id: %v", ev)
		}
	}
}

func TestMiddlewareEventsForNonRunRoutes(t *testing.T) {
	var sink bytes.Buffer
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(&sink)}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The retired /run is an ordinary route now: its 410 is logged by
	// the middleware like any other answer.
	resp, err = srv.Client().Post(srv.URL+"/run", "application/json", strings.NewReader(`{"netlist":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	https := decodeEvents(t, &sink, "http")
	if len(https) != 2 {
		t.Fatalf("got %d http events, want 2", len(https))
	}
	if https[0]["path"] != "/healthz" || https[0]["status"] != float64(200) {
		t.Errorf("http event = %v", https[0])
	}
	if https[1]["path"] != "/run" || https[1]["status"] != float64(http.StatusGone) {
		t.Errorf("/run http event = %v", https[1])
	}
}

func TestDebugRunsFilters(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()

	good := oneJob(t, BatchRequest{Netlist: tankNetlist})
	for i := 0; i < 2; i++ {
		if code, _, body := postBatch(t, srv, good); code != 200 || firstItem(t, body).Error != nil {
			t.Fatalf("run %d failed: %d %s", i, code, body)
		}
	}
	if _, _, body := postBatch(t, srv, oneJob(t, BatchRequest{Netlist: "broken\nZZ\n"})); firstItem(t, body).Error == nil {
		t.Fatal("broken netlist should fail its item")
	}

	list := func(query string) []obs.RunSummary {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/debug/runs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var listing struct {
			Runs []obs.RunSummary `json:"runs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
		return listing.Runs
	}

	if runs := list(""); len(runs) != 3 {
		t.Fatalf("unfiltered listing has %d runs, want 3", len(runs))
	}
	oks := list("?outcome=ok")
	if len(oks) != 2 {
		t.Fatalf("outcome=ok returned %d runs, want 2", len(oks))
	}
	for _, r := range oks {
		if r.Outcome != "ok" {
			t.Errorf("outcome=ok returned %q", r.Outcome)
		}
	}
	errs := list("?outcome=error")
	if len(errs) != 1 || errs[0].Outcome == "ok" {
		t.Fatalf("outcome=error = %+v, want the one failed run", errs)
	}
	if runs := list("?n=1"); len(runs) != 1 {
		t.Fatalf("n=1 returned %d runs", len(runs))
	}
	if runs := list("?outcome=ok&n=1"); len(runs) != 1 || runs[0].Outcome != "ok" {
		t.Fatalf("combined filter = %+v", runs)
	}
	if runs := list("?outcome=shed"); len(runs) != 0 {
		t.Fatalf("outcome=shed should match nothing here, got %d", len(runs))
	}
}

// TestNumericsSameNumbersAcrossSurfaces is the numerics consistency
// check: one run must quote the same health numbers from every surface
// that reports them — the batch's wide event, the worker's /statusz and
// the /debug/runs flight recorder. Metrics are process-global, so the
// /statusz comparison is a delta around the run.
func TestNumericsSameNumbersAcrossSurfaces(t *testing.T) {
	var sink bytes.Buffer
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(&sink)}))
	defer srv.Close()

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	numCount := func() (points, refinements int64, ok bool) {
		var st Statusz
		getJSON("/statusz", &st)
		if st.Numerics == nil {
			return 0, 0, false
		}
		return st.Numerics.Residual.Count, st.Numerics.Refinements, true
	}

	pointsBefore, refineBefore, _ := numCount()
	body := oneJob(t, BatchRequest{Netlist: tankNetlist, TraceID: "tr-numerics-1"})
	if code, _, out := postBatch(t, srv, body); code != 200 || firstItem(t, out).Error != nil {
		t.Fatalf("run failed with %d: %s", code, out)
	}
	pointsAfter, refineAfter, ok := numCount()
	if !ok {
		t.Fatal("/statusz has no numerics block after a run")
	}
	deltaPoints := pointsAfter - pointsBefore
	deltaRefine := refineAfter - refineBefore
	if deltaPoints <= 0 {
		t.Fatalf("statusz residual count delta = %d, want > 0", deltaPoints)
	}

	// Surface 1: the batch's wide event.
	var numerics map[string]any
	for _, ev := range decodeEvents(t, &sink, "batch") {
		if ev["trace_id"] == "tr-numerics-1" {
			solver, _ := ev["solver"].(map[string]any)
			numerics, _ = solver["numerics"].(map[string]any)
		}
	}
	if numerics == nil {
		t.Fatal("batch wide event carries no solver.numerics block")
	}
	evPoints := int64(numerics["points"].(float64))
	evRefine := int64(numerics["refinements"].(float64))
	evBreaches := int64(numerics["breaches"].(float64))
	evMaxRes, _ := numerics["max_residual"].(float64)
	if evPoints != deltaPoints {
		t.Errorf("event points = %d, statusz delta = %d — surfaces disagree", evPoints, deltaPoints)
	}
	if evRefine != deltaRefine {
		t.Errorf("event refinements = %d, statusz delta = %d", evRefine, deltaRefine)
	}
	if evBreaches != 0 {
		t.Errorf("healthy tank reported %d breaches", evBreaches)
	}
	if evMaxRes <= 0 || evMaxRes > 1e-9 {
		t.Errorf("event max_residual = %g, want (0, 1e-9]", evMaxRes)
	}

	// Surface 2: the flight recorder, including the degraded filter.
	var listing struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	getJSON("/debug/runs", &listing)
	var rec *obs.RunSummary
	for i := range listing.Runs {
		if listing.Runs[i].TraceID == "tr-numerics-1" {
			rec = &listing.Runs[i]
		}
	}
	if rec == nil {
		t.Fatal("run missing from /debug/runs")
	}
	if rec.MaxResidual != evMaxRes {
		t.Errorf("recorder max_residual = %g, event says %g", rec.MaxResidual, evMaxRes)
	}
	if rec.Refinements != evRefine {
		t.Errorf("recorder refinements = %d, event says %d", rec.Refinements, evRefine)
	}
	if rec.Degraded {
		t.Error("healthy run marked degraded")
	}
	var degraded struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	getJSON("/debug/runs?health=degraded", &degraded)
	for _, r := range degraded.Runs {
		if r.TraceID == "tr-numerics-1" {
			t.Error("healthy run returned by ?health=degraded")
		}
	}
}
