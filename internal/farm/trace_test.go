package farm

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"acstab/internal/obs"
)

// TestTracePropagation: a traced submission returns the report unchanged
// and grafts the worker's phase spans and solver counters into the
// caller's run, with every remote span carrying attempt 1.
func TestTracePropagation(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	run := obs.StartRun("client")
	c := &Client{BaseURL: srv.URL}
	results, err := c.SubmitBatchTraced(context.Background(), &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}}, run)
	if err != nil {
		t.Fatal(err)
	}
	run.Finish()
	if body := results[0].Body; !strings.Contains(string(body), "Loop at 1 MHz") {
		t.Errorf("traced report body:\n%s", body)
	}

	tr := run.Trace()
	phases := map[string]int{}
	for _, sp := range tr.Phases {
		phases[sp.Phase]++
		if sp.Phase != "farm_submit" && sp.Attempt != 1 {
			t.Errorf("remote span %s attempt = %d, want 1", sp.Phase, sp.Attempt)
		}
	}
	for _, want := range []string{"farm_submit", "parse", "op", "sweep", "stability"} {
		if phases[want] == 0 {
			t.Errorf("missing phase %q in merged trace (got %v)", want, phases)
		}
	}
	if tr.Counters["ac_factorizations"] < 1 || tr.Counters["sweep_nodes"] < 1 {
		t.Errorf("solver counters not merged: %v", tr.Counters)
	}
	// Remote spans sit inside the local request window, after run start.
	for _, sp := range tr.Phases {
		if sp.StartNS < 0 || sp.StartNS+sp.DurationNS > tr.DurationNS {
			t.Errorf("span %s [%d, +%d] escapes the local run window %d",
				sp.Phase, sp.StartNS, sp.DurationNS, tr.DurationNS)
		}
	}
}

// TestTracePropagationRetryAttempts: when the first attempts are shed,
// the grafted spans of the successful attempt carry its attempt number.
func TestTracePropagationRetryAttempts(t *testing.T) {
	worker := httptest.NewServer(Handler())
	defer worker.Close()

	// Front door: 429 the first two attempts, then proxy to the worker.
	var tries atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tries.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		body, _ := io.ReadAll(r.Body)
		resp, err := http.Post(worker.URL+"/batch", "application/json", strings.NewReader(string(body)))
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer front.Close()

	run := obs.StartRun("client")
	c := &Client{BaseURL: front.URL, RetryBaseDelay: time.Millisecond}
	if _, err := c.SubmitBatchTraced(context.Background(), &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}}, run); err != nil {
		t.Fatal(err)
	}
	run.Finish()

	tr := run.Trace()
	submits, remote := 0, 0
	for _, sp := range tr.Phases {
		switch {
		case sp.Phase == "farm_submit":
			submits++
		default:
			remote++
			if sp.Attempt != 3 {
				t.Errorf("span %s attempt = %d, want 3 (two sheds first)", sp.Phase, sp.Attempt)
			}
		}
	}
	if submits != 3 {
		t.Errorf("farm_submit spans = %d, want 3", submits)
	}
	if remote == 0 {
		t.Error("no remote spans grafted")
	}
}

// TestUntracedResponseIsRaw: a batch that does not ask for traces gets
// none — its item lines carry no trace member — while a traced batch's
// every item line carries its own trace and the batch's flight-recorder
// record holds the spans and counters of all its items.
func TestUntracedResponseIsRaw(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	variants := []Variant{{Label: "a"}, {Label: "b", Variables: map[string]float64{"rq": 1000}}}
	_, ct, body := postBatch(t, srv, mustJSON(t, &BatchRequest{V: WireV2, Netlist: tankNetlist, Variants: variants}))
	if ct != "application/x-ndjson" || strings.Contains(body, `"trace"`) {
		t.Errorf("untraced batch: content type %q, body %q", ct, body)
	}

	_, _, body = postBatch(t, srv, mustJSON(t, &BatchRequest{V: WireV2, Netlist: tankNetlist,
		Variants: variants, CollectTrace: true, TraceID: "tr-items"}))
	sweeps, solves := 0, int64(0)
	for _, it := range decodeItems(t, body) {
		if it.Error != nil || it.Trace == nil {
			t.Fatalf("traced item %d: error %+v, trace %v", it.Index, it.Error, it.Trace)
		}
		for _, sp := range it.Trace.Phases {
			if sp.Phase == "sweep" {
				sweeps++
			}
		}
		solves += it.Trace.Counters["ac_solves"]
	}
	if sweeps != 2 || solves == 0 {
		t.Errorf("item traces hold %d sweep spans and %d solves, want 2 and > 0", sweeps, solves)
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Runs) != 2 || list.Runs[0].TraceID != "tr-items" {
		t.Fatalf("runs = %+v (%v), want the traced batch first", list.Runs, err)
	}
	resp, err = srv.Client().Get(srv.URL + "/debug/runs/" + list.Runs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var det obs.RunDetail
	err = json.NewDecoder(resp.Body).Decode(&det)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	recSweeps := 0
	for _, sp := range det.Trace.Phases {
		if sp.Phase == "sweep" {
			recSweeps++
		}
	}
	if recSweeps != 2 || det.Trace.Counters["ac_solves"] != solves {
		t.Errorf("record holds %d sweep spans and %d solves, want 2 and %d",
			recSweeps, det.Trace.Counters["ac_solves"], solves)
	}
}

// TestDebugRunsEndpoints: the flight recorder lists finished runs with
// their outcome, serves full traces by ID, 404s unknown IDs, and rejects
// non-GET methods.
func TestDebugRunsEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	if _, err := c.SubmitBatchTraced(context.Background(), &BatchRequest{
		Netlist: tankNetlist, TraceID: "trace-xyz", Variants: []Variant{{}},
	}, obs.StartRun("client")); err != nil {
		t.Fatal(err)
	}

	var list struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Runs) != 1 {
		t.Fatalf("runs = %+v, want 1", list.Runs)
	}
	rs := list.Runs[0]
	if rs.Outcome != "ok" || rs.Running || rs.TraceID != "trace-xyz" {
		t.Errorf("run summary = %+v", rs)
	}
	if rs.Nodes < 1 || rs.FreqPoints < 1 {
		t.Errorf("sweep volume missing: %+v", rs)
	}

	// Detail: the full worker-side trace with its phases.
	resp, err = srv.Client().Get(srv.URL + "/debug/runs/" + rs.ID)
	if err != nil {
		t.Fatal(err)
	}
	var det obs.RunDetail
	if err := json.NewDecoder(resp.Body).Decode(&det); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(det.Trace.Phases) == 0 || det.Trace.Counters["ac_factorizations"] < 1 {
		t.Errorf("run detail trace = %+v", det.Trace)
	}

	// Unknown ID.
	resp, err = srv.Client().Get(srv.URL + "/debug/runs/run-999999")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	// Method check.
	resp, err = srv.Client().Post(srv.URL+"/debug/runs", "text/plain", strings.NewReader("x"))
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/runs: %v %v", resp.Status, err)
	}
	resp.Body.Close()
}

// TestDebugRunsRingBound: the recorder keeps only the configured number
// of records, newest first.
func TestDebugRunsRingBound(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{RecentRuns: 2}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	for i := 0; i < 3; i++ {
		if _, err := c.SubmitBatch(context.Background(), &BatchRequest{Netlist: tankNetlist, Node: "t", Variants: []Variant{{}}}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 2 {
		t.Errorf("runs = %d, want 2 (ring bound)", len(list.Runs))
	}
}

// TestDebugRunsDeadlineOutcome: a job killed by its deadline is recorded
// with the "deadline" outcome.
func TestDebugRunsDeadlineOutcome(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{
		Netlist: ladderNetlist(120), TimeoutMS: 1, Variants: []Variant{{}},
	})
	if err != nil || results[0].Err == nil {
		t.Fatalf("1ms deadline should kill the job: %v, %v", err, results[0].Err)
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].Outcome != "deadline" {
		t.Errorf("runs = %+v, want one deadline outcome", list.Runs)
	}
}

// TestStatuszLinksDebugRuns: /statusz advertises the flight recorder.
func TestStatuszLinksDebugRuns(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.DebugRunsURL != "/debug/runs" {
		t.Errorf("debug_runs_url = %q", st.DebugRunsURL)
	}
}
