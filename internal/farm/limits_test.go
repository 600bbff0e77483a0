package farm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"acstab/internal/obs"
)

// oversizedBody returns a request body just past limit: syntactically it
// would be valid JSON if read whole, so any rejection proves the size
// check fired rather than the JSON decoder.
func oversizedBody(limit int64) string {
	pad := strings.Repeat("x", int(limit))
	b, _ := json.Marshal(map[string]any{"v": 1, "netlist": pad})
	return string(b)
}

// TestRunPayloadTooLarge pins the netlist budget inside the body
// budget: a job whose body fits the read limit but whose decoded netlist
// exceeds MaxNetlistBytes is a typed 400 naming the netlist, recorded
// with that outcome — not a batch the worker aborts after committing a
// 200 (which the client would take for a truncated stream and resubmit).
func TestRunPayloadTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()

	code, _, body := postBatch(t, srv, oneJob(t, BatchRequest{Netlist: strings.Repeat("x", MaxNetlistBytes+1)}))
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != CodeBadOption || eb.Error.Field != "netlist" {
		t.Errorf("error %+v, want %s on field netlist", eb.Error, CodeBadOption)
	}
}

// TestBatchPayloadTooLarge pins the /batch oversize behavior: a body past
// the read budget answers 413 payload_too_large. Before the explicit
// check, io.LimitReader silently truncated the document and the decoder
// blamed the client's JSON (bad_json 400) — pointing at the wrong bug.
func TestBatchPayloadTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/batch", "application/json",
		strings.NewReader(oversizedBody(maxBatchRequestBytes)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != CodePayloadTooLarge {
		t.Errorf("code %q, want %q", eb.Error.Code, CodePayloadTooLarge)
	}
}

// TestRunUnderLimitStillServed guards the budget math: a legal netlist
// near MaxNetlistBytes whose JSON escaping inflates it past the old
// MaxNetlistBytes+4k read cap must still decode (and fail on substance,
// not size or truncation).
func TestRunUnderLimitStillServed(t *testing.T) {
	// ~1M of comment lines: every newline escapes to two bytes on the
	// wire, so wire size ≈ 2x netlist size — over the old cap's headroom
	// but far under MaxNetlistBytes itself.
	var sb strings.Builder
	sb.WriteString("escape blowup\n")
	line := "* " + strings.Repeat("c", 6) + "\n"
	for sb.Len() < 1<<20 {
		sb.WriteString(line)
	}
	sb.WriteString("R1 a 0 1k\nC1 a 0 1n\nL1 a 0 1m\n")

	srv := httptest.NewServer(NewHandler(Config{Log: obs.NewEventLogger(nil)}))
	defer srv.Close()
	code, _, body := postBatch(t, srv, oneJob(t, BatchRequest{Netlist: sb.String()}))
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (escaped body must fit the budget): %.200s", code, body)
	}
	if it := firstItem(t, body); it.Error != nil {
		t.Errorf("item failed: %+v", it.Error)
	}
}

// TestBatchShedAccounted pins the accounting of a /batch request shed at
// admission: it answers 429, bumps the shed counter, leaves a "shed"
// record in the flight recorder and emits exactly one "batch" wide event
// with that outcome, the retry hint and the concurrency ceiling, so a
// worker shedding every batch does not look idle.
func TestBatchShedAccounted(t *testing.T) {
	var sink bytes.Buffer
	s := &server{cfg: Config{MaxConcurrent: 1, RetryAfter: time.Second}.withDefaults(),
		start: time.Now(), rec: obs.NewRecorder(4), log: obs.NewEventLogger(&sink)}
	s.sem = make(chan struct{}, 1)
	s.sem <- struct{}{} // saturate admission
	shedBefore := mShed.Value()

	payload, _ := json.Marshal(&BatchRequest{V: WireV2, Netlist: tankNetlist,
		Node: "t", Variants: []Variant{{Label: "a"}}})
	rec := httptest.NewRecorder()
	s.handleBatch(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(string(payload))))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}

	if got := mShed.Value(); got != shedBefore+1 {
		t.Errorf("shed counter moved %d -> %d, want +1", shedBefore, got)
	}
	runs := s.rec.List()
	if len(runs) != 1 || runs[0].Outcome != "shed" {
		t.Errorf("flight recorder = %+v, want one shed record", runs)
	}
	evs := decodeEvents(t, &sink, "")
	if len(evs) != 1 || evs[0]["event"] != "batch" {
		t.Fatalf("events = %v, want exactly one batch event", evs)
	}
	if evs[0]["outcome"] != "shed" || evs[0]["status"] != float64(http.StatusTooManyRequests) {
		t.Errorf("batch event outcome/status = %v/%v, want shed/429", evs[0]["outcome"], evs[0]["status"])
	}
	if evs[0]["retry_after_s"] != float64(1) || evs[0]["max_concurrent"] != float64(1) {
		t.Errorf("batch event retry_after_s/max_concurrent = %v/%v, want 1/1", evs[0]["retry_after_s"], evs[0]["max_concurrent"])
	}
	if evs[0]["request_id"] != runs[0].ID {
		t.Errorf("event request_id %v does not match recorder id %s", evs[0]["request_id"], runs[0].ID)
	}
}
