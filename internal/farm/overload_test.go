package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"acstab/internal/obs"
)

// ladderNetlist builds an n-stage RC ladder — a deck whose all-nodes run
// takes long enough that a millisecond deadline always expires mid-solve.
func ladderNetlist(n int) string {
	var b strings.Builder
	b.WriteString("deadline ladder\nV1 n0 0 1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "R%d n%d n%d 1k\nC%d n%d 0 1n\n", i, i, i+1, i, i+1)
	}
	return b.String()
}

func TestShedWhenSaturated(t *testing.T) {
	s := &server{cfg: Config{MaxConcurrent: 1, RetryAfter: 2 * time.Second}.withDefaults(),
		start: time.Now()}
	s.sem = make(chan struct{}, 1)
	s.sem <- struct{}{} // one job "in flight"

	shed0 := mShed.Value()
	payload := oneJob(t, BatchRequest{Netlist: tankNetlist})
	rec := httptest.NewRecorder()
	s.handleBatch(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(payload)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated worker: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeOverloaded {
		t.Errorf("shed body = %q (err %v), want code %q", rec.Body.String(), err, CodeOverloaded)
	}
	if got := mShed.Value() - shed0; got != 1 {
		t.Errorf("shed counter moved by %d, want 1", got)
	}

	// Once the in-flight job releases its slot, the same request runs.
	<-s.sem
	rec = httptest.NewRecorder()
	s.handleBatch(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(payload)))
	if rec.Code != http.StatusOK || firstItem(t, rec.Body.String()).Error != nil {
		t.Fatalf("after drain: status %d, body %s", rec.Code, rec.Body.String())
	}
}

func TestClientRetriesShedThenSucceeds(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeErr(w, http.StatusTooManyRequests, CodeOverloaded, "busy")
			return
		}
		w.Write(appendBatchItem(nil, &BatchItem{Body: []byte("ok")}))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond, MaxRetryDelay: 5 * time.Millisecond}
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}})
	if err != nil {
		t.Fatalf("submit after two sheds: %v", err)
	}
	if string(results[0].Body) != "ok" || results[0].Attempts != 3 {
		t.Errorf("result = %+v, want body ok after 3 attempts", results[0])
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3 (two 429s then success)", n)
	}
}

func TestClientDoesNotRetryRejections(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeErr(w, http.StatusUnprocessableEntity, CodeRunFailed, "bad deck")
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond}
	_, err := c.SubmitBatch(context.Background(), &BatchRequest{Netlist: "x", Variants: []Variant{{}}})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.StatusCode != http.StatusUnprocessableEntity || se.Code != CodeRunFailed {
		t.Errorf("StatusError = %+v", se)
	}
	if se.Retryable() {
		t.Error("422 should not be retryable")
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1", n)
	}
}

// TestWireVersionAndUnknownFields: bodies written for the retired v1
// wire get typed 400s at /batch, and /run itself answers a typed 410
// naming /batch. The removed "naive", "only_nodes" and "workers" options
// stay rejected as unknown fields: a client still sending one gets a
// typed 400, not a silently ignored knob (a stale node-range coordinator
// would otherwise get a whole all-nodes run back for each of its slices).
func TestWireVersionAndUnknownFields(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name, body, wantCode string
	}{
		{"v1 job", `{"v": 1, "netlist": "x"}`, CodeUnsupportedVersion},
		{"legacy job without a version", `{"netlist": "x"}`, CodeUnsupportedVersion},
		{"v2 without variants", `{"v": 2, "netlist": "x"}`, CodeBadOption},
		{"unknown field", `{"netlist": "x", "bogus_field": 1}`, CodeBadJSON},
		{"removed naive option", `{"v": 1, "netlist": "x", "options": {"naive": true}}`, CodeBadJSON},
		{"removed only_nodes option", `{"v": 1, "netlist": "x", "options": {"only_nodes": ["out"]}}`, CodeBadJSON},
		{"removed workers option", `{"v": 1, "netlist": "x", "options": {"workers": 2}}`, CodeBadJSON},
	} {
		code, _, body := postBatch(t, srv, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, `"code":"`+tc.wantCode+`"`) {
			t.Errorf("%s: status %d, body %q, want 400 %s", tc.name, code, body, tc.wantCode)
		}
	}
	// Every v1 fuzz seed (a body without variants) is rejected, typed.
	for _, seed := range wireSeeds {
		if strings.Contains(seed, "variants") {
			continue
		}
		if req, _, we := DecodeBatchRequest([]byte(seed)); we == nil || req != nil || we.Status/100 != 4 || we.Detail.Code == "" {
			t.Errorf("v1 body %s: got %+v, want a typed 4xx rejection", seed, we)
		}
	}
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		req, _ := http.NewRequest(method, srv.URL+"/run", strings.NewReader(`{"netlist": "x"}`))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusGone || eb.Error.Code != CodeUnsupportedVersion ||
			!strings.Contains(eb.Error.Message, "/batch") {
			t.Errorf("%s /run: status %d, body %+v (%v), want 410 %s naming /batch",
				method, resp.StatusCode, eb, err, CodeUnsupportedVersion)
		}
	}
}

// TestDeadlineExceededSurfacesInMetrics: a job that blows its own
// deadline fails its item with deadline_exceeded (the code whose HTTP
// status is 504), counted once. The item error is final: the client does
// not resubmit a job that would blow its deadline again.
func TestDeadlineExceededSurfacesInMetrics(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	deadline0, _ := promValue(t, getText(t, srv, "/metrics"), "acstab_farm_deadline_exceeded_total")

	c := &Client{BaseURL: srv.URL} // default retries
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{
		Netlist: ladderNetlist(120), TimeoutMS: 1, Variants: []Variant{{}}})
	if err != nil {
		t.Fatal(err)
	}
	var ie *ItemError
	if !errors.As(results[0].Err, &ie) || ie.Detail.Code != CodeDeadlineExceeded {
		t.Fatalf("item err = %v, want %s", results[0].Err, CodeDeadlineExceeded)
	}
	if results[0].Attempts != 1 {
		t.Errorf("attempts = %d, want 1: a blown deadline is not resubmitted", results[0].Attempts)
	}

	deadline1, ok := promValue(t, getText(t, srv, "/metrics"), "acstab_farm_deadline_exceeded_total")
	if !ok || deadline1 != deadline0+1 {
		t.Errorf("deadline_exceeded_total = %g (ok=%v), want %g", deadline1, ok, deadline0+1)
	}

	// The counter also shows in the /statusz overload section.
	var st Statusz
	if err := json.Unmarshal([]byte(getText(t, srv, "/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Overload.DeadlineExceeded < 1 {
		t.Errorf("statusz overload = %+v, want deadline count >= 1", st.Overload)
	}
	if st.Overload.MaxConcurrent < 1 {
		t.Errorf("statusz max_concurrent = %d, want >= 1", st.Overload.MaxConcurrent)
	}
}

// TestClassifyClientDisconnect: a batch whose client has hung up is
// aborted, counted as canceled, and recorded with the canceled outcome
// and the de-facto 499 "client closed request" status on its event.
func TestClassifyClientDisconnect(t *testing.T) {
	var sink bytes.Buffer
	s := &server{cfg: Config{}.withDefaults(), start: time.Now(),
		rec: obs.NewRecorder(4), log: obs.NewEventLogger(&sink)}
	s.sem = make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(oneJob(t, BatchRequest{Netlist: tankNetlist}))).WithContext(ctx)
	cancel0 := mCanceled.Value()
	s.handleBatch(httptest.NewRecorder(), r)
	if mCanceled.Value() != cancel0+1 {
		t.Error("canceled counter did not move")
	}
	if runs := s.rec.List(); len(runs) != 1 || runs[0].Outcome != "canceled" {
		t.Errorf("flight recorder = %+v, want one canceled record", runs)
	}
	evs := decodeEvents(t, &sink, "batch")
	if len(evs) != 1 || evs[0]["outcome"] != "canceled" || evs[0]["status"] != float64(499) {
		t.Errorf("batch events = %v, want one canceled 499", evs)
	}
}

// getText GETs a path and returns the body.
func getText(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
