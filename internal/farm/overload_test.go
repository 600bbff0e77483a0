package farm

import (
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
	payload, _ := json.Marshal(&Request{V: 1, Netlist: tankNetlist})
	rec := httptest.NewRecorder()
	s.handleRun(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(string(payload))))
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
	s.handleRun(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(string(payload))))
	if rec.Code != http.StatusOK {
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
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond, MaxRetryDelay: 5 * time.Millisecond}
	body, err := c.Submit(context.Background(), &Request{Netlist: tankNetlist})
	if err != nil {
		t.Fatalf("submit after two sheds: %v", err)
	}
	if string(body) != "ok" {
		t.Errorf("body = %q", body)
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
	_, err := c.Submit(context.Background(), &Request{Netlist: "x"})
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

// TestWireVersionAndUnknownFields is the v1 DecodeRequest rejection
// table. The removed "naive", "only_nodes" and "workers" options stay
// rejected as unknown fields: a client still sending one gets a typed 400,
// not a silently ignored knob (a stale node-range coordinator would
// otherwise get a whole all-nodes run back for each of its slices).
func TestWireVersionAndUnknownFields(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name, body, wantCode string
	}{
		{"future version", `{"v": 2, "netlist": "x"}`, CodeUnsupportedVersion},
		{"unknown field", `{"netlist": "x", "bogus_field": 1}`, CodeBadJSON},
		{"removed naive option", `{"v": 1, "netlist": "x", "options": {"naive": true}}`, CodeBadJSON},
		{"removed only_nodes option", `{"v": 1, "netlist": "x", "options": {"only_nodes": ["out"]}}`, CodeBadJSON},
		{"removed workers option", `{"v": 1, "netlist": "x", "options": {"workers": 2}}`, CodeBadJSON},
	} {
		code, body := postJSON(t, srv, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, `"code":"`+tc.wantCode+`"`) {
			t.Errorf("%s: status %d, body %q, want 400 %s", tc.name, code, body, tc.wantCode)
		}
	}
}

func TestDeadlineExceededSurfacesInMetrics(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	deadline0, _ := promValue(t, getText(t, srv, "/metrics"), "acstab_farm_deadline_exceeded_total")

	// MaxRetries < 0 disables retries: a job that blew its own deadline
	// would blow it again.
	c := &Client{BaseURL: srv.URL, MaxRetries: -1}
	_, err := c.Submit(context.Background(), &Request{Netlist: ladderNetlist(120), TimeoutMS: 1})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.StatusCode != http.StatusGatewayTimeout || se.Code != CodeDeadlineExceeded {
		t.Fatalf("StatusError = %+v, want 504 %s", se, CodeDeadlineExceeded)
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

func TestClassifyClientDisconnect(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/run", nil).WithContext(ctx)
	cancel0 := mCanceled.Value()
	status, code := classifyRunError(r, fmt.Errorf("wrap: %w", context.Canceled))
	if status != 499 || code != CodeClientClosed {
		t.Errorf("classify = %d %s, want 499 %s", status, code, CodeClientClosed)
	}
	if mCanceled.Value() != cancel0+1 {
		t.Error("canceled counter did not move")
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
