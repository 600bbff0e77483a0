package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"acstab/internal/tool"
)

// postBatch posts a raw body to /batch and returns status, content type,
// and body text.
func postBatch(t *testing.T, srv *httptest.Server, body string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

// decodeItems parses an NDJSON batch response body.
func decodeItems(t *testing.T, body string) []BatchItem {
	t.Helper()
	var items []BatchItem
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var it BatchItem
		if err := dec.Decode(&it); err != nil {
			t.Fatalf("bad NDJSON line: %v\nbody:\n%s", err, body)
		}
		items = append(items, it)
	}
	return items
}

func TestBatchEndpointStreamsItemsInOrder(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	req, _ := json.Marshal(&BatchRequest{
		V:       WireV2,
		Netlist: tankNetlist,
		Node:    "t",
		Variants: []Variant{
			{Label: "nom"},
			{Label: "hi_r", Variables: map[string]float64{"rq": 1000}},
			{Label: "nom_again"},
		},
	})
	code, ct, body := postBatch(t, srv, string(req))
	if code != http.StatusOK {
		t.Fatalf("status %d body %q", code, body)
	}
	if ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	items := decodeItems(t, body)
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3:\n%s", len(items), body)
	}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d has index %d — answers must stream in submission order", i, it.Index)
		}
		if it.Error != nil {
			t.Errorf("item %d failed: %+v", i, it.Error)
		}
		if len(it.Body) == 0 || it.ContentType != "application/json" {
			t.Errorf("item %d: body %d bytes, content type %q", i, len(it.Body), it.ContentType)
		}
		if it.DurationMS <= 0 {
			t.Errorf("item %d: duration %g", i, it.DurationMS)
		}
	}
	if items[0].Label != "nom" || items[1].Label != "hi_r" || items[2].Label != "nom_again" {
		t.Errorf("labels not echoed: %q %q %q", items[0].Label, items[1].Label, items[2].Label)
	}
	// nom and nom_again share a content address; the third item must have
	// been served from the compile cache.
	if !items[2].CacheHit {
		t.Error("repeated variant should be a cache hit")
	}
	// The two distinct corners really produced different answers.
	if bytes.Equal(items[0].Body, items[1].Body) {
		t.Error("variant variables had no effect on the result")
	}
	if !bytes.Equal(items[0].Body, items[2].Body) {
		t.Error("identical variants should produce identical results")
	}
}

func TestBatchItemErrorDoesNotFailBatch(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	req, _ := json.Marshal(&BatchRequest{
		V:       WireV2,
		Netlist: tankNetlist,
		Variants: []Variant{
			{Label: "bad", Variables: map[string]float64{"nosuch": 1}},
			{Label: "good"},
		},
	})
	code, _, body := postBatch(t, srv, string(req))
	if code != http.StatusOK {
		t.Fatalf("status %d body %q", code, body)
	}
	items := decodeItems(t, body)
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2:\n%s", len(items), body)
	}
	bad := items[0]
	if bad.Error == nil || bad.Error.Code != CodeRunFailed ||
		!strings.Contains(bad.Error.Message, "unknown design variable") {
		t.Errorf("bad corner error = %+v", bad.Error)
	}
	if len(bad.Body) != 0 {
		t.Errorf("failed item carries a body: %q", bad.Body)
	}
	good := items[1]
	if good.Error != nil || len(good.Body) == 0 {
		t.Errorf("good corner after a failed one: err=%+v body=%d bytes", good.Error, len(good.Body))
	}
}

func TestBatchDecodeRejections(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	// GET is not allowed.
	resp, err := srv.Client().Get(srv.URL + "/batch")
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	for _, tc := range []struct {
		name, body, wantCode, wantField string
	}{
		{"malformed JSON", `{nope`, CodeBadJSON, ""},
		{"v1 on the batch endpoint",
			`{"v": 1, "netlist": "x", "variants": [{}]}`, CodeUnsupportedVersion, ""},
		{"missing version",
			`{"netlist": "x", "variants": [{}]}`, CodeUnsupportedVersion, ""},
		{"no variants",
			`{"v": 2, "netlist": "x", "variants": []}`, CodeBadOption, "variants"},
		{"bad frequency range",
			`{"v": 2, "netlist": "x", "variants": [{}], "options": {"fstart_hz": 10, "fstop_hz": 1}}`,
			CodeBadOption, "fstop_hz"},
		{"unknown format",
			`{"v": 2, "netlist": "x", "format": "yaml", "variants": [{}]}`, CodeBadOption, "format"},
		{"unknown field",
			`{"v": 2, "netlist": "x", "variants": [{}], "bogus": 1}`, CodeBadJSON, ""},
		{"removed only_nodes option",
			`{"v": 2, "netlist": "x", "variants": [{}], "options": {"only_nodes": ["out"]}}`, CodeBadJSON, ""},
		{"removed workers option",
			`{"v": 2, "netlist": "x", "variants": [{}], "options": {"workers": 2}}`, CodeBadJSON, ""},
	} {
		code, _, body := postBatch(t, srv, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d body %q", tc.name, code, body)
			continue
		}
		if !strings.Contains(body, `"code":"`+tc.wantCode+`"`) {
			t.Errorf("%s: want code %s, body %q", tc.name, tc.wantCode, body)
		}
		if tc.wantField != "" && !strings.Contains(body, `"field":"`+tc.wantField+`"`) {
			t.Errorf("%s: want field %s, body %q", tc.name, tc.wantField, body)
		}
	}
}

func TestSubmitBatch(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{
		Netlist: tankNetlist,
		Node:    "t",
		Variants: []Variant{
			{Label: "a"},
			{Label: "b", Variables: map[string]float64{"rq": 1000}},
			{Label: "a2"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Index != i || res.Err != nil || len(res.Body) == 0 || res.Attempts != 1 {
			t.Errorf("result %d: %+v", i, res)
		}
	}
	if !results[2].CacheHit {
		t.Error("repeated variant should report a cache hit")
	}

	// A typed per-item error lands in that result's Err without failing
	// the batch call.
	results, err = c.SubmitBatch(context.Background(), &BatchRequest{
		Netlist: tankNetlist,
		Variants: []Variant{
			{Label: "bad", Variables: map[string]float64{"nosuch": 1}},
			{Label: "good"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ie *ItemError
	if !errors.As(results[0].Err, &ie) || ie.Detail.Code != CodeRunFailed {
		t.Errorf("bad corner: err = %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("good corner: err = %v", results[1].Err)
	}
}

// TestSubmitBatchRetriesTruncatedStream simulates a worker that dies
// mid-batch: the first attempt answers only variant 0 and then ends the
// stream. SubmitBatch must re-submit only the unanswered variants, remap
// their indexes, and track per-item attempt counts.
func TestSubmitBatchRetriesTruncatedStream(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("server decode: %v", err)
			http.Error(w, "bad", http.StatusBadRequest)
			return
		}
		if req.V != WireV2 {
			t.Errorf("wire version %d on the wire, want %d", req.V, WireV2)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		if attempts.Add(1) == 1 {
			// First attempt: 3 variants arrive, only the first is answered.
			if len(req.Variants) != 3 {
				t.Errorf("first attempt carries %d variants, want 3", len(req.Variants))
			}
			enc.Encode(BatchItem{Index: 0, Label: req.Variants[0].Label, Body: []byte("first")})
			return // clean end with variants unanswered = truncated batch
		}
		// Retry: only the unanswered variants are re-submitted, re-indexed
		// from zero within the retry request.
		if len(req.Variants) != 2 {
			t.Errorf("retry carries %d variants, want 2", len(req.Variants))
		}
		for i, v := range req.Variants {
			enc.Encode(BatchItem{Index: i, Label: v.Label, Body: []byte(v.Label)})
		}
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond, MaxRetryDelay: 2 * time.Millisecond}
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{
		Netlist:  "n",
		Variants: []Variant{{Label: "a"}, {Label: "b"}, {Label: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", attempts.Load())
	}
	wantBody := []string{"first", "b", "c"}
	wantAttempts := []int{1, 2, 2}
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("result %d: %v", i, res.Err)
		}
		if string(res.Body) != wantBody[i] {
			t.Errorf("result %d body %q, want %q — retry index remapping is broken", i, res.Body, wantBody[i])
		}
		if res.Attempts != wantAttempts[i] {
			t.Errorf("result %d attempts %d, want %d", i, res.Attempts, wantAttempts[i])
		}
	}
}

// TestSubmitBatchGivesUp: a worker that never answers exhausts the retry
// budget; unanswered results carry the batch-level error.
func TestSubmitBatchGivesUp(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		// 200 with an empty stream: every variant unanswered.
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, MaxRetries: 1, RetryBaseDelay: time.Millisecond, MaxRetryDelay: time.Millisecond}
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{
		Netlist:  "n",
		Variants: []Variant{{Label: "a"}},
	})
	if err == nil || !strings.Contains(err.Error(), "unanswered") {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 2 {
		t.Errorf("server saw %d attempts, want 2 (initial + 1 retry)", attempts.Load())
	}
	if results[0].Err == nil {
		t.Error("unanswered variant should carry the batch-level error")
	}
}

func TestRunBatchLocal(t *testing.T) {
	cache := NewCache(0)
	req := &BatchRequest{
		Netlist: tankNetlist,
		Node:    "t",
		Variants: []Variant{
			{Label: "nom"},
			{Label: "nom2"},
		},
	}
	opts, err := tool.DefaultOptions().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var got []BatchItem
	if err := RunBatch(context.Background(), cache, req, opts, 0, nil, func(it BatchItem) {
		got = append(got, it)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].CacheHit || !got[1].CacheHit {
		t.Fatalf("items %+v", got)
	}

	// A dead context aborts the loop with the context error instead of
	// reporting it as a per-item failure.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunBatch(ctx, cache, req, opts, 0, nil, func(BatchItem) {
		t.Error("emit called after cancellation")
	}); err != context.Canceled {
		t.Fatalf("canceled RunBatch: %v", err)
	}
}

// TestTempVariantsKeepOwnCacheEntries: two variants differing only in
// temp_c compile apart (the temperature is part of the cache key) and
// report their own temperatures, a repeated temperature hits, and a
// variant without temp_c runs at the deck's own temperature.
func TestTempVariantsKeepOwnCacheEntries(t *testing.T) {
	t27, t85 := 27.0, 85.0
	req := &BatchRequest{
		Netlist: "tempco tank\nR1 t 0 318 tc1=2m\nL1 t 0 25.33u\nC1 t 0 1n\n",
		Format:  "json",
		Variants: []Variant{
			{Label: "cold", TempC: &t27},
			{Label: "hot", TempC: &t85},
			{Label: "hot again", TempC: &t85},
			{Label: "deck"},
		},
	}
	opts, err := tool.DefaultOptions().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var got []BatchItem
	if err := RunBatch(context.Background(), NewCache(0), req, opts, 0, nil, func(it BatchItem) {
		got = append(got, it)
	}); err != nil {
		t.Fatal(err)
	}
	for i, wantHit := range []bool{false, false, true, false} {
		if got[i].Error != nil || got[i].CacheHit != wantHit {
			t.Fatalf("item %d (%s): cache hit %v, error %v; want hit %v", i, got[i].Label, got[i].CacheHit, got[i].Error, wantHit)
		}
	}
	if !strings.Contains(string(got[0].Body), `"temp_c": 27`) || !strings.Contains(string(got[1].Body), `"temp_c": 85`) {
		t.Errorf("reports do not carry their temperatures:\n%s\n%s", got[0].Body, got[1].Body)
	}
	if string(got[1].Body) == string(got[0].Body) {
		t.Error("the 85 C variant reported the 27 C analysis")
	}
	if string(got[3].Body) != string(got[0].Body) {
		t.Errorf("the variant without temp_c differs from the deck's 27 C:\n%s\nvs\n%s", got[3].Body, got[0].Body)
	}
}
