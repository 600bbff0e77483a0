package farm

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"acstab/internal/obs"
	"acstab/internal/tool"
)

// TestJobPanicFailsRun: a panic inside a farm job — here a corrupt
// compiled artifact served from the cache — fails that one-variant
// batch's item with run_failed, the panic value and the stack, finishes
// its flight-recorder record instead of leaving it running, and leaves
// the worker serving. In a longer batch the item that panics fails alone
// with the same code.
func TestJobPanicFailsRun(t *testing.T) {
	s := &server{cfg: Config{}.withDefaults(), start: time.Now(),
		rec: obs.NewRecorder(4), log: obs.NewEventLogger(io.Discard), cache: NewCache(4)}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	corrupt := func() (*tool.Compiled, error) { return &tool.Compiled{}, nil }
	if _, _, err := s.cache.Get(context.Background(), KeyFor(tankNetlist, nil, nil), corrupt); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.handleBatch(rec, httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(oneJob(t, BatchRequest{Netlist: tankNetlist}))))
	it := firstItem(t, rec.Body.String())
	if rec.Code != http.StatusOK || it.Error == nil || it.Error.Code != CodeRunFailed {
		t.Fatalf("status %d item error %+v, want 200 with a %s item", rec.Code, it.Error, CodeRunFailed)
	}
	if msg := it.Error.Message; !strings.Contains(msg, "job panic: runtime error") || !strings.Contains(msg, "goroutine ") {
		t.Errorf("message %q, want the panic value and its stack", msg)
	}

	rec = httptest.NewRecorder()
	s.handleDebugRuns(rec, httptest.NewRequest(http.MethodGet, "/debug/runs", nil))
	var list struct {
		Runs []obs.RunSummary `json:"runs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].Running || list.Runs[0].Outcome != CodeRunFailed {
		t.Errorf("flight recorder = %+v, want one finished run_failed record", list.Runs)
	}

	var items []BatchItem
	err := RunBatch(context.Background(), s.cache, &BatchRequest{V: WireV2, Netlist: tankNetlist,
		Variants: []Variant{{Label: "corrupt"}, {Label: "fresh", Variables: map[string]float64{"rq": 1000}}}},
		tool.DefaultOptions(), 0, nil, func(it BatchItem) { items = append(items, it) })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Error == nil || items[0].Error.Code != CodeRunFailed {
		t.Fatalf("items = %+v, want the corrupt variant failed with %s", items, CodeRunFailed)
	}
	if items[1].Error != nil {
		t.Errorf("the healthy variant after the panic failed: %+v", items[1].Error)
	}
}
