package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunTrace(t *testing.T) {
	r := StartRun("test-run")
	sp := r.StartPhase("parse")
	time.Sleep(time.Millisecond)
	sp.End()
	sp = r.StartPhase("sweep")
	time.Sleep(time.Millisecond)
	sp.End()
	r.Add("ac_factorizations", 40)
	r.Add("ac_solves", 400)
	r.Add("noop", 0)
	r.Finish()

	tr := r.Trace()
	if tr.Name != "test-run" {
		t.Errorf("name = %q", tr.Name)
	}
	if len(tr.Phases) != 2 || tr.Phases[0].Phase != "parse" || tr.Phases[1].Phase != "sweep" {
		t.Fatalf("phases = %+v", tr.Phases)
	}
	for _, p := range tr.Phases {
		if p.DurationNS <= 0 {
			t.Errorf("phase %s has non-positive duration", p.Phase)
		}
	}
	if tr.Phases[1].StartNS < tr.Phases[0].StartNS {
		t.Error("span offsets out of order")
	}
	if tr.DurationNS <= 0 {
		t.Error("run duration should be positive")
	}
	if tr.Counters["ac_factorizations"] != 40 || tr.Counters["ac_solves"] != 400 {
		t.Errorf("counters = %v", tr.Counters)
	}
	if _, ok := tr.Counters["noop"]; ok {
		t.Error("zero adds should not create counters")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	r := StartRun("roundtrip")
	sp := r.StartPhase("op")
	sp.End()
	r.Add("newton_iterations", 17)
	r.Finish()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tr Trace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if tr.Name != "roundtrip" || len(tr.Phases) != 1 || tr.Counters["newton_iterations"] != 17 {
		t.Errorf("round-tripped trace = %+v", tr)
	}
}

func TestWriteSummary(t *testing.T) {
	r := StartRun("summary")
	for i := 0; i < 3; i++ {
		sp := r.StartPhase("sweep")
		time.Sleep(200 * time.Microsecond)
		sp.End()
	}
	r.Add("ac_factorizations", 7)
	r.Finish()

	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "run summary:") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "phase sweep") || !strings.Contains(out, "(x3)") {
		t.Errorf("missing aggregated phase row:\n%s", out)
	}
	if !strings.Contains(out, "ac_factorizations") || !strings.Contains(out, "7") {
		t.Errorf("missing counter row:\n%s", out)
	}
}

func TestNilRunSafety(t *testing.T) {
	var r *Run
	r.Finish()
	r.Add("x", 1)
	sp := r.StartPhase("p")
	sp.End()
	var nilSpan *Span
	nilSpan.End()
	if tr := r.Trace(); tr.Name != "" || len(tr.Phases) != 0 {
		t.Errorf("nil run trace = %+v", tr)
	}
	if err := r.WriteSummary(&bytes.Buffer{}); err != nil {
		t.Errorf("nil summary: %v", err)
	}
	// The phase histogram still records even without a run.
	h := GetHistogram(`acstab_phase_duration_seconds{phase="p"}`)
	if h.Count() < 1 {
		t.Error("nil-run span should still feed the registry histogram")
	}
}

func TestSpanCap(t *testing.T) {
	r := StartRun("cap")
	for i := 0; i < maxSpans+10; i++ {
		r.StartPhase("loop").End()
	}
	tr := r.Trace()
	if len(tr.Phases) != maxSpans {
		t.Errorf("spans = %d, want %d", len(tr.Phases), maxSpans)
	}
	if tr.DroppedSpans != 10 {
		t.Errorf("dropped = %d, want 10", tr.DroppedSpans)
	}
}

func TestRunConcurrentSpans(t *testing.T) {
	r := StartRun("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := r.StartPhase("worker")
				sp.End()
				r.Add("items", 1)
			}
		}()
	}
	wg.Wait()
	r.Finish()
	tr := r.Trace()
	if len(tr.Phases) != 400 {
		t.Errorf("phases = %d, want 400", len(tr.Phases))
	}
	if tr.Counters["items"] != 400 {
		t.Errorf("items = %d", tr.Counters["items"])
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	r := StartRun("idem")
	h := GetHistogram(`acstab_phase_duration_seconds{phase="idem_phase"}`)
	before := h.Count()
	sp := r.StartPhase("idem_phase")
	sp.End()
	sp.End() // defensive double-End must not double-count
	if got := h.Count() - before; got != 1 {
		t.Errorf("histogram observed %d times, want 1", got)
	}
	if tr := r.Trace(); len(tr.Phases) != 1 {
		t.Errorf("trace has %d spans, want 1", len(tr.Phases))
	}
}

// TestSpanEndAllocFree: closing an untraced span observes the cached
// per-phase histogram — the same one the registry exposes — without
// building its name or allocating at all.
func TestSpanEndAllocFree(t *testing.T) {
	const runs = 100
	h := GetHistogram(`acstab_phase_duration_seconds{phase="alloc_phase"}`)
	before := h.Count()
	spans := make([]*Span, runs+1) // AllocsPerRun adds one warm-up call
	for i := range spans {
		spans[i] = StartPhase(nil, "alloc_phase")
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		spans[i].End()
		i++
	})
	if allocs != 0 {
		t.Errorf("Span.End allocates %v times per call, want 0", allocs)
	}
	if got := h.Count() - before; got != runs+1 {
		t.Errorf("histogram observed %d spans, want %d", got, runs+1)
	}
}

func TestAddSlowPointsWorstK(t *testing.T) {
	r := StartRun("slow")
	for i := 0; i < 3*MaxSlowPoints; i++ {
		r.AddSlowPoints([]SlowPoint{{FreqHz: float64(i), WallNS: int64(i + 1), Detail: "full"}})
	}
	tr := r.Trace()
	if len(tr.SlowPoints) != MaxSlowPoints {
		t.Fatalf("slow points = %d, want %d", len(tr.SlowPoints), MaxSlowPoints)
	}
	// Worst first, and only the globally worst K survive.
	for i, p := range tr.SlowPoints {
		want := int64(3*MaxSlowPoints - i)
		if p.WallNS != want {
			t.Errorf("slow[%d].WallNS = %d, want %d", i, p.WallNS, want)
		}
	}
	var nilRun *Run
	nilRun.AddSlowPoints([]SlowPoint{{WallNS: 1}}) // must not panic
}

func TestGraftRemote(t *testing.T) {
	r := StartRun("client")
	time.Sleep(time.Millisecond)
	reqStart := time.Now()
	reqDur := 100 * time.Millisecond

	remote := Trace{
		Name:       "farm/run",
		DurationNS: (40 * time.Millisecond).Nanoseconds(),
		Phases: []PhaseSpan{
			{Phase: "op", StartNS: 0, DurationNS: 1e6},
			{Phase: "sweep", StartNS: 2e6, DurationNS: 30e6},
		},
		Counters:     map[string]int64{"ac_solves": 12},
		DroppedSpans: 3,
		SlowPoints:   []SlowPoint{{FreqHz: 1e6, WallNS: 5e6, Detail: "refactor_fallback"}},
	}
	r.GraftRemote(remote, reqStart, reqDur, 2)
	r.Finish()

	tr := r.Trace()
	if len(tr.Phases) != 2 {
		t.Fatalf("phases = %+v", tr.Phases)
	}
	for _, sp := range tr.Phases {
		if sp.Attempt != 2 {
			t.Errorf("span %s attempt = %d, want 2", sp.Phase, sp.Attempt)
		}
		if sp.StartNS < 0 || sp.StartNS+sp.DurationNS > tr.DurationNS+reqDur.Nanoseconds() {
			t.Errorf("span %s [%d, +%d] escapes the plausible window", sp.Phase, sp.StartNS, sp.DurationNS)
		}
	}
	// The remote timeline is anchored inside the request window: the first
	// remote span starts at or after the request start, and the whole
	// remote duration fits before the request end.
	minStart := tr.Phases[0].StartNS
	if minStart < time.Millisecond.Nanoseconds() {
		t.Errorf("grafted span starts at %dns, before the request began", minStart)
	}
	if tr.Counters["ac_solves"] != 12 {
		t.Errorf("counters not merged: %v", tr.Counters)
	}
	if tr.DroppedSpans != 3 {
		t.Errorf("dropped = %d, want 3", tr.DroppedSpans)
	}
	if len(tr.SlowPoints) != 1 || tr.SlowPoints[0].Detail != "refactor_fallback" {
		t.Errorf("slow points not merged: %+v", tr.SlowPoints)
	}

	var nilRun *Run
	nilRun.GraftRemote(remote, reqStart, reqDur, 1) // must not panic
}

func TestGraftRemoteClockSkew(t *testing.T) {
	// A remote trace claiming to be LONGER than the request window (gross
	// clock skew or drift) must still anchor without negative offsets.
	r := StartRun("skew")
	remote := Trace{
		DurationNS: (10 * time.Second).Nanoseconds(),
		Phases:     []PhaseSpan{{Phase: "sweep", StartNS: 0, DurationNS: 9e9}},
	}
	r.GraftRemote(remote, time.Now(), time.Millisecond, 1)
	tr := r.Trace()
	if len(tr.Phases) != 1 || tr.Phases[0].StartNS < 0 {
		t.Errorf("skewed graft = %+v", tr.Phases)
	}
}
