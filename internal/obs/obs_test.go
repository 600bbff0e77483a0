package obs

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c_total") != c {
		t.Error("second lookup should return the same counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(0.5)
	if v := g.Value(); math.Abs(v-3.0) > 1e-12 {
		t.Fatalf("gauge = %g, want 3", v)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter name should panic")
		}
	}()
	r.Gauge("m")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("h", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.6, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-106.6) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
	// p50 (rank 2.5) falls in the (1,2] bucket.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("p50 = %g, want in (1,2]", q)
	}
	// p99 lands in the overflow bucket, clamped to the last bound.
	if q := h.Quantile(0.99); q != 8 {
		t.Errorf("p99 = %g, want 8", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := newHistogram(nil)
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{path="/run",code="200"}`).Add(3)
	r.Counter(`req_total{path="/healthz",code="200"}`).Add(1)
	r.Gauge("inflight").Set(2)
	h := r.HistogramBuckets(`lat_seconds{path="/run"}`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{path="/run",code="200"} 3`,
		"# TYPE inflight gauge",
		"inflight 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{path="/run",le="0.1"} 1`,
		`lat_seconds_bucket{path="/run",le="1"} 2`,
		`lat_seconds_bucket{path="/run",le="+Inf"} 3`,
		`lat_seconds_sum{path="/run"} 5.55`,
		`lat_seconds_count{path="/run"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE req_total") != 1 {
		t.Error("family header should appear once per family")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.5)
	h := r.HistogramBuckets("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	snap := r.Snapshot()
	if snap["c"].(int64) != 7 {
		t.Errorf("counter snapshot = %v", snap["c"])
	}
	if snap["g"].(float64) != 1.5 {
		t.Errorf("gauge snapshot = %v", snap["g"])
	}
	hs := snap["h"].(HistogramSnapshot)
	if hs.Count != 2 || math.Abs(hs.Sum-5.5) > 1e-12 || hs.Avg != 2.75 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(j) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 8000 {
		t.Errorf("counter = %d", r.Counter("c").Value())
	}
	if r.Histogram("h").Count() != 8000 {
		t.Errorf("histogram count = %d", r.Histogram("h").Count())
	}
	if math.Abs(r.Gauge("g").Value()-8000) > 1e-9 {
		t.Errorf("gauge = %g", r.Gauge("g").Value())
	}
}

func TestMiddleware(t *testing.T) {
	var sink bytes.Buffer
	log := NewEventLogger(&sink)
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			http.Error(w, "no", http.StatusTeapot)
			return
		}
		w.Write([]byte("hello"))
	}), log)
	srv := httptest.NewServer(h)
	defer srv.Close()

	before := GetCounter(`acstab_http_requests_total{path="other",code="200"}`).Value()
	resp, err := srv.Client().Post(srv.URL+"/x", "text/plain", strings.NewReader("body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := GetCounter(`acstab_http_requests_total{path="other",code="200"}`).Value(); got != before+1 {
		t.Errorf("request counter delta = %d, want 1", got-before)
	}
	resp, err = srv.Client().Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := GetCounter(`acstab_http_requests_total{path="other",code="418"}`).Value(); got < 1 {
		t.Error("error status should be counted under its code")
	}
	if GetHistogram(`acstab_http_request_duration_seconds{path="other"}`).Count() < 2 {
		t.Error("latency histogram should have observations")
	}
	events := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(events) != 2 {
		t.Errorf("expected 2 http events, got %d", len(events))
	}
	for _, line := range events {
		if !strings.Contains(line, `"event":"http"`) {
			t.Errorf("http event missing event name: %s", line)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	GetCounter("metrics_handler_test_total").Inc()
	srv := httptest.NewServer(MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "metrics_handler_test_total 1") {
		t.Errorf("exposition missing test counter:\n%s", buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL, nil)
	resp2, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", resp2.StatusCode)
	}
}

func TestKindMismatchPanicMessage(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_metric")
	defer func() {
		got, _ := recover().(string)
		const want = "obs: metric dup_metric already registered as counter"
		if got != want {
			t.Errorf("panic = %q, want %q", got, want)
		}
	}()
	r.Gauge("dup_metric")
}

func TestHistogramQuantileEdges(t *testing.T) {
	// Empty histogram: every quantile is 0.
	h := newHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	// Single observation inside a bucket: q=0 returns the bucket's lower
	// bound, q=1 its upper bound.
	h = newHistogram([]float64{1, 2, 4})
	h.Observe(1.5)
	if got := h.Quantile(0); got != 1 {
		t.Errorf("single-obs Quantile(0) = %g, want 1", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("single-obs Quantile(1) = %g, want 2", got)
	}
	// Values beyond the last bound land in the overflow bucket, which
	// clamps to the last bound (the histogram cannot know how far above).
	h = newHistogram([]float64{1, 2, 4})
	h.Observe(100)
	h.Observe(200)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 4 {
			t.Errorf("overflow Quantile(%g) = %g, want 4", q, got)
		}
	}
}

func TestMiddlewareFlush(t *testing.T) {
	log := NewEventLogger(nil)
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("middleware hides http.Flusher from the wrapped handler")
		}
		w.Write([]byte("chunk"))
		f.Flush()
	}), log)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying ResponseWriter")
	}

	// A non-flushing underlying writer must not panic.
	h = Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush() // no-op
		w.WriteHeader(http.StatusNoContent)
	}), log)
	h.ServeHTTP(noFlushWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, "/x", nil))
}

// noFlushWriter hides ResponseRecorder's Flush method.
type noFlushWriter struct{ rec *httptest.ResponseRecorder }

func (w noFlushWriter) Header() http.Header         { return w.rec.Header() }
func (w noFlushWriter) Write(p []byte) (int, error) { return w.rec.Write(p) }
func (w noFlushWriter) WriteHeader(code int)        { w.rec.WriteHeader(code) }

func TestLabelPath(t *testing.T) {
	cases := map[string]string{
		"/run":                   "/run",
		"/healthz":               "/healthz",
		"/metrics":               "/metrics",
		"/statusz":               "/statusz",
		"/debug/runs":            "/debug/runs",
		"/debug/runs/run-000042": "/debug/runs",
		"/debug/pprof":           "/debug/pprof",
		"/debug/pprof/profile":   "/debug/pprof",
		"/debug/events":          "other",
		"/debug/runsX":           "other",
		"/debug":                 "other",
		"/":                      "other",
		"/run/extra":             "other",
		"/%2e%2e/etc/passwd":     "other",
		"/totally/made/up/route": "other",
	}
	for path, want := range cases {
		if got := labelPath(path); got != want {
			t.Errorf("labelPath(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestTallyMatchesObserve: a flushed Tally leaves a histogram's buckets
// and count exactly where per-value Observe calls leave them, bucket
// bounds and the overflow bucket included; Flush empties the tally, and a
// histogram with more than tallyBuckets buckets cannot hand one out.
func TestTallyMatchesObserve(t *testing.T) {
	bounds := []float64{1e-3, 1e-2, 1e-1, 1, 10}
	vals := []float64{0, 1e-3, 5e-3, 1e-2, 0.5, 1, 2, 10, 11, math.Inf(1), 7}
	one := newHistogram(bounds)
	tallied := newHistogram(bounds)
	tally := tallied.Tally()
	tally.Flush() // empty: a no-op
	for _, v := range vals[:6] {
		one.Observe(v)
		tally.Observe(v)
	}
	tally.Flush()
	for _, v := range vals[6:] {
		one.Observe(v)
		tally.Observe(v)
	}
	tally.Flush()
	tally.Flush()
	for i := range one.counts {
		if g, w := tallied.counts[i].Load(), one.counts[i].Load(); g != w {
			t.Errorf("bucket %d = %d, per-value Observe gives %d", i, g, w)
		}
	}
	if tallied.Count() != one.Count() || tallied.Sum() != one.Sum() {
		t.Errorf("count/sum = %d/%v, per-value Observe gives %d/%v", tallied.Count(), tallied.Sum(), one.Count(), one.Sum())
	}

	defer func() {
		if recover() == nil {
			t.Error("Tally on a histogram wider than tallyBuckets did not panic")
		}
	}()
	newHistogram(make([]float64, tallyBuckets)).Tally()
}
