package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// StderrEvents is the fallback wide-event sink: JSON events on standard
// error, the conventional destination for daemon logs. Middleware and the
// farm worker use it when no logger is configured.
var StderrEvents = NewEventLogger(os.Stderr)

// reqSeq numbers requests process-wide for the request-ID log field.
var reqSeq atomic.Int64

// statusWriter captures the response code and byte count.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards http.Flusher to the wrapped writer so a streaming handler
// behind the middleware keeps flushing; it is a no-op when the underlying
// writer does not support it. Without this the wrapper would hide the
// Flusher interface and streaming endpoints would silently buffer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.status == 0 {
			w.status = http.StatusOK
		}
		f.Flush()
	}
}

// labelPath normalizes the metric path label: known routes pass through
// (the retired /run stays one, so stale clients show up in the request
// counts), everything else collapses to "other" so hostile or random
// URLs cannot grow the metric space without bound.
func labelPath(p string) string {
	switch {
	case p == "/run", p == "/batch", p == "/healthz", p == "/metrics", p == "/statusz":
		return p
	case p == "/debug/runs" || strings.HasPrefix(p, "/debug/runs/"):
		return "/debug/runs"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	default:
		return "other"
	}
}

// Middleware wraps an HTTP handler with request observability: a request
// counter and latency histogram per (path, status), request/response byte
// counters, an in-flight gauge, and one "http" wide event per request
// carrying a process-unique request ID. Requests to /batch are metered
// but not logged here — that handler emits the single canonical "batch"
// wide event for them, and one request must produce exactly one event. A
// nil log selects StderrEvents.
func Middleware(next http.Handler, log *EventLogger) http.Handler {
	if log == nil {
		log = StderrEvents
	}
	inflight := GetGauge("acstab_http_requests_inflight")
	bytesIn := GetCounter("acstab_http_request_bytes_total")
	bytesOut := GetCounter("acstab_http_response_bytes_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%06d", reqSeq.Add(1))
		start := time.Now()
		inflight.Inc()
		defer inflight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		path := labelPath(r.URL.Path)
		GetCounter(fmt.Sprintf("acstab_http_requests_total{path=%q,code=\"%d\"}", path, sw.status)).Inc()
		GetHistogram(fmt.Sprintf("acstab_http_request_duration_seconds{path=%q}", path)).Observe(dur.Seconds())
		if r.ContentLength > 0 {
			bytesIn.Add(r.ContentLength)
		}
		bytesOut.Add(sw.bytes)
		if path == "/batch" {
			return
		}
		log.Event("http",
			slog.String("req_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes_in", max(r.ContentLength, 0)),
			slog.Int64("bytes_out", sw.bytes),
			slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
			slog.String("remote", r.RemoteAddr))
	})
}

// MetricsHandler serves the Default registry in Prometheus text format
// (GET only).
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default.WritePrometheus(w)
	})
}
