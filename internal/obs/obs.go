// Package obs is the zero-dependency observability layer of the stability
// farm: counters, gauges, and log-scale histograms collected in a registry
// with Prometheus text exposition and a JSON snapshot, plus a run-trace
// API (StartRun / StartPhase) that times the phases of a stability run
// (parse, MNA assembly, operating point, sweep, stability post-processing,
// loop clustering) for the CLI's -stats/-trace-json flags and the farm
// worker's /statusz endpoint.
//
// Metric names follow the Prometheus convention and may carry a literal
// label set, e.g. `acstab_phase_duration_seconds{phase="sweep"}`; the
// registry treats the full string as the metric identity and groups
// metrics of one family under a single # TYPE header on exposition.
//
// Everything is safe for concurrent use. Hot-path cost is one atomic add
// per event; metric lookup (the mutex-protected map) is meant for
// package-level vars, not per-event calls.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add offsets the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metric is anything the registry can expose.
type metric interface {
	// writeProm writes the exposition lines for the full metric name.
	writeProm(w io.Writer, name string) error
	// promType is the # TYPE keyword.
	promType() string
	// snapshotValue is the JSON value reported by Registry.Snapshot.
	snapshotValue() any
}

func (c *Counter) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
	return err
}
func (c *Counter) promType() string   { return "counter" }
func (c *Counter) snapshotValue() any { return c.Value() }

func (g *Gauge) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %g\n", name, g.Value())
	return err
}
func (g *Gauge) promType() string   { return "gauge" }
func (g *Gauge) snapshotValue() any { return g.Value() }

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. Most code uses the package-level Default registry through
// GetCounter / GetGauge / GetHistogram.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// Default is the process-wide registry every instrumented package reports
// into; acstabd exposes it at /metrics and /statusz.
var Default = NewRegistry()

// getOrCreate returns the metric registered under name, creating it with
// mk on first use. A name already registered as a different kind panics
// with a message naming the existing kind: that is a programming error,
// not a runtime condition, and the opaque alternative (a failed type
// assertion at the call site) hides which registration collided.
func (r *Registry) getOrCreate(name, kind string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.promType() != kind {
			panic("obs: metric " + name + " already registered as " + m.promType())
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	return r.getOrCreate(name, "counter", func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.getOrCreate(name, "gauge", func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it with
// the default log-scale duration buckets (1µs .. 1000s) on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets returns the histogram registered under name, creating
// it with the given upper bounds (ascending) on first use; nil bounds
// select the default duration buckets.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	return r.getOrCreate(name, "histogram", func() metric { return newHistogram(bounds) }).(*Histogram)
}

// GetCounter returns a counter from the Default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetGauge returns a gauge from the Default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// GetHistogram returns a histogram from the Default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// splitName separates a full metric name into its family and label part:
// `x_total{path="/run"}` -> (`x_total`, `{path="/run"}`).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format, sorted by name, with one # TYPE header per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make(map[string]metric, len(r.metrics))
	for name, m := range r.metrics {
		ms[name] = m
	}
	r.mu.Unlock()

	sort.Strings(names)
	lastFamily := ""
	for _, name := range names {
		m := ms[name]
		family, _ := splitName(name)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, m.promType()); err != nil {
				return err
			}
			lastFamily = family
		}
		if err := m.writeProm(w, name); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns every metric as a JSON-friendly value keyed by full
// metric name: counters as int64, gauges as float64, histograms as
// HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		out[name] = m.snapshotValue()
	}
	return out
}
