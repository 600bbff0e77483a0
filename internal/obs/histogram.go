package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// defBuckets are the default upper bounds: log-scale from 1µs to 1000s
// with three buckets per decade (1, 2.5, 5 sub-divisions). Stability-run
// phases span microseconds (parsing a tank netlist) to minutes (all-nodes
// sweeps of large transistor circuits), which is exactly what a log grid
// covers with a bounded bucket count.
var defBuckets = func() []float64 {
	var b []float64
	for exp := -6; exp <= 2; exp++ {
		scale := math.Pow(10, float64(exp))
		b = append(b, 1*scale, 2.5*scale, 5*scale)
	}
	return append(b, 1000)
}()

// Histogram is a fixed-bucket histogram with atomic counters. Buckets hold
// upper bounds; one extra overflow bucket catches everything above the
// last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sumU   atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// bucket returns the index of the first bucket whose upper bound is >= v,
// or the overflow bucket. Binary search: bounds are ascending and short,
// but O(log n) keeps large custom bucket sets cheap too.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// addSum adds v to the running sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumU.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumU.CompareAndSwap(old, nv) {
			return
		}
	}
}

// tallyBuckets is the most buckets (bounds plus the overflow bucket) a
// Tally holds: enough for the AC residual histogram's 19 decade bounds,
// the widest one a sweep tallies, at a fixed size so that a tally held
// by value never allocates.
const tallyBuckets = 20

// Tally accumulates one goroutine's observations of a Histogram without
// atomics; Flush publishes them in one step. It buckets by Observe's rule,
// so a flushed tally leaves the bucket counts and the count exactly where
// the same values observed one at a time would. Only the sum can differ,
// in rounding: the tally adds its values up before the histogram's
// running sum takes them. Held by value, a Tally allocates nothing.
type Tally struct {
	h      *Histogram
	counts [tallyBuckets]int64
	n      int64
	sum    float64
}

// Tally returns an empty tally bound to h. It panics when h has more
// than tallyBuckets buckets.
func (h *Histogram) Tally() Tally {
	if len(h.bounds)+1 > tallyBuckets {
		panic(fmt.Sprintf("obs: a %d-bucket histogram exceeds the Tally limit of %d", len(h.bounds)+1, tallyBuckets))
	}
	return Tally{h: h}
}

// Observe records one value locally.
func (t *Tally) Observe(v float64) {
	t.counts[t.h.bucket(v)]++
	t.n++
	t.sum += v
}

// Flush adds the tallied observations to the histogram and empties the
// tally. Flushing an empty tally, bound or not, does nothing.
func (t *Tally) Flush() {
	if t.n == 0 {
		return
	}
	h := t.h
	for i, c := range t.counts[:len(h.bounds)+1] {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(t.n)
	h.addSum(t.sum)
	*t = Tally{h: h}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumU.Load()) }

// Quantile estimates the q-quantile (0..1) from the bucket counts by
// linear interpolation inside the selected bucket. It returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - seen) / n
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is the JSON form of a histogram in Registry.Snapshot
// and /statusz.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Avg   float64 `json:"avg"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func (h *Histogram) snapshotValue() any {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	if s.Count > 0 {
		s.Avg = s.Sum / float64(s.Count)
		s.P50 = h.Quantile(0.50)
		s.P90 = h.Quantile(0.90)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

func (h *Histogram) promType() string { return "histogram" }

// writeProm emits the cumulative `le` bucket series plus _sum and _count,
// merging any labels present in the metric name into the bucket label set.
func (h *Histogram) writeProm(w io.Writer, name string) error {
	family, labels := splitName(name)
	inner := ""
	if labels != "" {
		inner = labels[1:len(labels)-1] + ","
	}
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", family, inner, trimFloat(ub), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, inner, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", family, labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, h.Count())
	return err
}

// trimFloat renders a bucket bound compactly (0.0025, 1, 250).
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
