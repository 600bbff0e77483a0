// cache.go is the worker's content-addressed compile cache — the change
// that turns the worker from a stateless proxy into a service shaped by
// its production traffic. Stability analysis is iterative: designers
// re-submit near-identical netlists (corners, temperature steps, Monte
// Carlo samples, small edits), and without a cache every re-run pays the
// full flatten → MNA compile → symbolic-analysis cost again. Entries are
// keyed by the FNV-1a fingerprint of the netlist text plus the
// design-variable overrides; each holds a tool.Compiled whose shared
// sparse {Pattern, Symbolic} factorization carries the stamp-stream
// checksum from the solver, which the cache re-validates on every warm
// hit — a circuit whose stamping drifted is evicted and recompiled rather
// than served stale. Population is single-flight: concurrent identical
// submissions share one compile, the rest block on its completion.

package farm

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sort"
	"sync"

	"acstab/internal/obs"
	"acstab/internal/tool"
)

// Cache telemetry: hit/miss volume, LRU evictions, checksum-mismatch
// invalidations, and the current entry count.
var (
	mCacheHits          = obs.GetCounter("acstab_cache_hits_total")
	mCacheMisses        = obs.GetCounter("acstab_cache_misses_total")
	mCacheEvictions     = obs.GetCounter("acstab_cache_evictions_total")
	mCacheInvalidations = obs.GetCounter("acstab_cache_invalidations_total")
	mCacheEntries       = obs.GetGauge("acstab_cache_entries")
)

// DefaultCacheEntries is the compiled-system cache capacity when the
// config does not set one.
const DefaultCacheEntries = 64

// CacheKey is the content address of one compiled circuit: the FNV-1a
// hash of the netlist source, the design-variable overrides and the
// temperature override. The overrides are part of the key because
// netlist.Flatten evaluates parameter expressions and temperature
// coefficients — two requests differing only in a variable or the
// temperature produce different compiled systems.
type CacheKey uint64

// KeyFor computes the content address of a (netlist, variables,
// temperature) triple; tempC is nil when the deck's own temperature
// applies. Variables hash in sorted order with separator bytes, so map
// iteration order cannot split one circuit across several cache entries
// and "r=1, q=2" cannot collide with "r=12, q=". A temperature hashes
// after them behind a 0x01 byte, which no parsed design-variable name
// starts with; a nil one adds nothing, so such keys are unchanged.
func KeyFor(netlist string, vars map[string]float64, tempC *float64) CacheKey {
	h := fnv1a(fnvOffset64)
	h.addString(netlist)
	h.addByte(0)
	names := make([]string, 0, len(vars))
	for k := range vars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.addString(k)
		h.addByte('=')
		h.addUint64(math.Float64bits(vars[k]))
		h.addByte(0)
	}
	if tempC != nil {
		h.addByte(1)
		h.addUint64(math.Float64bits(*tempC))
	}
	return CacheKey(h)
}

// fnv1a is a running 64-bit FNV-1a hash, the one hash/fnv's New64a
// computes, fed strings in place instead of through an io.Writer (which
// would copy the netlist to bytes for every key).
type fnv1a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (h *fnv1a) addByte(c byte) {
	*h = (*h ^ fnv1a(c)) * fnvPrime64
}

func (h *fnv1a) addString(s string) {
	for i := 0; i < len(s); i++ {
		h.addByte(s[i])
	}
}

// addUint64 hashes v's eight bytes in little-endian order.
func (h *fnv1a) addUint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.addByte(byte(v >> (8 * i)))
	}
}

// cacheEntry is one compiled circuit, possibly still compiling. ready is
// closed when c/err are final; sig records the sparse stamp-stream
// checksum observed on the first warm hit, which later hits are checked
// against.
type cacheEntry struct {
	key   CacheKey
	ready chan struct{}
	c     *tool.Compiled
	err   error

	// sig is the observed stamp-stream checksum; sigKnown marks whether a
	// warm sweep has recorded it yet (the symbolic analysis is built
	// lazily, on the first sweep, not at compile time).
	sig      uint64
	sigKnown bool
}

// Cache is a bounded LRU of compiled circuits keyed by content address,
// with single-flight population. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[CacheKey]*list.Element
}

// NewCache returns a cache bounded to capacity entries (<=0 selects
// DefaultCacheEntries).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[CacheKey]*list.Element),
	}
}

// Cap returns the configured capacity.
func (c *Cache) Cap() int { return c.cap }

// Len returns the current entry count (including in-flight compiles).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// errCompilePanic is what waiters see when the compile they share panics.
var errCompilePanic = errors.New("farm: compile panicked")

// Get returns the compiled circuit for key, compiling it with compile on
// a miss. Concurrent Gets for the same key share one compile: the first
// caller runs it, the rest block on its completion (or their own ctx).
// The returned bool reports whether this call was served from cache —
// the first compiler and any caller that had to wait for an in-flight
// compile it did not start still counts the latter as a hit, because it
// did not pay for the compile. Failed compiles are not cached; every
// waiter sees the error once and the next Get compiles afresh. A hit
// whose sparse stamp-stream checksum no longer matches the one first
// observed for the entry (pattern drift) invalidates the entry and
// recompiles.
func (c *Cache) Get(ctx context.Context, key CacheKey, compile func() (*tool.Compiled, error)) (*tool.Compiled, bool, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if ent.err != nil {
			// The compiler already removed the entry; report its error
			// without recounting a miss for this caller.
			return nil, false, ent.err
		}
		if stale := c.validate(ent); stale {
			mCacheInvalidations.Inc()
			c.removeEntry(key, ent)
			return c.Get(ctx, key, compile)
		}
		mCacheHits.Inc()
		return ent.c, true, nil
	}

	// Miss: publish the in-flight entry before compiling so concurrent
	// identical requests wait on it instead of compiling again.
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(ent)
	c.byKey[key] = el
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.removeLocked(back)
		mCacheEvictions.Inc()
	}
	mCacheEntries.Set(float64(c.ll.Len()))
	mCacheMisses.Inc()
	c.mu.Unlock()

	// Publish the outcome even when compile panics, so waiters are
	// released and the key freed instead of staying in flight forever.
	comp, err := (*tool.Compiled)(nil), errCompilePanic
	defer func() {
		c.mu.Lock()
		ent.c, ent.err = comp, err
		if err != nil {
			// Do not cache failures: a canceled compile or a transient
			// error must not poison the key for later, healthier requests.
			if cur, ok := c.byKey[key]; ok && cur == el {
				c.removeLocked(cur)
				mCacheEntries.Set(float64(c.ll.Len()))
			}
		}
		c.mu.Unlock()
		close(ent.ready)
	}()
	comp, err = compile()
	if err != nil {
		return nil, false, err
	}
	return comp, false, nil
}

// validate checks a completed entry's stamp-stream checksum against the
// one first observed for it. It returns true when the entry is stale
// (drift: the checksum changed since first observed). A cold entry (no
// sweep has built the symbolic analysis yet) validates trivially.
func (c *Cache) validate(ent *cacheEntry) (stale bool) {
	sig, warm := ent.c.ACChecksum()
	if !warm {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ent.sigKnown {
		ent.sig, ent.sigKnown = sig, true
		return false
	}
	return ent.sig != sig
}

// removeEntry drops the entry for key if it is still the one cached
// there (it may have been evicted, or replaced by a fresh compile).
func (c *Cache) removeEntry(key CacheKey, ent *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok && el.Value.(*cacheEntry) == ent {
		c.removeLocked(el)
		mCacheEntries.Set(float64(c.ll.Len()))
	}
}

// removeLocked unlinks an element; the caller holds the lock. Waiters
// already holding the entry pointer still resolve when its compile
// finishes — eviction only stops new lookups from finding it.
func (c *Cache) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.byKey, el.Value.(*cacheEntry).key)
}

// Stats is the cache occupancy snapshot served in /statusz.
type CacheStats struct {
	// Entries is the current entry count, Capacity the LRU bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Cumulative counter values, mirrored from the acstab_cache_* metrics.
	Hits          int64 `json:"hits_total"`
	Misses        int64 `json:"misses_total"`
	Evictions     int64 `json:"evictions_total"`
	Invalidations int64 `json:"invalidations_total"`
}

// Stats snapshots the cache occupancy and the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:       c.Len(),
		Capacity:      c.cap,
		Hits:          mCacheHits.Value(),
		Misses:        mCacheMisses.Value(),
		Evictions:     mCacheEvictions.Value(),
		Invalidations: mCacheInvalidations.Value(),
	}
}
