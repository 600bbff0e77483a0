package farm

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/tool"
)

// compileTank returns a compile closure for the tank fixture with the
// given variable overrides, counting its invocations in calls.
func compileTank(calls *atomic.Int32, vars map[string]float64) func() (*tool.Compiled, error) {
	return func() (*tool.Compiled, error) {
		if calls != nil {
			calls.Add(1)
		}
		ckt, err := netlist.Parse(tankNetlist)
		if err != nil {
			return nil, err
		}
		for k, v := range vars {
			ckt.Params[k] = v
		}
		return tool.Compile(ckt, tool.DefaultOptions())
	}
}

func TestKeyFor(t *testing.T) {
	base := KeyFor(tankNetlist, nil, nil)
	if KeyFor(tankNetlist, nil, nil) != base {
		t.Error("same inputs should produce the same key")
	}
	if KeyFor(tankNetlist, map[string]float64{}, nil) != base {
		t.Error("nil and empty variable maps should key identically")
	}
	if KeyFor(tankNetlist+"\n* comment", nil, nil) == base {
		t.Error("different netlists should produce different keys")
	}
	if KeyFor(tankNetlist, map[string]float64{"rq": 1000}, nil) == base {
		t.Error("a variable override must change the key")
	}
	if KeyFor(tankNetlist, map[string]float64{"rq": 1000}, nil) ==
		KeyFor(tankNetlist, map[string]float64{"rq": 1001}, nil) {
		t.Error("different variable values should produce different keys")
	}
	// The variable separator bytes must keep adjacent name/value pairs
	// from gluing together ambiguously.
	if KeyFor(tankNetlist, map[string]float64{"ab": 1, "c": 2}, nil) ==
		KeyFor(tankNetlist, map[string]float64{"a": 1, "bc": 2}, nil) {
		t.Error("variable name boundaries must be unambiguous")
	}
	// Two-variable maps hash in sorted order regardless of insertion order;
	// build them in both orders and spot-check stability over many rounds
	// (map iteration order is randomized per run).
	want := KeyFor(tankNetlist, map[string]float64{"a": 1, "b": 2}, nil)
	for i := 0; i < 32; i++ {
		m := map[string]float64{"b": 2, "a": 1}
		if KeyFor(tankNetlist, m, nil) != want {
			t.Fatal("key depends on map iteration order")
		}
	}
	// A variant without a temperature keys exactly as before temperatures
	// were part of the key, so a warm worker's entries stay addressable.
	if got := KeyFor(tankNetlist, nil, nil); got != 0x9fdb0e3f802106a0 {
		t.Errorf("KeyFor(tank, nil, nil) = %#x, want the pinned 0x9fdb0e3f802106a0", uint64(got))
	}
	if got := KeyFor(tankNetlist, map[string]float64{"rq": 1000, "cq": 2e-9}, nil); got != 0x84638c7a557b4ccd {
		t.Errorf("KeyFor(tank, rq cq, nil) = %#x, want the pinned 0x84638c7a557b4ccd", uint64(got))
	}
	t27, t85 := 27.0, 85.0
	if KeyFor(tankNetlist, nil, &t27) == base || KeyFor(tankNetlist, nil, &t27) == KeyFor(tankNetlist, nil, &t85) {
		t.Error("a temperature must change the key, and two temperatures must key apart")
	}
	if t85b := 85.0; KeyFor(tankNetlist, nil, &t85b) != KeyFor(tankNetlist, nil, &t85) {
		t.Error("equal temperatures behind different pointers should key identically")
	}
}

// referenceKeyFor is KeyFor through hash/fnv's New64a, as it was written
// before KeyFor hashed in place: KeyFor must give the same keys.
func referenceKeyFor(netlist string, vars map[string]float64, tempC *float64) CacheKey {
	h := fnv.New64a()
	io.WriteString(h, netlist)
	h.Write([]byte{0})
	names := make([]string, 0, len(vars))
	for k := range vars {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf [8]byte
	for _, k := range names {
		io.WriteString(h, k)
		h.Write([]byte{'='})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(vars[k]))
		h.Write(buf[:])
		h.Write([]byte{0})
	}
	if tempC != nil {
		h.Write([]byte{1})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(*tempC))
		h.Write(buf[:])
	}
	return CacheKey(h.Sum64())
}

// TestKeyForMatchesFNV: KeyFor's in-place FNV-1a gives hash/fnv's keys
// for empty and non-ASCII netlists, variables with every byte value in
// their floats, and temperatures.
func TestKeyForMatchesFNV(t *testing.T) {
	t85, tneg := 85.0, math.Copysign(0, -1)
	for _, netlist := range []string{"", tankNetlist, "réseau \xff\x00\x01"} {
		for _, vars := range []map[string]float64{nil, {"rq": 1000}, {"a": math.NaN(), "bc": -math.MaxFloat64, "é": 5e-324}} {
			for _, tempC := range []*float64{nil, &t85, &tneg} {
				if got, want := KeyFor(netlist, vars, tempC), referenceKeyFor(netlist, vars, tempC); got != want {
					t.Errorf("KeyFor(%q, %v, %v) = %#x, hash/fnv gives %#x", netlist, vars, tempC, uint64(got), uint64(want))
				}
			}
		}
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache(2)
	if c.Cap() != 2 {
		t.Fatalf("cap = %d", c.Cap())
	}
	ev0 := mCacheEvictions.Value()
	ctx := context.Background()

	var callsA, callsB, callsC atomic.Int32
	keyA := KeyFor(tankNetlist, nil, nil)
	keyB := KeyFor(tankNetlist, map[string]float64{"rq": 500}, nil)
	keyC := KeyFor(tankNetlist, map[string]float64{"rq": 700}, nil)

	get := func(key CacheKey, calls *atomic.Int32, vars map[string]float64) bool {
		t.Helper()
		_, hit, err := c.Get(ctx, key, compileTank(calls, vars))
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}

	get(keyA, &callsA, nil)                           // miss: [A]
	get(keyB, &callsB, map[string]float64{"rq": 500}) // miss: [B A]
	if !get(keyA, &callsA, nil) {                     // hit, A becomes MRU: [A B]
		t.Error("A should hit")
	}
	get(keyC, &callsC, map[string]float64{"rq": 700}) // miss, evicts B (LRU): [C A]
	if got := mCacheEvictions.Value() - ev0; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if !get(keyA, &callsA, nil) {
		t.Error("A should still be resident after C's insert evicted B")
	}
	if get(keyB, &callsB, map[string]float64{"rq": 500}) { // recompile: B was the one evicted
		t.Error("B should have been evicted")
	}
	if a, b, cc := callsA.Load(), callsB.Load(), callsC.Load(); a != 1 || b != 2 || cc != 1 {
		t.Errorf("compile calls A=%d B=%d C=%d, want 1, 2, 1", a, b, cc)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	key := KeyFor(tankNetlist, nil, nil)
	hits0, miss0 := mCacheHits.Value(), mCacheMisses.Value()

	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	compile := func() (*tool.Compiled, error) {
		calls.Add(1)
		close(started) // only the single compiler reaches this; a second call double-closes and panics
		<-release
		return compileTank(nil, nil)()
	}

	const workers = 8
	var wg sync.WaitGroup
	var hitCount atomic.Int32
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp, hit, err := c.Get(context.Background(), key, compile)
			if err != nil || comp == nil {
				t.Errorf("Get: comp=%v err=%v", comp, err)
				return
			}
			if hit {
				hitCount.Add(1)
			}
		}()
	}
	<-started
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("compile ran %d times, want 1", calls.Load())
	}
	if hitCount.Load() != workers-1 {
		t.Errorf("%d hits, want %d (everyone but the compiler)", hitCount.Load(), workers-1)
	}
	if h, m := mCacheHits.Value()-hits0, mCacheMisses.Value()-miss0; h != workers-1 || m != 1 {
		t.Errorf("counter deltas hits=%d misses=%d, want %d, 1", h, m, workers-1)
	}

	// A waiter whose context is already dead gets its ctx error, not a hang.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	blocked := &cacheEntry{key: 99, ready: make(chan struct{})}
	c.mu.Lock()
	c.byKey[99] = c.ll.PushFront(blocked)
	c.mu.Unlock()
	if _, _, err := c.Get(dead, 99, compileTank(nil, nil)); err != context.Canceled {
		t.Errorf("canceled waiter: err = %v", err)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4)
	key := KeyFor("bogus", nil, nil)
	boom := func() (*tool.Compiled, error) {
		ckt, err := netlist.Parse("broken\nZZ\n")
		if err != nil {
			return nil, err
		}
		return tool.Compile(ckt, tool.DefaultOptions())
	}
	if _, _, err := c.Get(context.Background(), key, boom); err == nil {
		t.Fatal("failing compile should surface its error")
	}
	if c.Len() != 0 {
		t.Fatalf("failed compile left %d cached entries", c.Len())
	}
	// The key is not poisoned: the next Get compiles afresh and succeeds.
	var calls atomic.Int32
	if _, hit, err := c.Get(context.Background(), key, compileTank(&calls, nil)); err != nil || hit {
		t.Fatalf("recovery Get: hit=%v err=%v", hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("recovery compile ran %d times", calls.Load())
	}
}

// TestCacheCompilePanicFreesKey: a compile that panics still releases
// its waiters and frees the key, so the next Get compiles afresh instead
// of waiting on an entry that never becomes ready.
func TestCacheCompilePanicFreesKey(t *testing.T) {
	c := NewCache(4)
	key := KeyFor(tankNetlist, nil, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compile panic did not reach the compiling caller")
			}
		}()
		c.Get(context.Background(), key, func() (*tool.Compiled, error) { panic("compile blew up") })
	}()
	if c.Len() != 0 {
		t.Fatalf("panicked compile left %d cached entries", c.Len())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, hit, err := c.Get(ctx, key, compileTank(nil, nil)); err != nil || hit {
		t.Fatalf("Get after the panic: hit=%v err=%v", hit, err)
	}
}

func TestCacheChecksumInvalidation(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	key := KeyFor(tankNetlist, nil, nil)
	var calls atomic.Int32

	// The default options sweep on the sparse path, so the first sweep
	// builds the symbolic analysis whose checksum the cache validates.
	comp, _, err := c.Get(ctx, key, compileTank(&calls, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Cold entries validate trivially: no sweep has built the symbolic
	// analysis yet, so there is no checksum to compare.
	if _, warm := comp.ACChecksum(); warm {
		t.Fatal("fresh compile should not be warm yet")
	}
	if _, hit, err := c.Get(ctx, key, compileTank(&calls, nil)); err != nil || !hit {
		t.Fatalf("cold revalidation: hit=%v err=%v", hit, err)
	}

	// Warm the symbolic analysis with a real sweep, then hit once so the
	// entry records the observed checksum.
	tl, err := tool.NewFromCompiled(comp, tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.AllNodes(ctx); err != nil {
		t.Fatal(err)
	}
	if _, warm := comp.ACChecksum(); !warm {
		t.Fatal("sweep should have warmed the symbolic analysis")
	}
	if _, hit, err := c.Get(ctx, key, compileTank(&calls, nil)); err != nil || !hit {
		t.Fatalf("warm hit: hit=%v err=%v", hit, err)
	}

	// Tamper with the recorded signature to simulate pattern drift: the
	// next Get must invalidate the entry and recompile transparently.
	inv0, miss0 := mCacheInvalidations.Value(), mCacheMisses.Value()
	c.mu.Lock()
	ent := c.byKey[key].Value.(*cacheEntry)
	if !ent.sigKnown {
		t.Fatal("warm hit should have recorded the checksum")
	}
	ent.sig ^= 0xdeadbeef
	c.mu.Unlock()

	compilesBefore := calls.Load()
	comp2, hit, err := c.Get(ctx, key, compileTank(&calls, nil))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("a drifted entry must not be served as a hit")
	}
	if comp2 == comp {
		t.Error("invalidation should have produced a fresh compile")
	}
	if calls.Load() != compilesBefore+1 {
		t.Errorf("compile calls went %d -> %d, want one recompile", compilesBefore, calls.Load())
	}
	if d := mCacheInvalidations.Value() - inv0; d != 1 {
		t.Errorf("invalidations delta = %d, want 1", d)
	}
	if d := mCacheMisses.Value() - miss0; d != 1 {
		t.Errorf("misses delta = %d, want 1 (the recompile)", d)
	}
}

// TestCacheParamVariantsRevalidate: parameter variants of one netlist are
// distinct entries with one stamp structure. After a default-options
// sweep warms each, every later hit must revalidate as not stale — a
// value change is not pattern drift — and all must share one checksum.
func TestCacheParamVariantsRevalidate(t *testing.T) {
	const variants = 16
	c := NewCache(variants)
	ctx := context.Background()
	inv0 := mCacheInvalidations.Value()
	var sig0 uint64
	for v := 0; v < variants; v++ {
		vars := map[string]float64{"rq": 300 + float64(v)}
		key := KeyFor(tankNetlist, vars, nil)
		var calls atomic.Int32
		comp, hit, err := c.Get(ctx, key, compileTank(&calls, vars))
		if err != nil || hit {
			t.Fatalf("variant %d: first Get hit=%v err=%v", v, hit, err)
		}
		tl, err := tool.NewFromCompiled(comp, tool.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tl.AllNodes(ctx); err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		sig, warm := comp.ACChecksum()
		if !warm {
			t.Fatalf("variant %d: default-path sweep left the entry cold", v)
		}
		if v == 0 {
			sig0 = sig
		} else if sig != sig0 {
			t.Errorf("variant %d: checksum %x, want %x (same structure)", v, sig, sig0)
		}
		// The first warm hit records the checksum, the second checks it.
		for i := 0; i < 2; i++ {
			got, hit, err := c.Get(ctx, key, compileTank(&calls, vars))
			if err != nil || !hit || got != comp {
				t.Fatalf("variant %d hit %d: hit=%v same=%v err=%v", v, i, hit, got == comp, err)
			}
		}
		if calls.Load() != 1 {
			t.Errorf("variant %d compiled %d times, want 1", v, calls.Load())
		}
	}
	if d := mCacheInvalidations.Value() - inv0; d != 0 {
		t.Errorf("invalidations delta = %d, want 0", d)
	}
}

// TestCacheCountersScripted drives the HTTP handler through a scripted
// submission sequence and checks the hit/miss counters move exactly as
// the cache semantics promise.
func TestCacheCountersScripted(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	hits0, miss0 := mCacheHits.Value(), mCacheMisses.Value()
	submit := func(vars string) {
		t.Helper()
		body := `{"v": 2, "variants": [{}], "netlist": ` + mustQuote(tankNetlist) + vars + `}`
		if code, _, resp := postBatch(t, srv, body); code != 200 || firstItem(t, resp).Error != nil {
			t.Fatalf("run: status %d body %q", code, resp)
		}
	}
	submit(``)                           // miss
	submit(``)                           // hit
	submit(`, "variables": {"rq": 500}`) // miss (new key)
	submit(`, "variables": {"rq": 500}`) // hit
	submit(``)                           // hit (original entry still resident)

	if h, m := mCacheHits.Value()-hits0, mCacheMisses.Value()-miss0; h != 3 || m != 2 {
		t.Errorf("counter deltas hits=%d misses=%d, want 3, 2", h, m)
	}
}

// mustQuote JSON-encodes a string for inline request bodies.
func mustQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestWarmResubmissionSkipsCompile is the acceptance criterion for the
// compile cache: re-submitting an identical circuit must skip the
// flatten/MNA-compile/operating-point work entirely — their phase spans
// are absent from the second item's trace — and count a cache hit.
func TestWarmResubmissionSkipsCompile(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	traced := func() *obs.Trace {
		t.Helper()
		req := oneJob(t, BatchRequest{Netlist: tankNetlist, CollectTrace: true})
		code, _, body := postBatch(t, srv, req)
		if code != 200 {
			t.Fatalf("traced run: status %d body %q", code, body)
		}
		it := firstItem(t, body)
		if it.Error != nil || it.Trace == nil {
			t.Fatalf("traced item: error %+v, trace %v", it.Error, it.Trace)
		}
		return it.Trace
	}
	phases := func(tr *obs.Trace) map[string]bool {
		out := map[string]bool{}
		for _, sp := range tr.Phases {
			out[sp.Phase] = true
		}
		return out
	}

	hits0 := mCacheHits.Value()
	cold := phases(traced())
	for _, want := range []string{"parse", "flatten", "mna_assembly", "op", "sweep"} {
		if !cold[want] {
			t.Errorf("cold run trace missing %q span (got %v)", want, cold)
		}
	}
	warm := phases(traced())
	for _, skipped := range []string{"parse", "flatten", "mna_assembly", "op"} {
		if warm[skipped] {
			t.Errorf("warm run still ran %q — the cache did not shortcut compilation (spans %v)", skipped, warm)
		}
	}
	if !warm["sweep"] {
		t.Errorf("warm run trace missing the sweep span (got %v)", warm)
	}
	if d := mCacheHits.Value() - hits0; d < 1 {
		t.Errorf("cache hits delta = %d, want >= 1", d)
	}
}
