package farm

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/netlist"
	"acstab/internal/report"
	"acstab/internal/tool"
)

// table2Decks returns the Table 2 deck and a second deck of the same
// node count, Miller capacitor C1 cut from 8 to 2 pF.
func table2Decks() (a, b string) {
	c := circuits.FullCircuit()
	a = netlist.Format(c)
	c.Element("C1").Value = 2e-12
	return a, netlist.Format(c)
}

// runItems runs req through RunBatch and returns a copy of each item's
// body, which RunBatch lends only until emit returns, failing on any
// item error.
func runItems(t *testing.T, cache *Cache, req *BatchRequest, opts tool.Options) [][]byte {
	t.Helper()
	var bodies [][]byte
	if err := RunBatch(context.Background(), cache, req, opts, 0, nil, func(it BatchItem) {
		if it.Error != nil {
			t.Errorf("item %d: %s", it.Index, it.Error.Message)
		}
		bodies = append(bodies, bytes.Clone(it.Body))
	}); err != nil {
		t.Fatal(err)
	}
	return bodies
}

// TestWarmBatchesRecycleColumns: a batch item releases its report's
// impedance columns and run store once rendered, and the next item of
// the same node count and grid sweeps into those columns and writes its
// report over that store; forks of one cached circuit share one numeric
// workspace and its sweep scratch. Warm batches that alternate two such
// decks, so every item sweeps into the columns the other deck's item
// left, and two
// concurrent batches on one cached circuit, one of which loses the
// workspace hand-off whenever both sweep at once, give the bodies of
// batches compiled from scratch, byte for byte. A released report keeps
// nothing: no node and no loop. Released twice, it puts its run store back
// once, so two later reports never share one; they report the bytes of
// the run before the release.
func TestWarmBatchesRecycleColumns(t *testing.T) {
	a, b := table2Decks()
	opts, err := tool.DefaultOptions().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	adaptive := opts
	adaptive.CoarsePointsPerDecade = 10
	if adaptive, err = adaptive.Resolve(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts tool.Options
	}{{"default", opts}, {"adaptive", adaptive}} {
		batch := func(deck string) *BatchRequest {
			return &BatchRequest{Netlist: deck, Format: "json", Options: mode.opts,
				Variants: []Variant{{Label: "v0"}, {Label: "v1"}}}
		}
		want := map[string][]byte{}
		for _, deck := range []string{a, b} {
			want[deck] = runItems(t, nil, batch(deck), mode.opts)[0]
		}
		if string(want[a]) == string(want[b]) {
			t.Fatalf("%s: the two decks report the same bytes; the test cannot tell them apart", mode.name)
		}

		cache := NewCache(0)
		for round := 0; round < 4; round++ {
			for _, deck := range []string{a, b} {
				for i, body := range runItems(t, cache, batch(deck), mode.opts) {
					if string(body) != string(want[deck]) {
						t.Fatalf("%s: round %d item %d differs from the cacheless batch", mode.name, round, i)
					}
				}
			}
		}

		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					for i, body := range runItems(t, cache, batch(a), mode.opts) {
						if string(body) != string(want[a]) {
							t.Errorf("%s: concurrent round %d item %d differs from the cacheless batch", mode.name, round, i)
						}
					}
				}
			}()
		}
		wg.Wait()
	}

	ckt, err := netlist.Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tool.New(ckt, tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := tl.AllNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.AppendJSON(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	if rep.Nodes != nil || rep.Loops != nil {
		t.Errorf("a released report keeps %d nodes and %d loops, want none", len(rep.Nodes), len(rep.Loops))
	}
	// A second Release must not put the run store back again: two later
	// runs would then write into one store.
	rep.Release()
	r1, err := tl.AllNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tl.AllNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	k := slices.IndexFunc(r1.Nodes, func(nr tool.NodeResult) bool { return nr.Stab != nil })
	if &r1.Nodes[0] == &r2.Nodes[0] || k < 0 || r1.Nodes[k].Stab == r2.Nodes[k].Stab ||
		&r1.Loops[0] == &r2.Loops[0] || &r1.Loops[0].Nodes[0] == &r2.Loops[0].Nodes[0] {
		t.Error("two unreleased reports share a run store")
	}
	for i, r := range []*tool.Report{r1, r2} {
		got, err := report.AppendJSON(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("run %d after the release reports other bytes than the run before it", i+1)
		}
	}
}

// TestWarmItemAllocsFlat: a warm batch item sweeps into the columns the
// item before it released, so what it allocates does not grow with the
// grid. A cache-hit Table 2 item at 320 points per decade (1921 points,
// 16 nodes: 480 KiB of columns) allocates at most 16 KiB more than one at
// 40 points per decade (241 points). Without recycling the columns alone
// grow by 420 KiB. The column pool is per P, so the measurement runs at
// GOMAXPROCS 1, where consecutive items always meet the same pool, and
// not under -race, whose pools drop entries at random. Each item renders
// into one lent buffer, as RunBatch's items do.
func TestWarmItemAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	deck, _ := table2Decks()
	req := &BatchRequest{Netlist: deck, Variants: []Variant{{}}}
	cache := NewCache(0)
	var buf []byte
	perItem := func(ppd int) float64 {
		o := tool.DefaultOptions()
		o.PointsPerDecade = ppd
		opts, err := o.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		item := func() {
			body, _, _, err := runCached(context.Background(), cache, req, nil, nil, opts, nil, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			buf = body
		}
		for i := 0; i < 3; i++ {
			item()
		}
		const n = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			item()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / n
	}
	coarse, fine := perItem(40), perItem(320)
	t.Logf("warm Table 2 item: %.1f KiB at 40 points per decade, %.1f KiB at 320", coarse/1024, fine/1024)
	if fine > coarse+16<<10 {
		t.Errorf("a warm item at 320 points per decade allocates %.1f KiB, more than %.1f KiB at 40 plus 16 KiB", fine/1024, coarse/1024)
	}
}

// warmJSONItemAllocs runs a 16-variant Table 2 JSON batch cold, then
// again warm, and returns what each warm cache-hit item allocated on
// average (bytes and allocations) and the length of its body. Measured
// at GOMAXPROCS 1, where consecutive items meet the same per-P pools.
func warmJSONItemAllocs(t *testing.T) (bytesPer, allocsPer float64, bodyLen int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	deck, _ := table2Decks()
	opts, err := tool.DefaultOptions().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	req := &BatchRequest{Netlist: deck, Format: "json", Options: opts, Variants: make([]Variant, n)}
	cache := NewCache(0)
	batch := func(warm bool) {
		if err := RunBatch(context.Background(), cache, req, opts, 0, nil, func(it BatchItem) {
			if it.Error != nil || (warm && !it.CacheHit) {
				t.Fatalf("item %d: cache hit %v, error %v", it.Index, it.CacheHit, it.Error)
			}
			bodyLen = len(it.Body)
		}); err != nil {
			t.Fatal(err)
		}
	}
	batch(false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batch(true)
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / n, float64(m1.Mallocs-m0.Mallocs) / n, bodyLen
}

// TestWarmJSONItemAllocsUnderBody: RunBatch lends every item of a batch
// one render buffer, so a warm cache-hit JSON item allocates fewer bytes
// on the worker than the report it renders. Without the lend each item
// allocated at least its whole body. Not measured under -race.
func TestWarmJSONItemAllocsUnderBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	perItem, _, bodyLen := warmJSONItemAllocs(t)
	t.Logf("warm Table 2 JSON item: %.1f KiB allocated, %.1f KiB body", perItem/1024, float64(bodyLen)/1024)
	if perItem >= float64(bodyLen) {
		t.Errorf("a warm JSON item allocates %.1f KiB, not less than its %.1f KiB body", perItem/1024, float64(bodyLen)/1024)
	}
}

// TestWarmJSONItemAllocsPinned pins what a warm cache-hit Table 2 JSON
// item allocates on the worker once its columns, render buffer, run
// store and sweep scratch are recycled: at most 4 KiB in 25 allocations,
// where 0.70 KiB in 4 allocations was measured (GOMAXPROCS 1, the run
// store owning the columns). Not measured under -race.
func TestWarmJSONItemAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	bytesPer, allocsPer, _ := warmJSONItemAllocs(t)
	t.Logf("warm Table 2 JSON item: %.2f KiB in %.1f allocations", bytesPer/1024, allocsPer)
	if bytesPer > 4<<10 || allocsPer > 25 {
		t.Errorf("a warm JSON item allocates %.2f KiB in %.1f allocations, want at most 4 KiB in 25", bytesPer/1024, allocsPer)
	}
}

// TestReleasedRunAllocs pins what an all-nodes run allocates on the
// storage the run before it released: the Report and the Analyzer, and
// nothing per node or per point. The columns, the nodes, their waves,
// results and peaks, the loops and the sweep's scratch are all written
// over. Measured at GOMAXPROCS 1 and not under -race, like
// TestWarmItemAllocsFlat.
func TestReleasedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	deck, _ := table2Decks()
	ckt, err := netlist.Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tool.New(ckt, tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		rep, err := tl.AllNodes(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	})
	if got > 2 {
		t.Errorf("an all-nodes run on released storage allocated %v times, want at most 2 (Report, Analyzer)", got)
	}
}

// TestInterleavedSingleNodeKeepsColumns: a sweep of another shape between
// two all-nodes runs, here a single-node run, leaves the columns of the
// released run store to the next all-nodes run. A cycle of an all-nodes
// run, its Release and a single-node run on Table 2 allocates at most
// 16 KiB; the all-nodes run's columns alone are 60 KiB (16 nodes x 241
// points). Measured at GOMAXPROCS 1 and not under -race, like
// TestReleasedRunAllocs.
func TestInterleavedSingleNodeKeepsColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	deck, _ := table2Decks()
	ckt, err := netlist.Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tool.New(ckt, tool.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cycle := func() {
		rep, err := tl.AllNodes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		node := rep.Nodes[0].Node
		rep.Release()
		if _, err := tl.SingleNode(ctx, node); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	const n = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	perCycle := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("all-nodes run, Release and single-node run: %.1f KiB per cycle", perCycle/1024)
	if perCycle > 16<<10 {
		t.Errorf("a cycle allocates %.1f KiB, want at most 16 KiB: the all-nodes run did not sweep into the released columns", perCycle/1024)
	}
}
