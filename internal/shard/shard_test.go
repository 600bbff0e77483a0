package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"acstab/internal/circuits"
	"acstab/internal/farm"
	"acstab/internal/netlist"
	"acstab/internal/num"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

// startWorkers spins up n real farm workers (quiet logs).
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(farm.NewHandler(farm.Config{Log: obs.NewEventLogger(nil)}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	return urls
}

// localReport runs the unsharded all-nodes analysis for src.
func localReport(t *testing.T, src string, opts tool.Options) *tool.Report {
	t.Helper()
	ckt, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tool.New(ckt, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// renderAll renders a report in every machine-comparable format.
func renderAll(t *testing.T, rep *tool.Report) (text, csv, js string) {
	t.Helper()
	var tb, cb, jb bytes.Buffer
	if err := report.Text(&tb, rep); err != nil {
		t.Fatal(err)
	}
	if err := report.CSV(&cb, rep); err != nil {
		t.Fatal(err)
	}
	if err := report.JSON(&jb, rep); err != nil {
		t.Fatal(err)
	}
	return tb.String(), cb.String(), jb.String()
}

func testOpts() tool.Options {
	opts := tool.DefaultOptions()
	opts.FStart = 1e4
	opts.FStop = 1e8
	opts.PointsPerDecade = 20
	return opts
}

// TestShardedMatchesUnsharded is the merge-equivalence property test: a
// run split into K node-range shards over N workers must reproduce the
// unsharded report byte-for-byte — same node rows, same loop clustering,
// same loop IDs, same worst-peak numbers — for every format.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, tc := range []struct {
		loops, workers, shards int
	}{
		{2, 2, 0},  // one shard per worker
		{3, 2, 5},  // more shards than workers (queueing)
		{4, 3, 2},  // fewer shards than workers
		{1, 4, 99}, // shard count capped at node count
	} {
		src := netlist.Format(circuits.ResonatorField(tc.loops, 1e6, 0.25))
		opts := testOpts()
		want := localReport(t, src, opts)

		coord, err := New(Config{
			Workers: startWorkers(t, tc.workers),
			Shards:  tc.shards,
			Log:     obs.NewEventLogger(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.AllNodes(context.Background(), src, opts)
		if err != nil {
			t.Fatalf("loops=%d workers=%d shards=%d: %v", tc.loops, tc.workers, tc.shards, err)
		}

		wt, wc, wj := renderAll(t, want)
		gt, gc, gj := renderAll(t, got)
		if gt != wt {
			t.Errorf("loops=%d workers=%d shards=%d: text report differs\n--- sharded ---\n%s\n--- local ---\n%s",
				tc.loops, tc.workers, tc.shards, gt, wt)
		}
		if gc != wc {
			t.Errorf("loops=%d workers=%d shards=%d: csv report differs", tc.loops, tc.workers, tc.shards)
		}
		if gj != wj {
			t.Errorf("loops=%d workers=%d shards=%d: json report differs\n--- sharded ---\n%s\n--- local ---\n%s",
				tc.loops, tc.workers, tc.shards, gj, wj)
		}
	}
}

// TestShardedAdaptiveMatchesUnsharded extends the merge-equivalence
// property to adaptive grids: refinement decisions are per-node, so a
// sharded adaptive run must still reproduce the unsharded report
// byte-for-byte even though each shard refines its own node subset
// independently.
func TestShardedAdaptiveMatchesUnsharded(t *testing.T) {
	for _, tc := range []struct {
		loops, workers, shards int
	}{
		{2, 2, 0}, // one shard per worker
		{3, 2, 5}, // more shards than workers (queueing)
	} {
		src := netlist.Format(circuits.ResonatorField(tc.loops, 1e6, 0.25))
		opts := testOpts()
		opts.CoarsePointsPerDecade = 8
		want := localReport(t, src, opts)

		coord, err := New(Config{
			Workers: startWorkers(t, tc.workers),
			Shards:  tc.shards,
			Log:     obs.NewEventLogger(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.AllNodes(context.Background(), src, opts)
		if err != nil {
			t.Fatalf("loops=%d workers=%d shards=%d: %v", tc.loops, tc.workers, tc.shards, err)
		}

		wt, wc, wj := renderAll(t, want)
		gt, gc, gj := renderAll(t, got)
		if gt != wt {
			t.Errorf("loops=%d workers=%d shards=%d: adaptive text report differs\n--- sharded ---\n%s\n--- local ---\n%s",
				tc.loops, tc.workers, tc.shards, gt, wt)
		}
		if gc != wc {
			t.Errorf("loops=%d workers=%d shards=%d: adaptive csv report differs", tc.loops, tc.workers, tc.shards)
		}
		if gj != wj {
			t.Errorf("loops=%d workers=%d shards=%d: adaptive json report differs\n--- sharded ---\n%s\n--- local ---\n%s",
				tc.loops, tc.workers, tc.shards, gj, wj)
		}
	}
}

// TestSharedFrequencyAxis: a node's Impedance and stability-plot waves take
// the sweep grid as their X axis without copying it, so every node swept
// only on the first-pass grid shares one array. Nothing downstream may
// write to it: after rendering every format, parsing the JSON back, a
// sharded run of the same circuit and, with adaptive grids, the
// refinement rounds, every axis must still hold its original values and
// the sharded reports must still match the local one byte for byte.
func TestSharedFrequencyAxis(t *testing.T) {
	for _, tc := range []struct {
		name      string
		coarsePPD int
	}{{"uniform", 0}, {"adaptive", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			// A resistive bystander node has a flat stability plot, so even
			// an adaptive run keeps it on the first-pass grid.
			ckt := circuits.ResonatorField(3, 1e6, 0.25)
			ckt.AddR("RBY", "by", "0", 1e3)
			src := netlist.Format(ckt)
			opts := testOpts()
			opts.Workers = 2 // the first pass and the refinement rounds fan out
			opts.CoarsePointsPerDecade = tc.coarsePPD
			ppd := opts.PointsPerDecade
			if tc.coarsePPD > 0 {
				ppd = tc.coarsePPD
			}
			grid := num.LogGridPPD(opts.FStart, opts.FStop, ppd)
			rep := localReport(t, src, opts)

			var shared []float64 // the first-pass grid as the waves hold it
			axes := map[string][]float64{}
			refined := 0
			for _, nr := range rep.Nodes {
				if nr.Skipped {
					continue
				}
				x := nr.Impedance.X
				p, err := stab.Plot(nr.Impedance, opts.Stab)
				if err != nil {
					t.Fatal(err)
				}
				if &p.X[0] != &x[0] || len(p.X) != len(x) {
					t.Fatalf("node %s: stability plot does not alias the impedance axis", nr.Node)
				}
				axes[nr.Node] = slices.Clone(x)
				if len(x) != len(grid) {
					refined++
					continue
				}
				if shared == nil {
					shared = x
				} else if &x[0] != &shared[0] {
					t.Fatalf("node %s: first-pass axis is a copy, not the shared grid", nr.Node)
				}
			}
			if shared == nil || !slices.Equal(shared, grid) {
				t.Fatalf("no node holds the %d-point first-pass grid", len(grid))
			}
			if tc.coarsePPD > 0 && refined == 0 {
				t.Fatal("adaptive run refined no node")
			}

			wt, wc, wj := renderAll(t, rep)
			if _, err := report.ParseJSON(strings.NewReader(wj)); err != nil {
				t.Fatal(err)
			}
			coord, err := New(Config{Workers: startWorkers(t, 2), Log: obs.NewEventLogger(nil)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.AllNodes(context.Background(), src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gt, gc, gj := renderAll(t, got); gt != wt || gc != wc || gj != wj {
				t.Error("sharded reports differ from the local run")
			}

			if !slices.Equal(shared, grid) {
				t.Error("the shared first-pass grid was written to")
			}
			for _, nr := range rep.Nodes {
				if want, ok := axes[nr.Node]; ok && !slices.Equal(nr.Impedance.X, want) {
					t.Errorf("node %s: frequency axis was written to", nr.Node)
				}
			}
		})
	}
}

// countEvents tallies the wide events an EventLogger wrote to sink, one
// JSON object per line, by name.
func countEvents(t *testing.T, sink *bytes.Buffer) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(sink.Bytes()), []byte("\n")) {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event line is not JSON: %v\n%s", err, line)
		}
		out[ev.Event]++
	}
	return out
}

// TestShardRedispatchOnShed injects a worker that sheds every job with
// 429: shards landing on it must be re-dispatched to the healthy worker
// and the merged report must still match the unsharded run.
func TestShardRedispatchOnShed(t *testing.T) {
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":{"code":"overloaded","message":"always full"}}`,
			http.StatusTooManyRequests)
	}))
	defer shedder.Close()
	good := startWorkers(t, 1)

	src := netlist.Format(circuits.ResonatorField(3, 1e6, 0.3))
	opts := testOpts()
	want := localReport(t, src, opts)

	var sink bytes.Buffer
	coord, err := New(Config{
		Workers:   []string{shedder.URL, good[0]},
		Shards:    2,
		RetryBase: time.Millisecond,
		Log:       obs.NewEventLogger(&sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.StartRun("test")
	opts.Trace = run
	got, err := coord.AllNodes(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = nil
	run.Finish()

	wt, _, _ := renderAll(t, want)
	gt, _, _ := renderAll(t, got)
	if gt != wt {
		t.Errorf("report with shedding worker differs from local:\n--- sharded ---\n%s\n--- local ---\n%s", gt, wt)
	}
	ev := countEvents(t, &sink)
	if ev["shard_redispatch"] == 0 {
		t.Errorf("no shard_redispatch events despite a shedding worker: %v", ev)
	}
	// Shard 0's primary hit the shedder; its win must come from a later
	// launch, tagged with that attempt ordinal in the grafted trace.
	tr := run.Trace()
	attempts := map[int]bool{}
	for _, sp := range tr.Phases {
		if sp.Attempt > 0 {
			attempts[sp.Attempt] = true
		}
	}
	if !attempts[2] {
		t.Errorf("no grafted span with attempt 2 after a re-dispatch; attempts seen: %v", attempts)
	}
}

// TestShardHedgeOnHang injects a worker that accepts /run and then hangs
// until the request is canceled: the hedge must fire after HedgeAfter,
// win on the healthy worker, and the run must complete with a coherent
// grafted trace (the loser contributes nothing).
func TestShardHedgeOnHang(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server starts its background read and
		// notices the hedge winner canceling this request; without it the
		// context never fires and Close would wait on this handler forever.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer hung.Close()
	good := startWorkers(t, 1)

	src := netlist.Format(circuits.ResonatorField(2, 1e6, 0.3))
	opts := testOpts()
	want := localReport(t, src, opts)

	var sink bytes.Buffer
	coord, err := New(Config{
		Workers:    []string{hung.URL, good[0]},
		Shards:     1, // single shard: its primary lands on the hung worker
		HedgeAfter: 20 * time.Millisecond,
		Log:        obs.NewEventLogger(&sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.StartRun("test")
	opts.Trace = run
	done := make(chan struct{})
	var got *tool.Report
	go func() {
		defer close(done)
		got, err = coord.AllNodes(context.Background(), src, opts)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run hung: hedge never rescued the stalled shard")
	}
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = nil
	run.Finish()

	wt, _, wj := renderAll(t, want)
	gt, _, gj := renderAll(t, got)
	if gt != wt || gj != wj {
		t.Errorf("report with hung worker differs from local:\n--- sharded ---\n%s\n--- local ---\n%s", gt, wt)
	}
	ev := countEvents(t, &sink)
	if ev["shard_hedge"] != 1 {
		t.Errorf("shard_hedge events = %d, want 1: %v", ev["shard_hedge"], ev)
	}
	// Exactly one worker trace was grafted (the winner's): its
	// sweep_nodes counter equals the full node count once, not twice.
	tr := run.Trace()
	ckt, _ := netlist.Parse(src)
	tl, _ := tool.New(ckt, testOpts())
	if n := int64(len(tl.PlanNodes())); tr.Counters["sweep_nodes"] != n {
		t.Errorf("grafted sweep_nodes = %d, want %d (winner only)", tr.Counters["sweep_nodes"], n)
	}
	// The winning spans carry the hedge's launch ordinal.
	seen := map[int]bool{}
	for _, sp := range tr.Phases {
		if sp.Attempt > 0 {
			seen[sp.Attempt] = true
		}
	}
	if !seen[2] || seen[1] {
		t.Errorf("grafted attempts = %v, want only the hedge (attempt 2)", seen)
	}
}

// TestShardGraftedCounters checks the healthy-path trace merge: the
// grafted worker traces' sweep_nodes must sum to the full node count
// (every node swept exactly once across shards).
func TestShardGraftedCounters(t *testing.T) {
	src := netlist.Format(circuits.ResonatorField(3, 1e6, 0.3))
	opts := testOpts()
	coord, err := New(Config{Workers: startWorkers(t, 2), Log: obs.NewEventLogger(nil)})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.StartRun("test")
	opts.Trace = run
	if _, err := coord.AllNodes(context.Background(), src, opts); err != nil {
		t.Fatal(err)
	}
	run.Finish()

	ckt, _ := netlist.Parse(src)
	tl, _ := tool.New(ckt, testOpts())
	want := int64(len(tl.PlanNodes()))
	if got := run.Trace().Counters["sweep_nodes"]; got != want {
		t.Errorf("summed grafted sweep_nodes = %d, want %d", got, want)
	}
}

// TestShardNonRetryableFails pins fail-fast semantics: a 4xx rejection
// (here: a netlist the workers refuse) must fail the run, not spin
// through re-dispatches.
func TestShardNonRetryableFails(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"bad_option","message":"no"}}`, http.StatusBadRequest)
	}))
	defer bad.Close()

	src := netlist.Format(circuits.ResonatorField(2, 1e6, 0.3))
	coord, err := New(Config{Workers: []string{bad.URL, bad.URL}, Log: obs.NewEventLogger(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AllNodes(context.Background(), src, testOpts()); err == nil {
		t.Fatal("run against 400-answering workers succeeded, want error")
	}
}

func TestPartition(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	parts := partition(nodes, 3)
	if len(parts) != 3 {
		t.Fatalf("partition count = %d, want 3", len(parts))
	}
	var flat []string
	for _, p := range parts {
		if len(p) == 0 {
			t.Error("empty shard")
		}
		flat = append(flat, p...)
	}
	if strings.Join(flat, ",") != strings.Join(nodes, ",") {
		t.Errorf("partition reorders or drops nodes: %v", parts)
	}
	if len(parts[0]) != 2 || len(parts[1]) != 2 || len(parts[2]) != 1 {
		t.Errorf("unbalanced partition: %v", parts)
	}
}
