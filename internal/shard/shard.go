// Package shard turns the one-CLI-one-worker farm into a distributed
// all-nodes service: a coordinator splits an all-nodes stability run into
// node-range shards, fans the shards out over a fleet of acstabd workers,
// and merges the per-shard machine-readable reports back into the exact
// report an unsharded run would produce — same loop clustering, same loop
// IDs, same worst-peak numbers.
//
// The shard spec rides the ordinary v1 wire: each shard is a plain /run
// request whose options carry an explicit node list (only_nodes), so
// workers need no new endpoint and no notion of "being a shard". The
// coordinator plans the node list once (applying skip/subckt filters
// locally), ships each worker one contiguous slice, asks for
// format:"json", and re-clusters the union of dominant peaks with the
// same tolerance an unsharded run uses. Because OnlyNodes does not enter
// the compiled-system cache key, every shard of one netlist shares one
// compiled artifact on a worker.
//
// Stragglers are first-class: after a cutoff derived from the completed
// shards' duration quantile (or a fixed Config.HedgeAfter), a slow shard
// is hedged to a second worker and the first response wins (the loser is
// canceled). Shed (429), timed-out, and transport-failed attempts are
// re-dispatched to the next worker with backoff that honors Retry-After.
// Winning attempts' worker traces are grafted into the run trace with the
// attempt ordinal, so -stats and -trace-chrome show the whole fleet.
package shard

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"acstab/internal/farm"
	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/stab"
	"acstab/internal/tool"
)

// Shard-coordinator telemetry: launches by kind, plus shards merged into
// final reports. dispatched counts primary launches only, so
// dispatched == shards per healthy run; hedged and redispatched measure
// straggler and failure recovery work on top.
var (
	mDispatched   = obs.GetCounter("acstab_shard_dispatched_total")
	mHedged       = obs.GetCounter("acstab_shard_hedged_total")
	mRedispatched = obs.GetCounter("acstab_shard_redispatched_total")
	mMerged       = obs.GetCounter("acstab_shard_merged_total")
)

// Config tunes a Coordinator.
type Config struct {
	// Workers lists the acstabd base URLs to fan out over (required).
	Workers []string
	// Shards is the number of node-range shards to split the run into.
	// 0 selects one shard per worker; the count is always capped at the
	// planned node count (no empty shards).
	Shards int
	// MaxAttempts caps launches (primary + hedge + re-dispatches) per
	// shard. 0 selects max(3, len(Workers)+1) so every worker gets a
	// chance before the shard is declared failed.
	MaxAttempts int
	// Timeout is the per-attempt job deadline, forwarded as the wire
	// timeout_ms and used as the HTTP client timeout (0 = the farm
	// client's 5m default). A hung worker surfaces as a timed-out
	// attempt, which re-dispatches like any transport failure.
	Timeout time.Duration
	// HedgeQuantile picks the hedge cutoff from completed attempt
	// durations: a shard still running past this quantile gets a
	// duplicate launch on another worker. 0 selects 0.9; negative
	// disables hedging. Ignored when HedgeAfter is set.
	HedgeQuantile float64
	// HedgeAfter, when positive, is a fixed hedge cutoff replacing the
	// quantile estimate (useful early in a run and in tests).
	HedgeAfter time.Duration
	// RetryBase seeds the re-dispatch backoff (0 = 100ms); the delay
	// doubles per launch, capped at 2s, and a larger worker Retry-After
	// hint takes precedence.
	RetryBase time.Duration
	// Log is the wide-event sink for shard lifecycle events
	// (shard_dispatch/hedge/redispatch/win/merge). Nil discards.
	Log *obs.EventLogger
}

// Coordinator fans an all-nodes run out over a worker fleet.
type Coordinator struct {
	cfg     Config
	clients []*farm.Client

	mu   sync.Mutex
	durs []time.Duration // completed winning-attempt durations
}

// New validates cfg and builds a Coordinator. The farm clients are
// created with retries disabled: the coordinator owns the retry policy
// (hedging and cross-worker re-dispatch beat same-worker retry loops).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("shard: no workers configured")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = len(cfg.Workers) + 1
		if cfg.MaxAttempts < 3 {
			cfg.MaxAttempts = 3
		}
	}
	if cfg.HedgeQuantile == 0 {
		cfg.HedgeQuantile = 0.9
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	c := &Coordinator{cfg: cfg}
	for _, w := range cfg.Workers {
		c.clients = append(c.clients, &farm.Client{
			BaseURL:    strings.TrimRight(w, "/"),
			Timeout:    cfg.Timeout,
			MaxRetries: -1,
		})
	}
	return c, nil
}

// AllNodes runs the all-nodes analysis for the netlist source sharded
// across the fleet and returns the merged report. opts is interpreted
// exactly like a local run: SkipNodes/OnlySubckt are applied during
// planning (the shards receive the resolved node lists, not the
// filters), and opts.Trace receives the plan/fanout/merge phases plus
// each winning attempt's grafted worker trace.
func (c *Coordinator) AllNodes(ctx context.Context, src string, opts tool.Options) (*tool.Report, error) {
	run := opts.Trace

	// Plan: compile locally once to resolve the probe-able node list in
	// sweep order, then slice it into contiguous ranges.
	sp := obs.StartPhase(run, "shard_plan")
	ckt, err := netlist.Parse(src)
	if err != nil {
		sp.End()
		return nil, err
	}
	planOpts := opts
	planOpts.Trace = nil
	t, err := tool.New(ckt, planOpts)
	if err != nil {
		sp.End()
		return nil, err
	}
	nodes := t.PlanNodes()
	shards := partition(nodes, c.shardCount(len(nodes)))
	sp.End()

	repOpts := t.Opts
	repOpts.Trace = run
	merged := &tool.Report{
		CircuitTitle: t.Flat.Title,
		Temp:         t.Flat.Temp,
		Options:      repOpts,
	}
	if len(shards) == 0 {
		return merged, nil
	}

	traceID := newTraceID()
	c.cfg.Log.Event("shard_plan",
		slog.String("trace_id", traceID),
		slog.Int("nodes", len(nodes)),
		slog.Int("shards", len(shards)),
		slog.Int("workers", len(c.clients)))

	// Fan out: one goroutine per shard, primaries admitted through a
	// fleet-sized semaphore so K shards over N workers queue instead of
	// stampeding every worker's shedder at once. Hedge and re-dispatch
	// launches happen inside a shard's slot — that extra load is the
	// point of them. The first shard failure cancels the rest.
	sp = obs.StartPhase(run, "shard_fanout")
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, len(c.clients))
	reports := make([]*tool.Report, len(shards))
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		fanErr  error
	)
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, shardNodes []string) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-fctx.Done():
				return
			}
			rep, err := c.runShard(fctx, run, src, traceID, opts, i, shardNodes)
			if err != nil {
				errOnce.Do(func() { fanErr = err; cancel() })
				return
			}
			reports[i] = rep
		}(i, sh)
	}
	wg.Wait()
	sp.End()
	if fanErr != nil {
		return nil, fanErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge: union the shard reports' node rows, re-cluster the union of
	// dominant peaks with the run's own tolerance. MergePeaks sorts the
	// union, so loop membership and IDs are independent of shard arrival
	// order and match the unsharded run exactly.
	sp = obs.StartPhase(run, "shard_merge")
	defer sp.End()
	planned := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		planned[n] = true
	}
	var peakSets [][]stab.NodePeak
	seen := make(map[string]bool, len(nodes))
	for i, rep := range reports {
		var peaks []stab.NodePeak
		for j := range rep.Nodes {
			nr := rep.Nodes[j]
			if !planned[nr.Node] {
				return nil, fmt.Errorf("shard %d: worker returned unplanned node %q", i, nr.Node)
			}
			if seen[nr.Node] {
				return nil, fmt.Errorf("shard merge: node %q returned by two shards", nr.Node)
			}
			seen[nr.Node] = true
			merged.Nodes = append(merged.Nodes, nr)
			if !nr.Skipped && nr.Best != nil {
				peaks = append(peaks, stab.NodePeak{Node: nr.Node, Peak: *nr.Best})
			}
		}
		peakSets = append(peakSets, peaks)
		mMerged.Inc()
	}
	if len(seen) != len(nodes) {
		return nil, fmt.Errorf("shard merge: %d of %d planned nodes missing from shard reports",
			len(nodes)-len(seen), len(nodes))
	}
	sort.Slice(merged.Nodes, func(a, b int) bool { return merged.Nodes[a].Node < merged.Nodes[b].Node })
	union := stab.MergePeaks(peakSets...)
	merged.Loops = stab.ClusterLoops(union, t.Opts.LoopTol)
	run.Add("shard_peaks", int64(len(union)))
	run.Add("shard_loops", int64(len(merged.Loops)))
	mergeAttrs := []slog.Attr{
		slog.String("trace_id", traceID),
		slog.Int("shards", len(shards)),
		slog.Int("nodes", len(merged.Nodes)),
		slog.Int("peaks", len(union)),
		slog.Int("loops", len(merged.Loops)),
	}
	// Numerical health across the shards: each winning attempt's trace was
	// grafted into the run, so the counters (and the per-decade residual
	// digest) are sums over shards and the stats are maxima — the same
	// numbers an unsharded run of the whole node set would report.
	if tr := run.Trace(); tr.Counters["ac_residual_points"] > 0 {
		num := map[string]any{
			"points":       tr.Counters["ac_residual_points"],
			"refinements":  tr.Counters["ac_refinements"],
			"breaches":     tr.Counters["ac_residual_breaches"],
			"max_residual": tr.Stats["numerics_residual_max"],
		}
		if med, ok := obs.MedianResidual(tr.Counters); ok {
			num["median_residual"] = med
		}
		mergeAttrs = append(mergeAttrs, slog.Any("numerics", num))
	}
	c.cfg.Log.Event("shard_merge", mergeAttrs...)
	return merged, nil
}

// attemptOutcome is one launch's result.
type attemptOutcome struct {
	body   []byte
	tr     *obs.Trace
	err    error
	worker string
	launch int // 1-based launch ordinal within the shard
	start  time.Time
	dur    time.Duration
}

// runShard drives one shard to completion: primary launch, optional
// hedge past the straggler cutoff, re-dispatch with backoff on
// retryable failure. The first successful response wins; every other
// in-flight attempt is canceled. Only the winner's worker trace is
// grafted into the run (a submit-time graft would splice losers in).
func (c *Coordinator) runShard(ctx context.Context, run *obs.Run, src, traceID string,
	opts tool.Options, idx int, nodes []string) (*tool.Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptOutcome, c.cfg.MaxAttempts)
	launches, inflight := 0, 0
	hedged := false
	var curStart time.Time

	launch := func(kind string) {
		wi := (idx + launches) % len(c.clients)
		ord := launches + 1
		launches++
		inflight++
		curStart = time.Now()
		switch kind {
		case "dispatch":
			mDispatched.Inc()
		case "hedge":
			mHedged.Inc()
		case "redispatch":
			mRedispatched.Inc()
		}
		c.cfg.Log.Event("shard_"+kind,
			slog.String("trace_id", traceID),
			slog.Int("shard", idx),
			slog.Int("attempt", ord),
			slog.String("worker", c.cfg.Workers[wi]),
			slog.Int("nodes", len(nodes)))
		cl := c.clients[wi]
		req := c.shardRequest(src, traceID, opts, nodes)
		start := curStart
		go func() {
			body, tr, err := cl.SubmitCollect(ctx, req)
			results <- attemptOutcome{body, tr, err, c.cfg.Workers[wi], ord, start, time.Since(start)}
		}()
	}
	launch("dispatch")

	for {
		// Arm the hedge only while exactly one attempt runs and another
		// launch is still allowed. With no cutoff available yet (no
		// fixed HedgeAfter, too few completed durations), poll shortly:
		// other shards' completions feed the quantile as the run
		// progresses.
		var hedgeC <-chan time.Time
		if !hedged && inflight == 1 && launches < c.cfg.MaxAttempts &&
			len(c.clients) > 1 && c.cfg.HedgeQuantile >= 0 {
			wait := 50 * time.Millisecond
			if cutoff := c.hedgeCutoff(); cutoff > 0 {
				wait = time.Until(curStart.Add(cutoff))
				if wait < 0 {
					wait = 0
				}
			}
			hedgeC = time.After(wait)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case out := <-results:
			inflight--
			if out.err == nil {
				cancel() // first response wins; abandon the racer
				c.recordDuration(out.dur)
				if run != nil && out.tr != nil {
					run.GraftRemote(*out.tr, out.start, out.dur, out.launch)
				}
				c.cfg.Log.Event("shard_win",
					slog.String("trace_id", traceID),
					slog.Int("shard", idx),
					slog.Int("attempt", out.launch),
					slog.String("worker", out.worker),
					slog.Duration("dur", out.dur))
				rep, err := report.ParseJSON(bytes.NewReader(out.body))
				if err != nil {
					return nil, fmt.Errorf("shard %d (worker %s): %w", idx, out.worker, err)
				}
				return rep, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if !retryableAttempt(out.err) {
				return nil, fmt.Errorf("shard %d (worker %s): %w", idx, out.worker, out.err)
			}
			if inflight > 0 {
				continue // the racing attempt may still win
			}
			if launches >= c.cfg.MaxAttempts {
				return nil, fmt.Errorf("shard %d: %d attempts exhausted, last (worker %s): %w",
					idx, launches, out.worker, out.err)
			}
			delay := c.cfg.RetryBase << uint(launches-1)
			if delay > 2*time.Second {
				delay = 2 * time.Second
			}
			var se *farm.StatusError
			if errors.As(out.err, &se) && se.RetryAfter > delay {
				delay = se.RetryAfter
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
			launch("redispatch")
		case <-hedgeC:
			if cutoff := c.hedgeCutoff(); cutoff > 0 && time.Since(curStart) >= cutoff {
				hedged = true
				launch("hedge")
			}
		}
	}
}

// shardRequest builds the v1 wire request for one shard. Skip and
// subckt filters are intentionally absent: planning already applied
// them, and the explicit exact-match node list is the shard spec.
func (c *Coordinator) shardRequest(src, traceID string, opts tool.Options, nodes []string) *farm.Request {
	return &farm.Request{
		Netlist:   src,
		Format:    "json",
		TimeoutMS: c.cfg.Timeout.Milliseconds(),
		TraceID:   traceID,
		Options: farm.RequestOptions{
			FStartHz:              opts.FStart,
			FStopHz:               opts.FStop,
			PointsPerDecade:       opts.PointsPerDecade,
			CoarsePointsPerDecade: opts.CoarsePointsPerDecade,
			RefinePointsPerDecade: opts.RefinePointsPerDecade,
			RefineThreshold:       opts.RefineThreshold,
			LoopTol:               opts.LoopTol,
			Workers:               opts.Workers,
			OnlyNodes:             nodes,
		},
	}
}

// retryableAttempt classifies an attempt failure. Unlike the farm
// client's own policy, a deadline error here is retryable: the
// per-attempt timeout belongs to the attempt (a hung worker), not the
// run — the caller checks the run context separately before retrying.
func retryableAttempt(err error) bool {
	var se *farm.StatusError
	if errors.As(err, &se) {
		return se.Retryable()
	}
	return true // transport failure or per-attempt timeout
}

// hedgeCutoff returns the straggler cutoff: the fixed HedgeAfter when
// set, else the HedgeQuantile of completed winning-attempt durations
// (0 until at least two have completed — one duration is no
// distribution).
func (c *Coordinator) hedgeCutoff() time.Duration {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.durs) < 2 {
		return 0
	}
	ds := append([]time.Duration(nil), c.durs...)
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	i := int(c.cfg.HedgeQuantile * float64(len(ds)))
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

// recordDuration feeds a completed attempt into the hedge quantile.
func (c *Coordinator) recordDuration(d time.Duration) {
	c.mu.Lock()
	c.durs = append(c.durs, d)
	c.mu.Unlock()
}

// shardCount resolves the configured shard count against the node
// count: default one shard per worker, never more shards than nodes.
func (c *Coordinator) shardCount(nodes int) int {
	k := c.cfg.Shards
	if k <= 0 {
		k = len(c.cfg.Workers)
	}
	if k > nodes {
		k = nodes
	}
	return k
}

// partition slices nodes into k contiguous near-equal ranges, keeping
// the planner's sweep order inside each shard.
func partition(nodes []string, k int) [][]string {
	if k <= 0 || len(nodes) == 0 {
		return nil
	}
	out := make([][]string, 0, k)
	base, rem := len(nodes)/k, len(nodes)%k
	at := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		out = append(out, nodes[at:at+n])
		at += n
	}
	return out
}

// newTraceID returns a random 64-bit hex correlation ID shared by every
// shard of one run, so a fleet-wide /debug/runs search finds them all.
func newTraceID() string {
	var b [8]byte
	crand.Read(b[:])
	return hex.EncodeToString(b[:])
}
