// batch.go is the farm's job wire (format v2): one netlist submitted
// with N variant entries (design-variable overrides with corner labels),
// answered as a stream of NDJSON BatchItem results; a single job is a
// one-variant batch. The batch shape matches how the compile cache earns
// its keep — all variants share the netlist, and variants repeated
// across batches (nominal corners, bisection re-runs) share compiled
// systems — while typed per-item errors keep one bad corner from failing
// the rest of the sweep. The whole batch occupies a single admission
// slot: items execute sequentially, each on one goroutine, so a
// 16-variant batch loads the worker like one long job instead of 16
// competing ones.

package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"acstab/internal/obs"
	"acstab/internal/tool"
)

// MaxBatchVariants bounds the variant count of one batch.
const MaxBatchVariants = 256

// BatchRequest is one wire-v2 batch job: a netlist plus N variants to
// run it under (one empty variant for a plain job).
type BatchRequest struct {
	// V is the wire-format version and must be WireV2.
	V int `json:"v"`
	// Netlist is the circuit source text shared by every variant.
	Netlist string `json:"netlist"`
	// Format selects the per-item rendering: text (default), csv, json,
	// annotate.
	Format string `json:"format,omitempty"`
	// Node switches every item to single-node mode when non-empty.
	Node string `json:"node,omitempty"`
	// TimeoutMS is the PER-ITEM deadline in milliseconds, capped by the
	// server maximum; 0 means "server default". The batch as a whole is
	// bounded by the client connection, not by a server-side deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Options carries the run setup shared by every variant. One job is
	// one whole analysis on one goroutine: the wire has no way to ask for
	// a slice of the node list or for a sweep worker count.
	Options tool.Options `json:"options"`
	// Variables are base design-variable overrides applied to every
	// variant (a variant's own variables win on conflict).
	Variables map[string]float64 `json:"variables,omitempty"`
	// Variants lists the runs to perform, answered in order.
	Variants []Variant `json:"variants"`
	// TraceID is the client's correlation ID for the whole batch.
	TraceID string `json:"trace_id,omitempty"`
	// CollectTrace asks the worker to run each item under its own run
	// trace and return it as the item line's trace member, for the client
	// to graft into the caller's trace.
	CollectTrace bool `json:"collect_trace,omitempty"`
}

// Variant is one entry of a batch: a corner label plus the variable
// overrides and temperature that distinguish it.
type Variant struct {
	// Label tags the item in responses and logs (e.g. "ss_-40C"); it has
	// no effect on execution.
	Label string `json:"label,omitempty"`
	// Variables override design variables for this variant, on top of the
	// batch-level Variables.
	Variables map[string]float64 `json:"variables,omitempty"`
	// TempC, when set, runs this variant at that temperature in °C
	// instead of the deck's own (.temp, else 27).
	TempC *float64 `json:"temp_c,omitempty"`
}

// BatchItem is one streamed result line of a batch response. Exactly one
// of Body and Error is meaningful: a failed item carries its typed error
// and the batch continues with the next variant.
type BatchItem struct {
	// Index is the variant's position in the submitted batch.
	Index int `json:"index"`
	// Label echoes the variant's label.
	Label string `json:"label,omitempty"`
	// ContentType is the media type of Body.
	ContentType string `json:"content_type,omitempty"`
	// Body is the rendered report (base64 in JSON).
	Body []byte `json:"body,omitempty"`
	// Error is the item's typed failure, nil on success.
	Error *ErrorDetail `json:"error,omitempty"`
	// CacheHit reports whether the item was served from the worker's
	// compiled-system cache (no flatten/compile/symbolic work).
	CacheHit bool `json:"cache_hit,omitempty"`
	// DurationMS is the item's wall time on the worker.
	DurationMS float64 `json:"duration_ms"`
	// Trace is the item's run trace on the worker, sent only when the
	// batch asked for collect_trace.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// mergeVars overlays variant variables on the batch-level base set.
func mergeVars(base, over map[string]float64) map[string]float64 {
	if len(over) == 0 {
		return base
	}
	if len(base) == 0 {
		return over
	}
	out := make(map[string]float64, len(base)+len(over))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

// RunBatch executes a batch sequentially, calling emit once per variant
// in submission order — the server streams each item as it finishes, the
// CLI prints it. Item failures are reported inside the emitted item and
// do not stop the batch; only the batch context's own cancellation (the
// client hung up, the process is draining) aborts the loop, returning
// its error. itemTimeout bounds each variant (0 = unbounded beyond ctx);
// cache may be nil to compile every variant from scratch; run (nil ok)
// collects the batch's phase spans and solver counters. With
// req.CollectTrace each item runs under a trace of its own, which the
// item carries and run takes in as local spans.
func RunBatch(ctx context.Context, cache *Cache, req *BatchRequest, opts tool.Options, itemTimeout time.Duration, run *obs.Run, emit func(BatchItem)) error {
	for i, v := range req.Variants {
		if err := ctx.Err(); err != nil {
			return err
		}
		item := BatchItem{Index: i, Label: v.Label}
		ictx, cancel := ctx, context.CancelFunc(func() {})
		if itemTimeout > 0 {
			ictx, cancel = context.WithTimeout(ctx, itemTimeout)
		}
		irun := run
		if req.CollectTrace {
			irun = obs.StartRun("farm/item")
		}
		start := time.Now()
		body, contentType, hit, err := runCached(ictx, cache, req, mergeVars(req.Variables, v.Variables), v.TempC, opts, irun)
		cancel()
		dur := time.Since(start)
		item.DurationMS = float64(dur) / float64(time.Millisecond)
		if req.CollectTrace {
			irun.Finish()
			tr := irun.Trace()
			item.Trace = &tr
			run.GraftRemote(tr, start, dur, 0)
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			_, code := errorCode(err)
			item.Error = &ErrorDetail{Code: code, Message: err.Error()}
		} else {
			item.Body, item.ContentType, item.CacheHit = body, contentType, hit
		}
		emit(item)
	}
	return nil
}

// handleBatch serves POST /batch: the whole batch takes one admission
// slot, items run sequentially with per-item deadlines, and results
// stream back as NDJSON — one BatchItem per line, flushed as produced,
// so the client renders corner 1 while corner 2 sweeps. Item failures
// are typed per-item errors inline in the stream; once streaming starts
// the HTTP status is committed, so a mid-batch abort surfaces as a
// truncated stream (the client re-submits the missing variants). The
// flight-recorder record takes the first failed item's outcome, so a
// one-variant batch killed by its deadline is found by ?outcome=deadline.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ev := &batchEvent{}
	defer func() {
		s.emitBatchEvent(ev, time.Since(start))
	}()
	if r.Method != http.MethodPost {
		ev.outcome, ev.status = CodeMethodNotAllowed, http.StatusMethodNotAllowed
		writeErr(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	// Admission control: shed instead of queueing so latency stays
	// bounded and the load balancer can route around a busy worker.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		mShed.Inc()
		rec := s.rec.Begin("batch", "", nil)
		rec.Finish("shed")
		ev.requestID, ev.outcome, ev.status = rec.ID(), "shed", http.StatusTooManyRequests
		ev.retryAfter = s.cfg.RetryAfter
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("worker at capacity (%d jobs in flight)", s.cfg.MaxConcurrent))
		return
	}
	mJobsInflight.Inc()
	defer mJobsInflight.Dec()
	body, we := readBody(r, maxBatchRequestBytes)
	if we != nil {
		rec := s.rec.Begin("batch", "", nil)
		rec.Finish(we.Detail.Code)
		ev.requestID, ev.outcome, ev.status, ev.errMsg = rec.ID(), we.Detail.Code, we.Status, we.Detail.Message
		writeWireErr(w, we)
		return
	}
	req, opts, we := DecodeBatchRequest(body)
	if we != nil {
		rec := s.rec.Begin("batch", "", nil)
		rec.Finish(we.Detail.Code)
		ev.requestID, ev.outcome, ev.status, ev.errMsg = rec.ID(), we.Detail.Code, we.Status, we.Detail.Message
		writeWireErr(w, we)
		return
	}
	ev.req, ev.traceID = req, req.TraceID

	itemTimeout := s.cfg.MaxTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < itemTimeout {
			itemTimeout = d
		}
	}

	// Every batch runs under its own run trace, recorded in the flight
	// recorder while in flight — a hung batch is diagnosable from its
	// partial trace at GET /debug/runs/<id>.
	run := obs.StartRun("farm/batch")
	rec := s.rec.Begin("batch", req.TraceID, run)
	ev.requestID, ev.run = rec.ID(), run

	w.Header().Set("Content-Type", "application/x-ndjson")
	bp := lineBufs.Get().(*[]byte)
	defer putLineBuf(bp)
	flusher, _ := w.(http.Flusher)
	outcome := "ok"
	err := RunBatch(r.Context(), s.cache, req, opts, itemTimeout, run, func(it BatchItem) {
		ev.items++
		if it.Error != nil {
			ev.itemErrs++
			if outcome == "ok" {
				outcome = runOutcome(it.Error.Code)
			}
		}
		if it.CacheHit {
			ev.hits++
		}
		*bp = appendBatchItem((*bp)[:0], &it)
		w.Write(*bp)
		if flusher != nil {
			flusher.Flush()
		}
		s.emitBatchItemEvent(rec.ID(), req.TraceID, it)
	})
	run.Finish()
	if err != nil {
		mCanceled.Inc()
		rec.Finish("canceled")
		ev.outcome, ev.status, ev.errMsg = "canceled", 499, err.Error()
		return
	}
	rec.Finish(outcome)
	ev.outcome, ev.status = outcome, http.StatusOK
}

// batchEvent accumulates the fields of the one canonical wide event a
// /batch request emits: whatever path the request takes — served, shed,
// rejected, aborted — exactly one "batch" event with the full context
// leaves the worker, correlated with the flight recorder by request_id
// and with the caller by trace_id.
type batchEvent struct {
	requestID  string
	traceID    string
	outcome    string
	status     int
	errMsg     string
	run        *obs.Run
	req        *BatchRequest
	retryAfter time.Duration
	items      int
	itemErrs   int
	hits       int
}

// emitBatchEvent writes the batch's canonical wide event: identity
// (request_id, trace_id), outcome and HTTP status, wall time, the
// item/error/cache-hit counts, the sweep volume and result shape (nodes,
// frequency points, peaks, loops), and the batch's solver-counter deltas
// from its run trace (factorizations, refactorizations, fallbacks,
// pattern drift, diag rows visited, ...) so fleet-level log queries like
// "which batches fell off the refactor fast path" need no metric join.
func (s *server) emitBatchEvent(ev *batchEvent, dur time.Duration) {
	attrs := []slog.Attr{
		slog.String("request_id", ev.requestID),
		slog.String("outcome", ev.outcome),
		slog.Int("status", ev.status),
		slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
		slog.Int("items", ev.items),
		slog.Int("item_errors", ev.itemErrs),
		slog.Int("cache_hits", ev.hits),
	}
	if ev.traceID != "" {
		attrs = append(attrs, slog.String("trace_id", ev.traceID))
	}
	if ev.req != nil {
		attrs = append(attrs,
			slog.Int("netlist_bytes", len(ev.req.Netlist)),
			slog.Int("variants", len(ev.req.Variants)))
		if ev.req.Node != "" {
			attrs = append(attrs, slog.String("node", ev.req.Node))
		}
		if ev.req.Format != "" {
			attrs = append(attrs, slog.String("format", ev.req.Format))
		}
	}
	if ev.retryAfter > 0 {
		attrs = append(attrs,
			slog.Float64("retry_after_s", ev.retryAfter.Seconds()),
			slog.Int("max_concurrent", s.cfg.MaxConcurrent))
	}
	if ev.errMsg != "" {
		attrs = append(attrs, slog.String("error", ev.errMsg))
	}
	if ev.run != nil {
		tr := ev.run.Trace()
		tc := tr.Counters
		attrs = append(attrs,
			slog.Int64("nodes", tc["sweep_nodes"]),
			slog.Int64("freq_points", tc["sweep_freq_points"]),
			slog.Int64("peaks", tc["peaks"]),
			slog.Int64("loops", tc["loops"]))
		solver := map[string]any{}
		for k, v := range tc {
			switch {
			case k == "sweep_nodes" || k == "sweep_freq_points" || k == "peaks" || k == "loops":
			case strings.HasPrefix(k, obs.ResidualDecadePrefix):
				// The per-decade residual digest is summarized by the
				// numerics block below, not listed raw.
			default:
				solver[k] = v
			}
		}
		// Numerical health: one solver.numerics block per batch so "which
		// batches were degraded" is a log query, not a metric join.
		if tc["ac_residual_points"] > 0 {
			num := map[string]any{
				"points":       tc["ac_residual_points"],
				"refinements":  tc["ac_refinements"],
				"breaches":     tc["ac_residual_breaches"],
				"max_residual": tr.Stats["numerics_residual_max"],
			}
			if med, ok := obs.MedianResidual(tc); ok {
				num["median_residual"] = med
			}
			if g := tr.Stats["numerics_pivot_growth_max"]; g > 0 {
				num["pivot_growth_max"] = g
			}
			if ce := tr.Stats["numerics_cond_est_max"]; ce > 0 {
				num["cond_estimate"] = ce
			}
			solver["numerics"] = num
		}
		if len(solver) > 0 {
			attrs = append(attrs, slog.Any("solver", solver))
		}
	}
	s.log.Event("batch", attrs...)
}

// emitBatchItemEvent writes one per-item wide event so fleet log queries
// can chart per-corner latency and cache effectiveness without parsing
// response streams.
func (s *server) emitBatchItemEvent(requestID, traceID string, it BatchItem) {
	attrs := []slog.Attr{
		slog.String("request_id", requestID),
		slog.Int("index", it.Index),
		slog.Bool("cache_hit", it.CacheHit),
		slog.Float64("duration_ms", it.DurationMS),
	}
	if traceID != "" {
		attrs = append(attrs, slog.String("trace_id", traceID))
	}
	if it.Label != "" {
		attrs = append(attrs, slog.String("label", it.Label))
	}
	if it.Error != nil {
		attrs = append(attrs, slog.String("outcome", it.Error.Code), slog.String("error", it.Error.Message))
	} else {
		attrs = append(attrs, slog.String("outcome", "ok"))
	}
	s.log.Event("batch_item", attrs...)
}

// BatchResult is one variant's outcome as seen by Client.SubmitBatch,
// indexed like the submitted Variants slice.
type BatchResult struct {
	// Index is the variant's position in the submitted batch.
	Index int
	// Label echoes the variant's label.
	Label string
	// ContentType and Body carry the rendered report when Err is nil.
	ContentType string
	Body        []byte
	// CacheHit reports whether the worker served the item from its
	// compiled-system cache.
	CacheHit bool
	// DurationMS is the worker-side wall time of the item.
	DurationMS float64
	// Err is the item's final failure: an *ItemError for a typed per-item
	// error from the worker, or the batch-level error that kept the item
	// from being answered after all retries.
	Err error
	// Attempts counts how many submissions included this item.
	Attempts int
}

// ItemError is a typed per-item failure returned inside a batch stream.
// Per-item errors are definitive — the worker ran (or refused) exactly
// this variant — so SubmitBatch does not retry them.
type ItemError struct {
	Detail ErrorDetail
}

// Error implements the error interface.
func (e *ItemError) Error() string {
	if e.Detail.Field != "" {
		return fmt.Sprintf("farm: item failed: %s (%s): %s", e.Detail.Code, e.Detail.Field, e.Detail.Message)
	}
	return fmt.Sprintf("farm: item failed: %s: %s", e.Detail.Code, e.Detail.Message)
}

// SubmitBatch posts the batch and collects one BatchResult per variant,
// in variant order. Batch-level failures (shed, 5xx, transport errors,
// truncated streams) are retried with the client's backoff settings, and
// only the variants still missing results are re-submitted — items
// already answered, including ones answered with typed per-item errors,
// are never re-run. Each result's Attempts counts the submissions that
// included it. The returned error is the final batch-level failure, nil
// when every variant got an answer (possibly a per-item error: check
// each result's Err). ctx bounds the whole call including backoff waits.
func (c *Client) SubmitBatch(ctx context.Context, req *BatchRequest) ([]BatchResult, error) {
	return c.SubmitBatchTraced(ctx, req, nil)
}

// SubmitBatchTraced is SubmitBatch with distributed tracing: it asks the
// worker to collect each item's run trace and grafts every returned item
// trace into run, anchored inside the request window of the attempt that
// answered it (clock-skew safe) and annotated with that attempt's number,
// so retried submissions stay distinguishable. A nil run behaves exactly
// like SubmitBatch.
func (c *Client) SubmitBatchTraced(ctx context.Context, req *BatchRequest, run *obs.Run) ([]BatchResult, error) {
	hc := c.HTTPClient
	if hc == nil {
		t := c.Timeout
		if t <= 0 {
			t = 5 * time.Minute
		}
		hc = &http.Client{Timeout: t}
	}
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	maxDelay := c.MaxRetryDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		retries = 0
	}

	results := make([]BatchResult, len(req.Variants))
	pending := make([]int, len(req.Variants))
	for i, v := range req.Variants {
		results[i] = BatchResult{Index: i, Label: v.Label}
		pending[i] = i
	}
	wire := *req
	wire.V = WireV2
	if run != nil {
		wire.CollectTrace = true
		if wire.TraceID == "" {
			wire.TraceID = newTraceID()
		}
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		wire.Variants = make([]Variant, len(pending))
		for wi, orig := range pending {
			wire.Variants[wi] = req.Variants[orig]
			results[orig].Attempts++
		}
		payload, err := json.Marshal(&wire)
		if err != nil {
			return results, err
		}
		attemptStart := time.Now()
		sp := obs.StartPhase(run, "farm_submit")
		items, err := c.submitBatchOnce(ctx, hc, payload)
		sp.End()
		attemptDur := time.Since(attemptStart)
		// Fold whatever arrived — even a failed attempt may have streamed
		// some items before dying, and those stay answered.
		answered := make([]bool, len(pending))
		for _, it := range items {
			if it.Index < 0 || it.Index >= len(pending) {
				continue
			}
			orig := pending[it.Index]
			res := &results[orig]
			res.ContentType, res.Body = it.ContentType, it.Body
			res.CacheHit, res.DurationMS = it.CacheHit, it.DurationMS
			res.Err = nil
			if it.Error != nil {
				res.Err = &ItemError{Detail: *it.Error}
			}
			if it.Trace != nil {
				run.GraftRemote(*it.Trace, attemptStart, attemptDur, attempt+1)
			}
			answered[it.Index] = true
		}
		rest := pending[:0]
		for wi, orig := range pending {
			if !answered[wi] {
				rest = append(rest, orig)
			}
		}
		pending = rest
		if len(pending) == 0 {
			return results, nil
		}
		if err == nil {
			// The stream ended cleanly but items are missing: the worker
			// aborted mid-batch (drain, client-side hiccup). Treat like a
			// transport failure and re-submit the remainder.
			err = fmt.Errorf("farm: batch response ended with %d variants unanswered", len(pending))
		}
		lastErr = err
		if attempt >= retries || !retryable(err) || ctx.Err() != nil {
			for _, orig := range pending {
				if results[orig].Err == nil {
					results[orig].Err = lastErr
				}
			}
			return results, lastErr
		}
		delay := backoffDelay(base, maxDelay, attempt)
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > delay {
			delay = se.RetryAfter
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			err := fmt.Errorf("farm: %w (last attempt: %v)", ctx.Err(), lastErr)
			for _, orig := range pending {
				if results[orig].Err == nil {
					results[orig].Err = err
				}
			}
			return results, err
		}
	}
}

// submitBatchOnce performs one POST /batch attempt, decoding the NDJSON
// stream a line at a time into a pooled buffer. A stream that dies
// mid-flight returns the items decoded so far together with the read
// error, so the caller can retry just the unanswered variants.
func (c *Client) submitBatchOnce(ctx context.Context, hc *http.Client, payload []byte) ([]BatchItem, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/batch",
		bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	bp := lineBufs.Get().(*[]byte)
	defer putLineBuf(bp)
	items, err := readBatchItems(resp.Body, *bp)
	if err != nil {
		return items, fmt.Errorf("farm: batch stream: %w", err)
	}
	return items, nil
}
