// batch.go is wire format v2: one netlist submitted with N variant
// entries (design-variable overrides with corner labels), answered as a
// stream of NDJSON BatchItem results. The batch shape matches how the
// compile cache earns its keep — all variants share the netlist, and
// variants repeated across batches (nominal corners, bisection re-runs)
// share compiled systems — while typed per-item errors keep one bad
// corner from failing the rest of the sweep. The whole batch occupies a
// single admission slot: items execute sequentially, each on one
// goroutine, so a 16-variant batch loads the worker like one long job
// instead of 16 competing ones.

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
	"time"

	"acstab/internal/obs"
	"acstab/internal/tool"
)

// MaxBatchVariants bounds the variant count of one batch.
const MaxBatchVariants = 256

// BatchRequest is one wire-v2 batch job: a netlist plus N variants to
// run it under.
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
	// Options carries the sweep setup shared by every variant.
	Options RequestOptions `json:"options"`
	// Variables are base design-variable overrides applied to every
	// variant (a variant's own variables win on conflict).
	Variables map[string]float64 `json:"variables,omitempty"`
	// Variants lists the runs to perform, answered in order.
	Variants []Variant `json:"variants"`
	// TraceID is the client's correlation ID for the whole batch.
	TraceID string `json:"trace_id,omitempty"`
}

// Variant is one entry of a batch: a corner label plus the variable
// overrides that distinguish it.
type Variant struct {
	// Label tags the item in responses and logs (e.g. "ss_-40C"); it has
	// no effect on execution.
	Label string `json:"label,omitempty"`
	// Variables override design variables for this variant, on top of the
	// batch-level Variables.
	Variables map[string]float64 `json:"variables,omitempty"`
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
// collects the batch's phase spans and solver counters.
func RunBatch(ctx context.Context, cache *Cache, req *BatchRequest, opts tool.Options, itemTimeout time.Duration, run *obs.Run, emit func(BatchItem)) error {
	if len(req.Netlist) > MaxNetlistBytes {
		return fmt.Errorf("farm: netlist larger than %d bytes", MaxNetlistBytes)
	}
	for i, v := range req.Variants {
		if err := ctx.Err(); err != nil {
			return err
		}
		item := BatchItem{Index: i, Label: v.Label}
		r := &Request{
			Netlist:   req.Netlist,
			Format:    req.Format,
			Node:      req.Node,
			Variables: mergeVars(req.Variables, v.Variables),
		}
		ictx, cancel := ctx, context.CancelFunc(func() {})
		if itemTimeout > 0 {
			ictx, cancel = context.WithTimeout(ctx, itemTimeout)
		}
		start := time.Now()
		body, contentType, hit, err := runCached(ictx, cache, r, opts, run)
		cancel()
		item.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
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
// truncated stream (the client re-submits the missing variants).
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
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		mShed.Inc()
		rec := s.rec.Begin("batch", "", nil)
		rec.Finish("shed")
		ev.requestID, ev.outcome, ev.status = rec.ID(), "shed", http.StatusTooManyRequests
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

	run := obs.StartRun("farm/batch")
	rec := s.rec.Begin("batch", req.TraceID, run)
	ev.requestID, ev.run = rec.ID(), run

	w.Header().Set("Content-Type", "application/x-ndjson")
	bp := lineBufs.Get().(*[]byte)
	defer putLineBuf(bp)
	flusher, _ := w.(http.Flusher)
	err := RunBatch(r.Context(), s.cache, req, opts, itemTimeout, run, func(it BatchItem) {
		ev.items++
		if it.Error != nil {
			ev.itemErrs++
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
	rec.Finish("ok")
	ev.outcome, ev.status = "ok", http.StatusOK
}

// batchEvent accumulates the one canonical wide event a /batch request
// emits, mirroring runEvent for the batch endpoint.
type batchEvent struct {
	requestID string
	traceID   string
	outcome   string
	status    int
	errMsg    string
	run       *obs.Run
	req       *BatchRequest
	items     int
	itemErrs  int
	hits      int
}

// emitBatchEvent writes the batch's canonical wide event: identity,
// outcome, item/error/cache-hit counts, and the batch-wide solver
// counter deltas.
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
	}
	if ev.errMsg != "" {
		attrs = append(attrs, slog.String("error", ev.errMsg))
	}
	if ev.run != nil {
		tc := ev.run.Trace().Counters
		attrs = append(attrs,
			slog.Int64("nodes", tc["sweep_nodes"]),
			slog.Int64("freq_points", tc["sweep_freq_points"]))
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
// each result's Err).
func (c *Client) SubmitBatch(ctx context.Context, req *BatchRequest) ([]BatchResult, error) {
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

	var lastErr error
	for attempt := 0; ; attempt++ {
		wire := *req
		wire.V = WireV2
		wire.Variants = make([]Variant, len(pending))
		for wi, orig := range pending {
			wire.Variants[wi] = req.Variants[orig]
			results[orig].Attempts++
		}
		payload, err := json.Marshal(&wire)
		if err != nil {
			return results, err
		}
		items, err := c.submitBatchOnce(ctx, hc, payload)
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
