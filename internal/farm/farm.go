// Package farm implements the remote-simulation capability the paper
// lists as future work ("remote server simulation and distributed
// computer farm run control"): an HTTP job server that accepts a netlist
// plus run options and N design-variable variants and streams back one
// rendered stability report per variant, and the matching client. A
// single job is a one-variant batch. A fleet of acstabd processes behind
// any HTTP load balancer is the modern equivalent of the compute-farm
// dispatch the authors planned.
//
// The request path is built to degrade gracefully under overload: a
// server-side concurrency limiter sheds excess batches with 429 + a
// Retry-After hint while in-flight batches run to completion, every item
// carries a deadline (the request's timeout_ms capped by the server
// maximum), and a client disconnect cancels the solve mid-sweep through
// the request context. The Client retries shed and transient failures
// with exponential backoff and jitter.
package farm

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"acstab/internal/acerr"
	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/tool"
)

// Worker telemetry: job throughput, saturation, and shed/abort volume.
// Phase latencies and solver counters come from the instrumented
// analysis/tool packages via the shared obs registry.
var (
	mJobsInflight = obs.GetGauge("acstab_jobs_inflight")
	mRunsTotal    = obs.GetCounter("acstab_farm_runs_total")
	mRunErrors    = obs.GetCounter("acstab_farm_run_errors_total")
	// mShed counts jobs rejected with 429 by the concurrency limiter.
	mShed = obs.GetCounter("acstab_farm_shed_total")
	// mCanceled counts jobs aborted because the client went away.
	mCanceled = obs.GetCounter("acstab_farm_canceled_total")
	// mDeadline counts jobs aborted by their per-request deadline.
	mDeadline = obs.GetCounter("acstab_farm_deadline_exceeded_total")
)

// MaxNetlistBytes bounds the decoded netlist size.
const MaxNetlistBytes = 4 << 20

// maxBatchRequestBytes bounds the raw request body. JSON string escaping
// can inflate a netlist to roughly twice its size on the wire (every
// newline becomes \n), so the body budget is double the netlist budget
// plus headroom for the options and the variant list. A body exceeding
// its budget is answered 413 payload_too_large — never silently
// truncated into a confusing bad_json rejection.
const maxBatchRequestBytes = 2*MaxNetlistBytes + 1<<20

// Config tunes a farm worker's request path.
type Config struct {
	// MaxConcurrent bounds the /batch requests running at once; excess
	// requests are shed with 429 + Retry-After. 0 selects GOMAXPROCS: a
	// batch runs its items one after another, each sweeping on one
	// goroutine.
	MaxConcurrent int
	// MaxTimeout caps the per-item deadline and is the default for
	// batches that do not set timeout_ms. 0 selects 5 minutes.
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses. 0 selects 1s.
	RetryAfter time.Duration
	// RecentRuns sizes the flight recorder behind GET /debug/runs: the
	// worker keeps the last RecentRuns run records (trace, outcome, wall
	// time). 0 selects obs.DefaultRecentRuns.
	RecentRuns int
	// Log is the wide-event sink: one canonical "batch" event per /batch
	// request plus one "batch_item" event per variant, and "http" events
	// for the other routes. Nil selects obs.StderrEvents.
	Log *obs.EventLogger
	// CacheEntries bounds the content-addressed compiled-system cache. 0
	// selects DefaultCacheEntries; negative disables caching (every
	// request compiles from scratch, the pre-cache behavior).
	CacheEntries int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RecentRuns <= 0 {
		c.RecentRuns = obs.DefaultRecentRuns
	}
	if c.Log == nil {
		c.Log = obs.StderrEvents
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	return c
}

// server is one worker's HTTP state: its config, admission semaphore,
// flight recorder, and wide-event log.
type server struct {
	cfg   Config
	sem   chan struct{}
	rec   *obs.Recorder
	log   *obs.EventLogger
	build obs.BuildInfo
	start time.Time
	// cache is the content-addressed compiled-system cache shared by
	// every /batch request; nil when caching is disabled.
	cache *Cache
}

// Handler returns a farm worker handler with default Config.
func Handler() http.Handler { return NewHandler(Config{}) }

// NewHandler returns the HTTP handler of a farm worker: POST /batch
// executes a wire-v2 variant batch under the concurrency limiter and
// per-item deadlines, streaming NDJSON results (a single job is a
// one-variant batch; the retired /run answers 410 naming /batch), GET
// /healthz reports liveness, GET /metrics serves the Prometheus
// exposition of the process registry, and GET /statusz serves a JSON
// status snapshot (jobs in flight, shed/abort counters, per-phase
// latency histograms, solver counters, sweep utilization). GET
// /debug/runs lists the flight recorder's recent runs and GET
// /debug/runs/<id> serves one run's full trace. Every route is wrapped
// in the obs request-logging middleware.
func NewHandler(cfg Config) http.Handler {
	s := &server{
		cfg:   cfg.withDefaults(),
		start: time.Now(),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	s.rec = obs.NewRecorder(s.cfg.RecentRuns)
	s.log = s.cfg.Log
	s.build = obs.RegisterBuildInfo()
	if s.cfg.CacheEntries > 0 {
		s.cache = NewCache(s.cfg.CacheEntries)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/run", handleRunRemoved)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.Handle("/metrics", obs.MetricsHandler())
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/runs", s.handleDebugRuns)
	mux.HandleFunc("/debug/runs/", s.handleDebugRuns)
	return obs.Middleware(mux, s.log)
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleRunRemoved answers the retired wire-v1 endpoint with a typed
// 410 naming its replacement, so a stale client fails loudly instead of
// getting a 404 page or, worse, a silently different job.
func handleRunRemoved(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusGone, CodeUnsupportedVersion,
		"wire v1 (POST /run) is removed: send the job to POST /batch as a one-variant wire-v2 batch")
}

// ErrorBody is the structured JSON document returned for 4xx/5xx.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable failure code and the human
// message. Field names the offending wire field for bad_option
// rejections.
type ErrorDetail struct {
	Code    string `json:"code"`
	Field   string `json:"field,omitempty"`
	Message string `json:"message"`
}

// Error codes returned in ErrorBody.
const (
	CodeBadJSON            = "bad_json"
	CodeBadOption          = "bad_option"
	CodePayloadTooLarge    = "payload_too_large"
	CodeUnsupportedVersion = "unsupported_version"
	CodeMethodNotAllowed   = "method_not_allowed"
	CodeOverloaded         = "overloaded"
	CodeDeadlineExceeded   = "deadline_exceeded"
	CodeClientClosed       = "client_closed_request"
	CodeUnknownNode        = "unknown_node"
	CodeUnknownRun         = "unknown_run"
	CodeNoConvergence      = "no_convergence"
	CodeSingularMatrix     = "singular_matrix"
	CodeAccuracy           = "accuracy"
	CodeRunFailed          = "run_failed"
)

// readBody reads the request body up to limit bytes. A body exceeding
// the limit is rejected as 413 payload_too_large: an io.LimitReader alone
// would silently truncate the JSON document and the decoder would then
// misreport the cut-off as a bad_json 400, pointing the client at its
// (valid) JSON instead of its size.
func readBody(r *http.Request, limit int64) ([]byte, *WireError) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, &WireError{Status: http.StatusBadRequest,
			Detail: ErrorDetail{Code: CodeBadJSON, Message: err.Error()}}
	}
	if int64(len(body)) > limit {
		return nil, &WireError{Status: http.StatusRequestEntityTooLarge,
			Detail: ErrorDetail{Code: CodePayloadTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", limit)}}
	}
	return body, nil
}

// writeErr sends a structured error body with the given status.
func writeErr(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}

// writeWireErr sends a decode rejection, preserving the field attribution
// of bad_option errors.
func writeWireErr(w http.ResponseWriter, we *WireError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(we.Status)
	json.NewEncoder(w).Encode(ErrorBody{Error: we.Detail})
}

// runOutcome maps an error code to the flight-recorder outcome word.
func runOutcome(code string) string {
	switch code {
	case CodeClientClosed:
		return "canceled"
	case CodeDeadlineExceeded:
		return "deadline"
	}
	return code
}

// handleDebugRuns serves the flight recorder: GET /debug/runs lists
// recent runs (newest first, in-flight runs marked running) and GET
// /debug/runs/<id> returns one run's full record including its trace.
// The listing accepts ?outcome=<ok|error|canceled|deadline|shed> (error
// matches any error-code outcome), ?health=<degraded|ok> (degraded keeps
// runs with at least one residual-threshold breach), and ?n=<limit>.
func (s *server) handleDebugRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/debug/runs"), "/")
	if id == "" {
		runs := s.rec.List()
		q := r.URL.Query()
		if outcome := q.Get("outcome"); outcome != "" {
			kept := runs[:0]
			for _, rs := range runs {
				if outcomeMatches(rs.Outcome, outcome) {
					kept = append(kept, rs)
				}
			}
			runs = kept
		}
		if health := q.Get("health"); health != "" {
			kept := runs[:0]
			for _, rs := range runs {
				if rs.Degraded == (health == "degraded") {
					kept = append(kept, rs)
				}
			}
			runs = kept
		}
		if nStr := q.Get("n"); nStr != "" {
			if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(runs) {
				runs = runs[:n]
			}
		}
		if runs == nil {
			runs = []obs.RunSummary{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Runs []obs.RunSummary `json:"runs"`
		}{runs})
		return
	}
	det, ok := s.rec.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeUnknownRun,
			fmt.Sprintf("no recorded run %q (evicted or never ran here)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(det)
}

// outcomeMatches implements the ?outcome= filter vocabulary: the literal
// outcomes pass through, and "error" matches any machine error code (a
// run that failed for a reason other than cancelation, deadline, or
// shedding). In-flight runs only match an explicit "running" filter.
func outcomeMatches(outcome, filter string) bool {
	if filter == "error" {
		switch outcome {
		case "ok", "canceled", "deadline", "shed", "running":
			return false
		}
		return true
	}
	return outcome == filter
}

// errorCode maps a job failure to the HTTP status it stands for and the
// error code of its per-item batch error. Deadline aborts are counted
// here.
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		mDeadline.Inc()
		return http.StatusGatewayTimeout, CodeDeadlineExceeded
	case errors.Is(err, acerr.ErrUnknownNode):
		return http.StatusUnprocessableEntity, CodeUnknownNode
	case errors.Is(err, acerr.ErrNoConvergence):
		return http.StatusUnprocessableEntity, CodeNoConvergence
	case errors.Is(err, acerr.ErrSingularMatrix):
		return http.StatusUnprocessableEntity, CodeSingularMatrix
	case errors.Is(err, acerr.ErrAccuracy):
		return http.StatusUnprocessableEntity, CodeAccuracy
	default:
		return http.StatusUnprocessableEntity, CodeRunFailed
	}
}

// runCached executes one job against the compiled-system cache: the
// (netlist, variables, temperature) content address is looked up and
// only a miss pays for parse → flatten → MNA compile (single-flight:
// concurrent identical submissions share one compile). A hit forks the
// cached artifact and goes straight to numeric refactorization and the
// sweep — the parse, flatten, mna_assembly, and op phase spans are
// absent from the run trace, which is how a warm run is recognized in
// the flight recorder. A nil cache compiles every request from scratch.
// The job is req's netlist, node and format under the design variables
// vars, at tempC °C when tempC is non-nil; opts must be req's Options
// after tool.Options.Resolve (the handler already has them from decode).
// As the one place batch items execute, it is also the panic boundary: a
// panic fails the item (run_failed) with the panic value and stack
// instead of dropping the connection mid-record.
func runCached(ctx context.Context, cache *Cache, req *BatchRequest, vars map[string]float64, tempC *float64, opts tool.Options, run *obs.Run) (body []byte, contentType string, cacheHit bool, err error) {
	mRunsTotal.Inc()
	defer func() {
		if p := recover(); p != nil {
			body, contentType, err = nil, "", fmt.Errorf("farm: job panic: %v\n%s", p, debug.Stack())
		}
		if err != nil {
			mRunErrors.Inc()
		}
	}()
	opts.Trace = run

	compile := func() (*tool.Compiled, error) {
		sp := obs.StartPhase(run, "parse")
		ckt, err := netlist.Parse(req.Netlist)
		sp.End()
		if err != nil {
			return nil, err
		}
		for k, v := range vars {
			if _, ok := ckt.Params[k]; !ok {
				return nil, fmt.Errorf("farm: unknown design variable %q", k)
			}
			ckt.Params[k] = v
		}
		if tempC != nil {
			ckt.Temp = *tempC
		}
		return tool.Compile(ckt, opts)
	}

	var c *tool.Compiled
	if cache != nil {
		c, cacheHit, err = cache.Get(ctx, KeyFor(req.Netlist, vars, tempC), compile)
	} else {
		c, err = compile()
	}
	if err != nil {
		return nil, "", false, err
	}
	t, err := tool.NewFromCompiled(c, opts)
	if err != nil {
		return nil, "", false, err
	}

	if req.Node != "" {
		nr, err := t.SingleNode(ctx, req.Node)
		if err != nil {
			return nil, "", cacheHit, err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(singleNodeJSON(nr)); err != nil {
			return nil, "", cacheHit, err
		}
		return buf.Bytes(), "application/json", cacheHit, nil
	}

	rep, err := t.AllNodes(ctx)
	if err != nil {
		return nil, "", cacheHit, err
	}
	body, contentType, err = report.Render(req.Format, t.Flat, rep)
	if err != nil {
		return nil, "", cacheHit, err
	}
	return body, contentType, cacheHit, nil
}

// Statusz is the JSON document served at GET /statusz: a human- and
// machine-readable snapshot of what the worker is doing right now.
type Statusz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// JobsInflight counts the /batch requests running now.
	JobsInflight float64 `json:"jobs_inflight"`
	RunsTotal    int64   `json:"runs_total"`
	RunErrors    int64   `json:"run_errors_total"`
	// Overload reports the admission-control state: the concurrency
	// ceiling and the cumulative shed/canceled/deadline counts.
	Overload StatuszOverload `json:"overload"`
	// Requests maps `path="...",code="..."` label sets to request counts.
	Requests map[string]int64 `json:"http_requests_total,omitempty"`
	// Phases maps phase names (parse, mna_assembly, op, sweep, stability,
	// loop_clustering) to latency histogram summaries in seconds.
	Phases map[string]obs.HistogramSnapshot `json:"phase_latency_seconds,omitempty"`
	// Solver holds the cumulative solver counters (AC factorizations and
	// solves, Newton iterations, operating-point solves, MNA compiles).
	Solver  map[string]int64 `json:"solver,omitempty"`
	Workers StatuszWorkers   `json:"workers"`
	// Numerics reports the numerical-health observatory: residual,
	// pivot-growth, and condition-estimate histogram summaries plus the
	// cumulative refinement/breach counts. Nil until the first measured
	// sweep point.
	Numerics *StatuszNumerics `json:"numerics,omitempty"`
	// Cache reports the compiled-system cache: occupancy, capacity, and
	// the cumulative hit/miss/eviction/invalidation counters. Nil when
	// caching is disabled.
	Cache *CacheStats `json:"cache,omitempty"`
	// Build identifies the binary (version, toolchain, VCS revision) so
	// workers from a partial rollout can be told apart.
	Build obs.BuildInfo `json:"build"`
	// DebugRunsURL points at the worker's flight recorder (GET lists
	// recent runs; append /<id> for one run's full trace).
	DebugRunsURL string `json:"debug_runs_url,omitempty"`
}

// StatuszOverload reports the request-shedding state of the worker.
type StatuszOverload struct {
	// MaxConcurrent is the admission-control ceiling on parallel jobs.
	MaxConcurrent int `json:"max_concurrent"`
	// Shed counts jobs rejected with 429.
	Shed int64 `json:"shed_total"`
	// Canceled counts jobs aborted by client disconnect.
	Canceled int64 `json:"canceled_total"`
	// DeadlineExceeded counts jobs aborted by their deadline.
	DeadlineExceeded int64 `json:"deadline_exceeded_total"`
}

// StatuszNumerics reports the worker's cumulative numerical health: the
// same histograms /metrics exposes as acstab_ac_residual,
// acstab_ac_pivot_growth, and acstab_ac_cond_estimate, summarized.
type StatuszNumerics struct {
	Residual         obs.HistogramSnapshot `json:"residual"`
	PivotGrowth      obs.HistogramSnapshot `json:"pivot_growth"`
	CondEstimate     obs.HistogramSnapshot `json:"cond_estimate"`
	Refinements      int64                 `json:"refinements_total"`
	ResidualBreaches int64                 `json:"residual_breaches_total"`
}

// StatuszWorkers reports CPU saturation by sweeps.
type StatuszWorkers struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// SweepBusy is the number of sweeps (one goroutine each) running now.
	SweepBusy float64 `json:"sweep_busy"`
	// Utilization is SweepBusy / GOMAXPROCS.
	Utilization float64 `json:"utilization"`
}

// statuszFrom assembles the status document from a registry snapshot.
func statuszFrom(snap map[string]any, uptime time.Duration, cfg Config) *Statusz {
	st := &Statusz{
		UptimeSeconds: uptime.Seconds(),
		Requests:      map[string]int64{},
		Phases:        map[string]obs.HistogramSnapshot{},
		Solver:        map[string]int64{},
	}
	st.Workers.GOMAXPROCS = runtime.GOMAXPROCS(0)
	st.Overload.MaxConcurrent = cfg.MaxConcurrent
	const (
		phasePrefix = `acstab_phase_duration_seconds{phase="`
		reqPrefix   = `acstab_http_requests_total{`
		solverPre   = "acstab_"
	)
	var num StatuszNumerics
	for name, v := range snap {
		switch {
		case name == "acstab_ac_residual":
			num.Residual, _ = v.(obs.HistogramSnapshot)
		case name == "acstab_ac_pivot_growth":
			num.PivotGrowth, _ = v.(obs.HistogramSnapshot)
		case name == "acstab_ac_cond_estimate":
			num.CondEstimate, _ = v.(obs.HistogramSnapshot)
		case strings.HasPrefix(name, phasePrefix):
			phase := strings.TrimSuffix(strings.TrimPrefix(name, phasePrefix), `"}`)
			if hs, ok := v.(obs.HistogramSnapshot); ok {
				st.Phases[phase] = hs
			}
		case strings.HasPrefix(name, reqPrefix):
			labels := strings.TrimSuffix(strings.TrimPrefix(name, reqPrefix), "}")
			if n, ok := v.(int64); ok {
				st.Requests[labels] = n
			}
		case name == "acstab_jobs_inflight":
			st.JobsInflight, _ = v.(float64)
		case name == "acstab_farm_runs_total":
			st.RunsTotal, _ = v.(int64)
		case name == "acstab_farm_run_errors_total":
			st.RunErrors, _ = v.(int64)
		case name == "acstab_farm_shed_total":
			st.Overload.Shed, _ = v.(int64)
		case name == "acstab_farm_canceled_total":
			st.Overload.Canceled, _ = v.(int64)
		case name == "acstab_farm_deadline_exceeded_total":
			st.Overload.DeadlineExceeded, _ = v.(int64)
		case name == "acstab_sweep_workers_busy":
			st.Workers.SweepBusy, _ = v.(float64)
		case strings.HasPrefix(name, solverPre) && strings.HasSuffix(name, "_total") &&
			!strings.HasPrefix(name, "acstab_http_"):
			// Remaining counters are solver/sweep volume counters.
			if n, ok := v.(int64); ok {
				key := strings.TrimSuffix(strings.TrimPrefix(name, solverPre), "_total")
				st.Solver[key] = n
			}
		}
	}
	if st.Workers.GOMAXPROCS > 0 {
		st.Workers.Utilization = st.Workers.SweepBusy / float64(st.Workers.GOMAXPROCS)
	}
	if num.Residual.Count > 0 {
		num.Refinements = st.Solver["ac_refinements"]
		num.ResidualBreaches = st.Solver["ac_residual_breaches"]
		st.Numerics = &num
	}
	return st
}

func (s *server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	st := statuszFrom(obs.Default.Snapshot(), time.Since(s.start), s.cfg)
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	st.DebugRunsURL = "/debug/runs"
	st.Build = s.build
	enc.Encode(st)
}

type singleNodeResult struct {
	Node       string  `json:"node"`
	Skipped    bool    `json:"skipped,omitempty"`
	SkipReason string  `json:"skip_reason,omitempty"`
	PeakValue  float64 `json:"peak,omitempty"`
	FreqHz     float64 `json:"natural_freq_hz,omitempty"`
	Zeta       float64 `json:"zeta,omitempty"`
	PMDeg      float64 `json:"phase_margin_deg,omitempty"`
	Overshoot  float64 `json:"overshoot_pct,omitempty"`
}

func singleNodeJSON(nr *tool.NodeResult) singleNodeResult {
	out := singleNodeResult{Node: nr.Node, Skipped: nr.Skipped, SkipReason: nr.SkipReason}
	if nr.Best != nil {
		out.PeakValue = nr.Best.Value
		out.FreqHz = nr.Best.Freq
		out.Zeta = nr.Best.Zeta
		out.PMDeg = nr.Best.PhaseMarginDeg
		out.Overshoot = nr.Best.OvershootPct
	}
	return out
}

// Client submits batches to a farm worker, retrying shed (429) and
// transient (5xx, transport) failures with exponential backoff and
// jitter.
type Client struct {
	// BaseURL is the worker address, e.g. "http://farm:8080".
	BaseURL string
	// HTTPClient overrides the transport; nil selects a client with
	// Timeout (below) as its per-attempt limit.
	HTTPClient *http.Client
	// Timeout bounds each attempt when HTTPClient is nil (default 5m).
	Timeout time.Duration
	// MaxRetries is the number of re-attempts after the first try on
	// retryable failures (default 3; negative disables retries).
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (default 200ms). The
	// delay doubles per attempt with ±50% jitter; a larger Retry-After
	// hint from the worker takes precedence.
	RetryBaseDelay time.Duration
	// MaxRetryDelay caps the backoff (default 5s).
	MaxRetryDelay time.Duration
}

// StatusError is a non-2xx reply from a farm worker, carrying the
// structured error fields when the worker sent them.
type StatusError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable error code (empty for unstructured
	// bodies).
	Code string
	// Message is the human-readable failure description.
	Message string
	// RetryAfter is the worker's backoff hint (0 if absent).
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("farm: worker returned %d %s: %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("farm: worker returned %d: %s", e.StatusCode, e.Message)
}

// Retryable reports whether a retry may succeed: the worker shed the job
// (429) or failed transiently (5xx).
func (e *StatusError) Retryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode >= 500
}

// Bounds on what a client reads from a response it will not use: the
// body of a non-200 answer (an error envelope is small) and the drain
// before close. A worker that keeps sending past either bound costs the
// connection, not the client's time.
const (
	maxErrorBodyBytes = 64 << 10
	maxDrainBytes     = 64 << 10
)

// statusError builds the StatusError for a non-200 response from at
// most maxErrorBodyBytes of its body: the ErrorBody code and message
// when the body is one, else the trimmed text, plus the Retry-After
// hint in seconds.
func statusError(resp *http.Response) *StatusError {
	// The status is the answer; a body cut short by a read error still
	// gives the text read so far as the message.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
	se := &StatusError{StatusCode: resp.StatusCode, Message: string(bytes.TrimSpace(body))}
	var eb ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error.Code != "" {
		se.Code = eb.Error.Code
		se.Message = eb.Error.Message
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// drainClose drains up to maxDrainBytes of a response body and closes
// it. A drained body returns its connection to the pool for the next
// attempt; past the bound, closing drops the connection instead.
func drainClose(body io.ReadCloser) {
	io.CopyN(io.Discard, body, maxDrainBytes)
	body.Close()
}

// newTraceID returns a random 64-bit hex correlation ID.
func newTraceID() string {
	var b [8]byte
	crand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// retryable reports whether an attempt failure is worth retrying:
// transport errors and retryable status codes are; 4xx rejections and
// context expiry are not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Retryable()
	}
	return true // transport-level failure
}

// backoffDelay computes the attempt's wait: base·2^attempt with ±50%
// jitter, capped at maxDelay. Jitter decorrelates a thundering herd of
// clients retrying against the same recovering worker.
func backoffDelay(base, maxDelay time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	jitter := 0.5 + rand.Float64()
	out := time.Duration(float64(d) * jitter)
	if out > maxDelay {
		out = maxDelay
	}
	return out
}
