package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"acstab/internal/farm"
	"acstab/internal/netlist"
	"acstab/internal/obs"
	"acstab/internal/report"
	"acstab/internal/tool"
)

// chunks is the number of timed chunks per workload. CPU and allocation
// metrics are medians over chunks: each chunk runs whole pool cycles, so
// chunk-to-chunk variation is noise, not input mix.
const chunks = 10

// outcome is one analysis's rendered report, or why it failed.
type outcome struct {
	report []byte
	err    error
}

// analyzer runs one pool entry through the program the way its users do
// and returns one outcome per analysis.
type analyzer interface {
	run(ctx context.Context, j *job) []outcome
	close()
}

// cli is the in-process CLI: netlist text to rendered report through the
// default tool options, exactly the `acstab -i` / `acstab -node` flow.
type cli struct{}

func (cli) close() {}

func (cli) run(ctx context.Context, j *job) []outcome {
	b, err := runCLI(ctx, j)
	return []outcome{{b, err}}
}

func runCLI(ctx context.Context, j *job) ([]byte, error) {
	ckt, err := netlist.Parse(j.text)
	if err != nil {
		return nil, err
	}
	t, err := tool.New(ckt, tool.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if j.node != "" {
		nr, err := t.SingleNode(ctx, j.node)
		if err != nil {
			return nil, err
		}
		writeSingle(&buf, nr)
		return buf.Bytes(), nil
	}
	rep, err := t.AllNodes(ctx)
	if err != nil {
		return nil, err
	}
	if err := report.Text(&buf, rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// worker is an in-process farm worker with its default configuration
// (wide events go to a discarding sink instead of stderr) behind a
// loopback listener, and a client holding one keep-alive connection.
type worker struct {
	srv    *http.Server
	served chan struct{}
	tr     *http.Transport
	client *farm.Client
}

func startWorker() (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &worker{
		srv:    &http.Server{Handler: farm.NewHandler(farm.Config{Log: obs.NewEventLogger(io.Discard)})},
		served: make(chan struct{}),
		tr:     &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	w.client = &farm.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: w.tr},
		MaxRetries: -1,
	}
	go func() {
		defer close(w.served)
		w.srv.Serve(ln)
	}()
	return w, nil
}

// close stops the server and waits for its serve loop to return.
func (w *worker) close() {
	w.srv.Close()
	<-w.served
	w.tr.CloseIdleConnections()
}

func (w *worker) run(ctx context.Context, j *job) []outcome {
	out := make([]outcome, j.analyses())
	res, err := w.client.SubmitBatch(ctx, wireRequest(j))
	if err != nil {
		for i := range out {
			out[i].err = err
		}
		return out
	}
	for i, r := range res {
		out[i] = outcome{r.Body, r.Err}
	}
	return out
}

// wireRequest is the wire-v2 batch that carries job j: its variants, or
// one plain variant for a CLI job, in Single Node mode when j probes a
// node, with the JSON report.
func wireRequest(j *job) *farm.BatchRequest {
	variants := j.variants
	if len(variants) == 0 {
		variants = []farm.Variant{{}}
	}
	return &farm.BatchRequest{Netlist: j.text, Format: "json", Node: j.node, Variants: variants}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// interval is a stretch of the timed pass, in sampler time.
type interval struct{ from, to time.Duration }

// setUp runs the workload's set-up once and returns the analyzer it
// leaves warm and the interval it took. On the CLI workloads set-up is the
// warm-up pass over the first w.warm pool entries; on the batch workload
// it is starting a fresh worker plus the cold batches that fill its
// compile cache. Every analysis in set-up must succeed.
func setUp(ctx context.Context, w *workload, pool []job, smp *sampler) (analyzer, interval, error) {
	entries := pool
	if w.warm > 0 && w.warm < len(pool) {
		entries = pool[:w.warm]
	}
	iv := interval{from: smp.now()}
	var an analyzer = cli{}
	if w.batch {
		wk, err := startWorker()
		if err != nil {
			return nil, iv, err
		}
		an = wk
	}
	if err := runAll(ctx, an, entries); err != nil {
		an.close()
		return nil, iv, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	iv.to = smp.now()
	return an, iv, nil
}

// runAll runs every job once and returns the first failure.
func runAll(ctx context.Context, an analyzer, jobs []job) error {
	for i := range jobs {
		for _, o := range an.run(ctx, &jobs[i]) {
			if o.err != nil {
				return o.err
			}
		}
	}
	return nil
}

// minChunkRequests is the least number of requests in a chunk, so that a
// run has at least 100 latency samples and p90 has 10 beyond it.
const minChunkRequests = 10

// timedResult is the outcome of the timed chunks.
type timedResult struct {
	// One value per chunk: CPU and allocation per analysis, and the
	// chunk's request latency percentiles; times are normalized.
	cpuMS, allocKB, p50MS, p90MS []float64
	// The run's latency percentiles over every request.
	p50, p90 float64
	rawCPUMS []float64 // cpuMS before normalization
	sampleUS float64   // the reference's median time per sample
	samples  int       // speed samples taken
	stolen   float64   // the sampler's share of the requests' time
	requests int       // latency samples, one per request
	setupS   []float64 // one per set-up repetition
	checker
}

// measure sets the workload up, then runs the timed chunks, each whole
// pool cycles (so every chunk runs the same circuit mix) until its share
// of seconds has passed. Load is closed-loop with one client. A sampler
// runs throughout, and every request's CPU and latency and every set-up's
// wall time are normalized by the machine's speed during it (see
// calib.go). CPU and allocation are summarized per chunk and reported as
// the median over chunks, so a burst of contention from outside the
// process moves one chunk, not the result; latency percentiles are taken
// over every request. Set-up is repeated setupReps times, spread between
// the chunks for the same reason, each from a collected heap. Outputs are
// verified after each chunk, outside its measured window.
func measure(ctx context.Context, w *workload, pool []job, seconds float64, setupReps int) (*timedResult, error) {
	runtime.GC() // building the pool is not the set-up's cost
	smp := startSampler()
	defer smp.close()
	an, iv, err := setUp(ctx, w, pool, smp)
	if err != nil {
		return nil, err
	}
	defer an.close()
	setups := []interval{iv}
	setupBefore := map[int]bool{}
	for k := 1; k < setupReps; k++ {
		setupBefore[k*chunks/setupReps] = true
	}
	// One request: its interval and process CPU, and its outcomes until
	// they are verified.
	type request struct {
		interval
		cpu      time.Duration
		j        *job
		out      []outcome
		analyses int
		failed   bool
	}
	reqs := make([][]request, chunks)
	target := time.Duration(seconds / chunks * float64(time.Second))
	tr := &timedResult{}
	cursor, capacity := 0, 2*minChunkRequests
	for c := 0; c < chunks; c++ {
		if setupBefore[c] {
			runtime.GC()
			fresh, iv, err := setUp(ctx, w, pool, smp)
			if err != nil {
				return nil, err
			}
			fresh.close()
			setups = append(setups, iv)
			runtime.GC() // the repetition's garbage is not the next chunk's cost
		}
		// Sized from the chunks before, so that the bench's own records
		// do not grow, and allocate, inside the measured window.
		rs := make([]request, 0, capacity)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for len(rs) < minChunkRequests || time.Since(t0) < target {
			for k := 0; k < w.cycle; k++ {
				r := request{j: &pool[cursor%len(pool)]}
				cursor++
				cpu0 := cpuTime()
				r.from = smp.now()
				r.out = an.run(ctx, r.j)
				r.to = smp.now()
				r.cpu = cpuTime() - cpu0
				rs = append(rs, r)
			}
		}
		runtime.ReadMemStats(&m1)
		n := 0
		for i := range rs {
			r := &rs[i]
			r.analyses = len(r.out)
			n += r.analyses
			for a, o := range r.out {
				r.failed = r.failed || o.err != nil
				tr.verify(r.j, a, o.report, o.err, w.batch)
			}
			r.out = nil
		}
		tr.allocKB = append(tr.allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(n))
		reqs[c] = rs
		capacity = max(capacity, 2*len(rs))
	}
	smp.close()
	for _, iv := range setups {
		f, st := smp.over(iv.from, iv.to)
		tr.setupS = append(tr.setupS, (iv.to-iv.from-st).Seconds()*f)
	}
	cpuMS := make([]float64, chunks)
	rawMS := make([]float64, chunks)
	analyses := make([]int, chunks)
	latencyMS := make([][]float64, chunks)
	var all []float64
	var stolen, busy time.Duration
	for c, rs := range reqs {
		for _, r := range rs {
			f, st := smp.over(r.from, r.to)
			stolen += st
			busy += r.to - r.from
			cpuMS[c] += float64(r.cpu-st) / float64(time.Millisecond) * f
			rawMS[c] += float64(r.cpu) / float64(time.Millisecond)
			analyses[c] += r.analyses
			ms := math.Inf(1)
			if !r.failed {
				ms = float64(r.to-r.from-st) / float64(time.Millisecond) * f
			}
			latencyMS[c] = append(latencyMS[c], ms)
			all = append(all, ms)
		}
	}
	for c := 0; c < chunks; c++ {
		tr.cpuMS = append(tr.cpuMS, cpuMS[c]/float64(analyses[c]))
		tr.rawCPUMS = append(tr.rawCPUMS, rawMS[c]/float64(analyses[c]))
		tr.p50MS = append(tr.p50MS, percentile(latencyMS[c], 0.5))
		tr.p90MS = append(tr.p90MS, percentile(latencyMS[c], 0.9))
	}
	tr.p50, tr.p90, tr.requests = percentile(all, 0.5), percentile(all, 0.9), len(all)
	took := make([]float64, len(smp.took))
	for i, d := range smp.took {
		took[i] = float64(d) / float64(time.Microsecond)
	}
	tr.sampleUS, tr.samples = median(took), len(took)
	tr.stolen = float64(stolen) / float64(busy)
	return tr, nil
}
