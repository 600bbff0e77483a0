// Command acstabd is a stability-analysis farm worker: the remote
// simulation capability the paper lists under future development. It
// serves POST /batch (wire v2: one netlist + options + N variants in, an
// NDJSON stream of per-variant reports out, amortized by the worker's
// content-addressed compile cache — size it with -cache-entries; a
// single job is a one-variant batch, and the retired POST /run answers
// 410 naming /batch), GET /healthz, GET /metrics (Prometheus text
// exposition), GET /statusz (JSON status snapshot with build identity,
// numerical health and cache state), and GET /debug/runs (flight
// recorder: the last -recent-runs run records with their traces and
// outcomes, filterable with ?outcome= and ?n=). With -pprof it
// additionally exposes the net/http/pprof handlers under /debug/pprof/.
// Point any number of acstab clients — or a load balancer — at a fleet
// of workers.
//
// All logging is wide events on stderr: one canonical JSON object per
// /batch request plus one per variant, and structured lifecycle events
// (listening, drain_start, drain_end, final_metrics) instead of
// free-form log lines.
//
// On SIGINT/SIGTERM the worker stops accepting connections, drains
// in-flight batches for up to -drain-timeout, and emits a final
// metrics snapshot event before exiting.
//
// Usage:
//
//	acstabd -listen :8080 -pprof -drain-timeout 30s
//	acstab -i circuit.cir -remote http://worker:8080
//	curl http://worker:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acstab/internal/farm"
	"acstab/internal/obs"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	drain := flag.Duration("drain-timeout", 30*time.Second,
		"how long to wait for in-flight /batch requests on shutdown")
	maxConc := flag.Int("max-concurrent", 0,
		"max /batch requests in flight before shedding with 429 (0 = GOMAXPROCS)")
	reqTimeout := flag.Duration("request-timeout", 5*time.Minute,
		"per-job deadline ceiling; a request's timeout_ms is capped at this")
	recentRuns := flag.Int("recent-runs", obs.DefaultRecentRuns,
		"flight-recorder depth: how many recent runs GET /debug/runs keeps")
	cacheEntries := flag.Int("cache-entries", farm.DefaultCacheEntries,
		"compiled-system cache capacity (content-addressed LRU; 0 disables caching)")
	flag.Parse()
	cfg := farm.Config{
		MaxConcurrent: *maxConc,
		MaxTimeout:    *reqTimeout,
		RecentRuns:    *recentRuns,
		CacheEntries:  *cacheEntries,
	}
	if *cacheEntries == 0 {
		cfg.CacheEntries = -1
	}
	if err := serve(*listen, *pprofOn, *drain, cfg, obs.StderrEvents, nil); err != nil {
		fmt.Fprintf(os.Stderr, "acstabd: %v\n", err)
		os.Exit(1)
	}
}

// handler builds the worker's HTTP surface: the farm routes (with their
// observability middleware) plus, when pprofOn, the pprof handlers. pprof
// is opt-in because profile endpoints are a debugging surface one does not
// leave open on a production farm by default.
func handler(pprofOn bool, cfg farm.Config) http.Handler {
	h := farm.NewHandler(cfg)
	if !pprofOn {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the worker until a fatal listener error or a termination
// signal, then drains gracefully, narrating its lifecycle as structured
// events on log. When ready is non-nil it receives the bound address once
// the listener is up (used by tests and by operators running with
// -listen :0).
func serve(listen string, pprofOn bool, drain time.Duration, cfg farm.Config, log *obs.EventLogger, ready chan<- string) error {
	if cfg.Log == nil {
		cfg.Log = log
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler(pprofOn, cfg)}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	log.Event("listening",
		slog.String("addr", ln.Addr().String()),
		slog.Bool("pprof", pprofOn),
		slog.String("drain_timeout", drain.String()))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case sig := <-sigCh:
		log.Event("drain_start",
			slog.String("signal", sig.String()),
			slog.String("drain_timeout", drain.String()))
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr := srv.Shutdown(ctx)
		attrs := []slog.Attr{
			slog.Bool("complete", shutdownErr == nil),
			slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)),
		}
		if shutdownErr != nil {
			attrs = append(attrs, slog.String("error", shutdownErr.Error()))
		}
		log.Event("drain_end", attrs...)
		// The final metrics snapshot rides out as one wide event so a
		// scraped-on-interval worker does not lose the tail of its run
		// history on shutdown.
		log.Event("final_metrics", slog.Any("metrics", obs.Default.Snapshot()))
		return nil
	}
}
