// Command biodegd is the reproduction's long-running daemon: an
// HTTP/JSON service exposing the experiment registry, the design-space
// sweeps, and IPC simulation for concurrent clients.
//
// Usage:
//
//	biodegd [-addr :8080] [-max-inflight N] [-cache N]
//	        [-request-timeout 5m] [-drain-timeout 30s]
//	        [common flags]
//
// Endpoints:
//
//	GET  /healthz                    liveness + traffic counters + build info
//	GET  /metricsz                   Prometheus text exposition (?format=text
//	                                 for the per-stage wall-time report)
//	GET  /v1/experiments             registry listing
//	POST /v1/experiments/{id}/run    run one experiment
//	POST /v1/sweeps/{kind}           alu-depth | core-depth | width
//	POST /v1/simulate                one benchmark through the core model
//
// Sweep progress, injected faults and engine failures are the
// per-stage counters /metricsz serves (biodeg_stage_events_total{stage});
// profiles come from the common -pprof flag, which serves them on a
// separate address.
//
// Every non-2xx response from a /v1/* route is the versioned
// problem+json error envelope {code, message, retry_after_s, detail}
// with Content-Type application/problem+json; see biodeg/api.Error.
// A 500's message is the error's first line; the daemon logs the full
// error (a recovered panic's stack included) with the request's span_id.
//
// Expensive responses carry X-Biodeg-Cache: hit | miss | coalesced.
// A request shed by the admission semaphore gets 429 + Retry-After.
// Every engine failure is a 500 for that request alone, however many
// precede it; a 503 means the leading client of a coalesced
// computation disconnected. SIGINT/SIGTERM drains in-flight
// requests (bounded by -drain-timeout) before exit, then prints the
// -metrics report and writes any requested trace/manifest sinks.
//
// With -checkpoint DIR every sweep journals its completed grid points,
// so a killed daemon resumes without recomputing them. The journal is
// bound to the -faults/-partial posture: a directory written under
// other knobs answers 409 config_mismatch rather than merging. After a
// restart on the same directory, the next request for an interrupted
// sweep replays its journaled points instead of recomputing them.
//
// Common flags (each defaults from the matching BIODEG_* environment
// variable; explicit flags win): -workers, -metrics, -libcache,
// -trace, -jsonl, -manifest, -pprof, -faults, -partial,
// -checkpoint, -log-format, -log-level.
// Every daemon log line goes through log/slog (-log-format json for
// machine-readable logs) and carries the span_id of its enclosing
// span, so logs correlate with -trace output. With -faults the daemon
// injects deterministic chaos into its own sweeps (sites
// "server:{path}", "depth-point:...", ...) and counts each firing on
// /metricsz (stage "fault.<kind>").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/biodeg"
	"repro/internal/cli"
	"repro/internal/server"
)

func main() {
	opts := cli.Register(flag.CommandLine)
	addr := flag.String("addr", ":8080", "listen address")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted computations, 0 = 2 x GOMAXPROCS")
	cacheSize := flag.Int("cache", 256, "rendered-response LRU capacity")
	reqTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-computation deadline, 0 = none")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	flag.Parse()

	run, runCtx, err := opts.Start("biodegd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "biodegd: %v\n", err)
		os.Exit(1)
	}

	// One shared session serves every request under the configuration
	// the flags resolved to, fixed for the daemon's lifetime.
	session := biodeg.New(opts.Config)
	srv := server.New(server.NewSessionEngine(session), server.Options{
		MaxInflight:    *maxInflight,
		CacheSize:      *cacheSize,
		RequestTimeout: *reqTimeout,
		Injector:       opts.Faults,
		AccessLog:      true,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		slog.InfoContext(runCtx, "listening", "addr", *addr, "workers", opts.WorkerCount())
		errCh <- httpSrv.ListenAndServe()
	}()

	exit := 0
	select {
	case err := <-errCh:
		slog.ErrorContext(runCtx, "serve failed", "err", err)
		exit = 1
	case <-ctx.Done():
		slog.InfoContext(runCtx, "signal received, draining", "timeout", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			slog.ErrorContext(runCtx, "drain failed", "err", err)
			exit = 1
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			slog.ErrorContext(runCtx, "serve failed", "err", err)
			exit = 1
		}
	}

	if err := run.Finish(); err != nil {
		slog.ErrorContext(runCtx, "sink write failed", "err", err)
		exit = 1
	}
	os.Exit(exit)
}
