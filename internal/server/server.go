// Package server is the HTTP/JSON transport of the reproduction: the
// biodegd daemon serves the experiment registry, the parameterized
// design-space sweeps, and IPC simulation over the wire types of
// biodeg/api, designed to absorb heavy concurrent traffic in front of
// computations that each cost seconds to minutes.
//
// The request path layers four defenses between the socket and the
// engine:
//
//  1. A bounded LRU of rendered responses, keyed by the SHA-256 digest
//     of (route, body): repeat requests are served from memory with
//     X-Biodeg-Cache: hit.
//  2. An admission semaphore bounding in-flight computations; requests
//     beyond the bound are shed immediately with 429 and Retry-After
//     rather than queued without limit.
//  3. Singleflight coalescing (runner.Memo) of identical concurrent
//     requests: one computation runs, every waiter shares its result
//     (X-Biodeg-Cache: coalesced), and the flight is forgotten once the
//     LRU holds the rendered body.
//  4. A per-request deadline derived from the request context, so a
//     stuck sweep cannot pin a connection forever.
//
// The engine's computations are deterministic and in-process: a failure
// repeats for its input and no other, so every engine failure is a 500
// for that request alone. A 503 means only that the leading client of a
// coalesced computation disconnected.
//
// For chaos testing, an optional fault injector (internal/fault) fires
// at the route level (site "server:{path}") inside the singleflight
// leader; GET /v1/faultz reports injected and observed fault counters.
//
// Progress of the underlying sweeps is the per-stage counters
// (biodeg_stage_events_total{stage}) that GET /metricsz serves.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/biodeg/api"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// CacheHeader reports how a cacheable response was produced: "hit"
// (served from the LRU), "miss" (this request led the computation), or
// "coalesced" (attached to an identical in-flight computation).
const CacheHeader = "X-Biodeg-Cache"

// Options tunes the server's traffic posture. The zero value gets
// sensible defaults from New.
type Options struct {
	// MaxInflight bounds concurrently admitted computations; further
	// requests are shed with 429. Default 2 x GOMAXPROCS.
	MaxInflight int
	// CacheSize bounds the rendered-response LRU. Default 256.
	CacheSize int
	// RequestTimeout caps each computation; 0 means no cap beyond the
	// client's own disconnect.
	RequestTimeout time.Duration
	// Injector injects chaos at the route level (site "server:{path}")
	// and feeds /v1/faultz; nil injects nothing. The daemon passes the
	// injector of its run configuration, so route-level and sweep-level
	// injections count on one injector.
	Injector *fault.Injector
	// AccessLog emits one structured (slog) line per served request,
	// carrying the route, status, latency, and — when tracing is on —
	// the request span's id. The daemon turns it on; tests leave it off.
	AccessLog bool
}

// Server is the biodegd HTTP handler. Create with New; it is an
// http.Handler serving every route.
type Server struct {
	eng      Engine
	opts     Options
	mux      *http.ServeMux
	sem      chan struct{}
	flight   runner.Memo[string, []byte]
	cache    *resultCache
	inj      *fault.Injector
	inflight atomic.Int64
	shed     atomic.Int64
	// engineErrs counts engine-class failures observed on the leader
	// path (the "observed" half of /v1/faultz).
	engineErrs atomic.Int64
	compSeq    atomic.Int64 // led computations, the fault-draw attempt ordinal
	started    time.Time
}

// New builds the server around eng.
func New(eng Engine, opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 256
	}
	s := &Server{
		eng:     eng,
		opts:    opts,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, opts.MaxInflight),
		cache:   newResultCache(opts.CacheSize),
		inj:     opts.Injector,
		started: time.Now(),
	}
	admCapacity.Set(int64(opts.MaxInflight))
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /v1/faultz", s.handleFaultz)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/experiments/{id}/run", s.handleRunExperiment)
	s.mux.HandleFunc("POST /v1/sweeps/{kind}", s.handleSweep)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	// Method-less catch-all: unmatched requests get the error envelope
	// (404, or 405 + Allow when the path exists under other methods)
	// instead of the mux's plain-text defaults. Registering it disables
	// the mux's own 405 synthesis, so handleFallback probes for it.
	s.mux.HandleFunc("/", s.handleFallback)
}

// ServeHTTP implements http.Handler. Every request passes through the
// RED middleware (per-route request counts, error counts, latency
// histogram, in-flight gauge, request span, optional access log)
// before the mux dispatches it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.observe(w, r)
}

// maxBody bounds request bodies; every legitimate request is tiny JSON.
const maxBody = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	writeJSONBytes(w, status, b)
}

func writeJSONBytes(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
}

// writeError renders the versioned error envelope (api.Error): a
// stable machine-readable code derived from the status, the
// human-readable message, and a retry hint mirroring any Retry-After
// header already set on w. Served as application/problem+json so
// clients can distinguish the envelope from result bodies.
func writeError(w http.ResponseWriter, status int, msg string) {
	e := api.Error{Code: api.CodeFor(status), Message: msg}
	if ra := w.Header().Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			e.RetryAfterS = float64(secs)
		}
	}
	b, _ := json.Marshal(e)
	w.Header().Set("Content-Type", api.ProblemContentType)
	w.WriteHeader(status)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
}

// handleFallback serves every request no explicit route matched, with
// the error envelope instead of the mux's plain-text defaults. It
// distinguishes "wrong method" from "no such path" by probing the mux
// under the other methods — registering a catch-all pattern disables
// the mux's own 405 synthesis, so the probe recreates it (with Allow).
func (s *Server) handleFallback(w http.ResponseWriter, r *http.Request) {
	var allowed []string
	for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
		if m == r.Method {
			continue
		}
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := s.mux.Handler(probe); pattern != "" && pattern != "/" {
			allowed = append(allowed, m)
		}
	}
	if len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeError(w, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed on "+r.URL.Path)
		return
	}
	writeError(w, http.StatusNotFound, "no such route: "+r.Method+" "+r.URL.Path)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"build":      build(),
		"uptime_s":   time.Since(s.started).Seconds(),
		"inflight":   s.inflight.Load(),
		"shed_total": s.shed.Load(),
		"cached":     s.cache.Len(),
	})
}

// handleMetricsz serves the process-default telemetry registry in
// Prometheus text exposition format; ?format=text keeps the classic
// human-readable per-stage report.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, obs.StageReport()) //nolint:errcheck
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version":     "v1",
		"experiments": s.eng.Experiments(),
	})
}

// errStatus maps an engine error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, errConfigMismatch):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The leading client went away; waiters see its cancellation.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// serveComputed is the shared path of every expensive endpoint: LRU
// lookup, admission, singleflight, compute, render, cache. route and
// body together form the identity of the computation.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, route string, compute func(ctx context.Context) (any, error)) {
	key := obs.Digest(route)

	if b, ok := s.cache.Get(key); ok {
		cacheEvents.With(responseCache, "hit").Inc()
		w.Header().Set(CacheHeader, "hit")
		writeJSONBytes(w, http.StatusOK, b)
		return
	}

	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		admInflight.Inc()
		defer func() {
			s.inflight.Add(-1)
			admInflight.Dec()
			<-s.sem
		}()
	default:
		s.shed.Add(1)
		admShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity (%d in flight); retry later", s.opts.MaxInflight))
		return
	}

	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}

	led := false
	site := "server:" + r.URL.Path
	body, err := s.flight.Do(key, func() ([]byte, error) {
		led = true
		// Fault injection wraps only the leader: coalesced waiters share
		// the leader's outcome without multiplying fault draws. The draw
		// is keyed by (site, attempt); the site is just the route, so use
		// the computation ordinal as the attempt — each led computation
		// gets an independent draw (rate applies per computation, not
		// once per path) while a fixed request sequence still replays
		// exactly. A panic here or in compute becomes the Memo's
		// *runner.PanicError; a kill fault exits the process here.
		if err := s.inj.Inject(fault.WithAttempt(ctx, int(s.compSeq.Add(1))), site); err != nil {
			return nil, err
		}
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(v)
	})
	// Count on the leader only, so coalesced waiters do not multiply
	// one failure.
	if led && isEngineFailure(err) {
		s.engineErrs.Add(1)
		obs.Add("server.engine_error", 1)
	}
	if err != nil {
		status, msg := errStatus(err), err.Error()
		if status == http.StatusInternalServerError {
			// The full error (a recovered panic carries its goroutine
			// stack) goes to the log under the request's span; the
			// envelope keeps its first line.
			slog.ErrorContext(r.Context(), "engine failure", "path", r.URL.Path, "err", msg)
			msg, _, _ = strings.Cut(msg, "\n")
		}
		writeError(w, status, msg)
		return
	}
	if led {
		// Promote the rendered body into the LRU and retire the flight:
		// the Memo stays a pure coalescing layer, the LRU the only
		// long-lived store (bounded, unlike the Memo's success cache).
		s.cache.Add(key, body)
		s.flight.Forget(key)
		cacheEvents.With(responseCache, "miss").Inc()
		w.Header().Set(CacheHeader, "miss")
	} else {
		cacheEvents.With(responseCache, "coalesced").Inc()
		w.Header().Set(CacheHeader, "coalesced")
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// isEngineFailure classifies err for the engine_errors count of
// /v1/faultz: engine bugs, injected faults, and timeouts count; client
// mistakes (400/404), config-digest conflicts (409), and client
// disconnects do not.
func isEngineFailure(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrBadRequest) &&
		!errors.Is(err, ErrNotFound) &&
		!errors.Is(err, errConfigMismatch) &&
		!errors.Is(err, context.Canceled)
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	if len(body) > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge,
			"body exceeds "+strconv.Itoa(maxBody)+" bytes")
		return nil, false
	}
	return body, true
}

// decode unmarshals body into v, tolerating an empty body (all-default
// request) and rejecting unknown fields so typos fail loudly. The body
// must hold exactly one JSON value: anything after it but whitespace is
// a 400, so a concatenated or truncated-then-padded body never runs.
func decode(w http.ResponseWriter, body []byte, v any) bool {
	if len(body) == 0 {
		return true
	}
	dec := json.NewDecoder(bytesReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request: "+err.Error())
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeError(w, http.StatusBadRequest, "parsing request: trailing data after the JSON body")
		return false
	}
	return true
}
