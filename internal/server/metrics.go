package server

import (
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// RED metrics and serving-stack gauges on the process-default
// telemetry registry, scraped at GET /metricsz. Families are
// registered once at package init; the per-request path only touches
// atomic handles. The daemon owns its process, so these are
// process-global — a second Server in one process (tests) shares the
// same series.
var (
	httpRequests = telemetry.Default().Counter("biodeg_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	httpErrors = telemetry.Default().Counter("biodeg_http_errors_total",
		"HTTP responses with status >= 400, by route pattern and status code.", "route", "code")
	httpLatency = telemetry.Default().Histogram("biodeg_http_request_duration_seconds",
		"HTTP request latency by route pattern.", telemetry.LatencyBuckets, "route")
	httpInflight = telemetry.Default().Gauge("biodeg_http_requests_inflight",
		"HTTP requests currently being served.").With()
	cacheEvents = telemetry.Default().Counter("biodeg_cache_requests_total",
		"Cacheable computations by outcome: hit (LRU), miss (led the computation), coalesced (joined an identical in-flight one).",
		"cache", "result")
	admInflight = telemetry.Default().Gauge("biodeg_admission_inflight",
		"Computations currently admitted past the semaphore.").With()
	admCapacity = telemetry.Default().Gauge("biodeg_admission_capacity",
		"Admission semaphore capacity (-max-inflight).").With()
	admShed = telemetry.Default().Counter("biodeg_admission_shed_total",
		"Requests shed with 429 because the semaphore was full.").With()
	breakerGauge = telemetry.Default().Gauge("biodeg_breaker_state",
		"Circuit breaker state: 0 closed, 1 open, 2 half-open.").With()
	breakerTrips = telemetry.Default().Counter("biodeg_breaker_trips_total",
		"Times the circuit breaker tripped open.").With()
)

// responseCache is the label value of the rendered-response LRU in
// biodeg_cache_requests_total.
const responseCache = "response"

// statusWriter captures the response status (and body size) for the
// RED middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// routeLabel resolves the registered mux pattern serving r (e.g.
// "POST /v1/sweeps/{kind}"), so metric cardinality is bounded by the
// route table, never by client-chosen paths.
func (s *Server) routeLabel(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return "unmatched"
}

// observe is the RED middleware: it wraps every request in an
// "http.request" span (so log lines under this request's context carry
// its span_id), counts it by route and status, and feeds the per-route
// latency histogram. With Options.AccessLog it also emits one
// structured log line per request.
func (s *Server) observe(w http.ResponseWriter, r *http.Request) {
	route := s.routeLabel(r)
	ctx, sp := obs.Start(r.Context(), "http.request",
		obs.KV("route", route), obs.KV("method", r.Method))
	httpInflight.Inc()
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	d := time.Since(start)
	httpInflight.Dec()
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	code := strconv.Itoa(sw.code)
	sp.Set("code", code)
	sp.End()
	httpRequests.With(route, code).Inc()
	httpLatency.With(route).Observe(d.Seconds())
	if sw.code >= 400 {
		httpErrors.With(route, code).Inc()
	}
	if s.opts.AccessLog {
		slog.Default().LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("code", sw.code),
			slog.Float64("ms", float64(d.Nanoseconds())/1e6),
			slog.Int64("bytes", sw.bytes),
			slog.String("cache", sw.Header().Get(CacheHeader)),
		)
	}
}

// build is the binary's identity served by /healthz, read once from
// debug.ReadBuildInfo.
var build = sync.OnceValue(func() map[string]any {
	out := map[string]any{"go": "", "module_version": "", "vcs_revision": ""}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["go"] = bi.GoVersion
	out["module_version"] = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out["vcs_revision"] = s.Value
		case "vcs.time":
			out["vcs_time"] = s.Value
		case "vcs.modified":
			out["vcs_modified"] = s.Value == "true"
		}
	}
	return out
})
