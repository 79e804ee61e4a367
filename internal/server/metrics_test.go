package server

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Exposition line grammar (Prometheus text format 0.0.4).
var (
	expoHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	expoTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	expoSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
)

// scrape fetches /metricsz and validates every line against the
// exposition grammar before returning the body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	body := slurp(t, resp)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP"):
			if !expoHelpRe.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE"):
			if !expoTypeRe.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
		default:
			if !expoSampleRe.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
			}
		}
	}
	return body
}

// seriesValue extracts one integer sample from an exposition body, 0 if
// the series is absent. labels is the rendered label set, e.g.
// `{route="GET /healthz",code="200"}` or "" for label-less series.
func seriesValue(t *testing.T, body, name, labels string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name+labels) + ` ([0-9]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatalf("%s%s sample %q: %v", name, labels, m[1], err)
	}
	return n
}

// TestMetricszExposition drives traffic through the server, scrapes
// /metricsz, and asserts the exposition is grammatically valid and that
// the RED metrics counted the requests just made. The registry is
// process-global, so every assertion is a before/after delta.
func TestMetricszExposition(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})

	before := scrape(t, ts.URL)
	const healthN = 3
	for i := 0; i < healthN; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// A sweep pair: miss then LRU hit.
	for i := 0; i < 2; i++ {
		resp := post(t, ts.URL+"/v1/sweeps/alu-depth", `{"tech":"organic","max_stages":2}`)
		slurp(t, resp)
	}
	// One 404 for the error counter (the run route is POST-only; a GET
	// would answer 405).
	slurp(t, post(t, ts.URL+"/v1/experiments/nope/run", ""))

	after := scrape(t, ts.URL)

	healthLabels := `{route="GET /healthz",code="200"}`
	if d := seriesValue(t, after, "biodeg_http_requests_total", healthLabels) -
		seriesValue(t, before, "biodeg_http_requests_total", healthLabels); d != healthN {
		t.Errorf("healthz request counter delta = %d, want %d", d, healthN)
	}
	hitLabels := `{cache="response",result="hit"}`
	missLabels := `{cache="response",result="miss"}`
	if d := seriesValue(t, after, "biodeg_cache_requests_total", hitLabels) -
		seriesValue(t, before, "biodeg_cache_requests_total", hitLabels); d != 1 {
		t.Errorf("cache hit delta = %d, want 1", d)
	}
	if d := seriesValue(t, after, "biodeg_cache_requests_total", missLabels) -
		seriesValue(t, before, "biodeg_cache_requests_total", missLabels); d != 1 {
		t.Errorf("cache miss delta = %d, want 1", d)
	}
	if !regexp.MustCompile(`(?m)^biodeg_http_errors_total\{route="[^"]*",code="404"\} [0-9]+$`).MatchString(after) {
		t.Errorf("no 404 error series after a 404 response:\n%s", after)
	}
	if !strings.Contains(after, "# TYPE biodeg_breaker_state gauge") {
		t.Error("breaker state gauge missing from exposition")
	}

	// Per-route latency histogram: cumulative buckets, +Inf == _count,
	// and the healthz series counted the healthz requests.
	histRe := regexp.MustCompile(`(?m)^biodeg_http_request_duration_seconds_bucket\{route="GET /healthz",le="([^"]*)"\} ([0-9]+)$`)
	matches := histRe.FindAllStringSubmatch(after, -1)
	if len(matches) == 0 {
		t.Fatalf("no healthz latency buckets:\n%s", after)
	}
	var last int64 = -1
	var inf int64
	for _, m := range matches {
		n, _ := strconv.ParseInt(m[2], 10, 64)
		if last >= 0 && n < last {
			t.Errorf("healthz latency bucket le=%s decreased: %d -> %d", m[1], last, n)
		}
		last = n
		if m[1] == "+Inf" {
			inf = n
		}
	}
	count := seriesValue(t, after, "biodeg_http_request_duration_seconds_count", `{route="GET /healthz"}`)
	if inf != count {
		t.Errorf("+Inf bucket %d != _count %d", inf, count)
	}
	beforeCount := seriesValue(t, before, "biodeg_http_request_duration_seconds_count", `{route="GET /healthz"}`)
	if d := count - beforeCount; d != healthN {
		t.Errorf("healthz latency _count delta = %d, want %d", d, healthN)
	}
}

// TestMetricszTextFormat keeps the classic human-readable report
// reachable under ?format=text (the CI chaos job parses it).
func TestMetricszTextFormat(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})
	resp, err := http.Get(ts.URL + "/metricsz?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body := slurp(t, resp)
	if strings.Contains(body, "# TYPE") {
		t.Errorf("?format=text returned exposition format:\n%s", body)
	}
}

// TestHealthzBuildInfo asserts /healthz carries the build identity.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Build map[string]any `json:"build"`
	}
	if err := json.Unmarshal([]byte(slurp(t, resp)), &health); err != nil {
		t.Fatal(err)
	}
	if health.Build == nil {
		t.Fatal("healthz has no build object")
	}
	goVer, ok := health.Build["go"].(string)
	if !ok || !strings.HasPrefix(goVer, "go1") {
		t.Errorf("build.go = %v, want a go version", health.Build["go"])
	}
}

// TestRouteLabelBounded pins the cardinality guard: unmatched paths all
// share one label value instead of minting a series per client path.
func TestRouteLabelBounded(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})
	for _, p := range []string{"/no/such/path", "/another.one", "/yet-another"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	body := scrape(t, ts.URL)
	for _, p := range []string{"/no/such/path", "/another.one", "/yet-another"} {
		if strings.Contains(body, `route="`+p) {
			t.Errorf("raw client path %q leaked into route labels", p)
		}
	}
}
