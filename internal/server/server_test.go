package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/biodeg/api"
	"repro/internal/obs"
	"repro/internal/runner"
)

// fakeEngine counts calls and can hold computations open until released.
type fakeEngine struct {
	sweeps  atomic.Int64
	runs    atomic.Int64
	release chan struct{} // when non-nil, computations wait on it (or ctx)
}

func (f *fakeEngine) wait(ctx context.Context) error {
	if f.release == nil {
		return nil
	}
	select {
	case <-f.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fakeEngine) Experiments() []api.ExperimentInfo {
	return []api.ExperimentInfo{{ID: "fig3", Title: "inverter DC transfer"}}
}

func (f *fakeEngine) RunExperiment(ctx context.Context, id string) (*api.ExperimentResult, error) {
	f.runs.Add(1)
	if id != "fig3" {
		return nil, fmt.Errorf("%w: unknown experiment %q", ErrNotFound, id)
	}
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return &api.ExperimentResult{Version: api.Version, ID: id, Title: "inverter DC transfer"}, nil
}

func (f *fakeEngine) Sweep(ctx context.Context, kind string, req api.SweepRequest) (*api.SweepResult, error) {
	f.sweeps.Add(1)
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return &api.SweepResult{
		Version: api.Version, Kind: kind, Tech: req.Tech,
		ALU: []api.ALUPoint{{Stages: 1, FreqHz: 1000}},
	}, nil
}

func (f *fakeEngine) Simulate(ctx context.Context, req api.SimulateRequest) (*api.SimulateResult, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return &api.SimulateResult{Version: api.Version, Bench: req.Bench, Stats: api.Stats{IPC: 0.5}}, nil
}

func newTestServer(t *testing.T, eng Engine, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(eng, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func slurp(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHealthzAndExperiments(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})

	health := healthz(t, ts.URL)
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", health["status"])
	}
	for _, k := range []string{"status", "build", "uptime_s", "inflight", "shed_total", "cached"} {
		if _, ok := health[k]; !ok {
			t.Errorf("healthz lacks %q: %v", k, health)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	body := slurp(t, resp)
	if !strings.Contains(body, `"fig3"`) {
		t.Errorf("experiment list missing fig3: %s", body)
	}
}

// waitAdmitted polls until n computations hold admission slots. The
// gauge is process-global, and every earlier test's server has drained
// (httptest.Server.Close waits for outstanding requests).
func waitAdmitted(n int64) {
	for admInflight.Value() < n {
		time.Sleep(time.Millisecond)
	}
}

// healthz fetches /healthz as a generic map.
func healthz(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(slurp(t, resp)), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// shedTotals reads the shed count from /healthz and from /metricsz.
func shedTotals(t *testing.T, url string) (health float64, series int64) {
	t.Helper()
	health, _ = healthz(t, url)["shed_total"].(float64)
	return health, seriesValue(t, scrape(t, url), "biodeg_admission_shed_total", "")
}

func TestSweepMissThenHit(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, eng, Options{})
	url := ts.URL + "/v1/sweeps/alu-depth"

	resp := post(t, url, `{"tech":"organic","max_stages":3}`)
	if resp.StatusCode != 200 || resp.Header.Get(CacheHeader) != "miss" {
		t.Fatalf("first call: status %d, cache %q; want 200 miss",
			resp.StatusCode, resp.Header.Get(CacheHeader))
	}
	first := slurp(t, resp)

	// Same request, different whitespace and field order: still a hit.
	resp = post(t, url, `{ "max_stages": 3, "tech": "organic" }`)
	if resp.Header.Get(CacheHeader) != "hit" {
		t.Errorf("second call cache = %q, want hit", resp.Header.Get(CacheHeader))
	}
	if got := slurp(t, resp); got != first {
		t.Errorf("cached body differs:\n%s\nvs\n%s", got, first)
	}
	if n := eng.sweeps.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}

	// A different request misses again.
	resp = post(t, url, `{"tech":"silicon"}`)
	if resp.Header.Get(CacheHeader) != "miss" {
		t.Errorf("distinct request cache = %q, want miss", resp.Header.Get(CacheHeader))
	}
	slurp(t, resp)
}

// TestCoalescing fires identical concurrent requests at a blocked
// engine and checks exactly one computation ran: one response is the
// leader ("miss"), the rest attach to its flight ("coalesced").
func TestCoalescing(t *testing.T) {
	const n = 8
	eng := &fakeEngine{release: make(chan struct{})}
	_, ts := newTestServer(t, eng, Options{MaxInflight: n})
	url := ts.URL + "/v1/sweeps/width"

	var wg sync.WaitGroup
	headers := make([]string, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := post(t, url, `{"tech":"organic"}`)
			headers[i] = resp.Header.Get(CacheHeader)
			bodies[i] = slurp(t, resp)
		}(i)
	}

	// Release once every request has been admitted (all n hold
	// semaphore slots: the leader computing, the rest waiting in the
	// flight).
	waitAdmitted(n)
	close(eng.release)
	wg.Wait()

	if got := eng.sweeps.Load(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical requests, want 1", got, n)
	}
	miss, coalesced := 0, 0
	for i, h := range headers {
		switch h {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("request %d: cache header %q", i, h)
		}
		if bodies[i] != bodies[0] {
			t.Errorf("request %d body differs", i)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Errorf("miss/coalesced = %d/%d, want 1/%d", miss, coalesced, n-1)
	}
}

// TestAdmission429 fills the single admission slot and checks the next
// request is shed with 429 + Retry-After instead of queueing, and that
// the shed moves /healthz's shed_total and /metricsz's
// biodeg_admission_shed_total by exactly one each.
func TestAdmission429(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	_, ts := newTestServer(t, eng, Options{MaxInflight: 1})
	healthBefore, seriesBefore := shedTotals(t, ts.URL)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := post(t, ts.URL+"/v1/sweeps/width", `{"tech":"organic"}`)
		if resp.StatusCode != 200 {
			t.Errorf("occupying request: status %d", resp.StatusCode)
		}
		slurp(t, resp)
	}()
	waitAdmitted(1)
	if h := healthz(t, ts.URL); h["inflight"] != float64(1) {
		t.Errorf("/healthz inflight = %v with one admitted request, want 1", h["inflight"])
	}

	resp := post(t, ts.URL+"/v1/sweeps/width", `{"tech":"silicon"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	slurp(t, resp)
	healthAfter, seriesAfter := shedTotals(t, ts.URL)
	if d := healthAfter - healthBefore; d != 1 {
		t.Errorf("/healthz shed_total grew by %v, want 1", d)
	}
	if d := seriesAfter - seriesBefore; d != 1 {
		t.Errorf("biodeg_admission_shed_total grew by %d, want 1", d)
	}

	close(eng.release)
	<-done

	// With the slot free again the request is admitted.
	resp = post(t, ts.URL+"/v1/sweeps/width", `{"tech":"silicon"}`)
	if resp.StatusCode != 200 {
		t.Errorf("post-drain status = %d, want 200", resp.StatusCode)
	}
	slurp(t, resp)
}

// TestGracefulDrain checks http.Server.Shutdown waits for an in-flight
// computation to finish and lets its response out before returning.
func TestGracefulDrain(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Options{})
	httpSrv := &http.Server{Handler: s}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln) //nolint:errcheck

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/sweeps/width",
			"application/json", strings.NewReader(`{}`))
		if err != nil {
			status <- -1
			return
		}
		io.ReadAll(resp.Body) //nolint:errcheck
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitAdmitted(1)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(eng.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-status; got != 200 {
		t.Errorf("drained request status = %d, want 200", got)
	}
}

func TestRequestTimeout(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})} // never released
	defer close(eng.release)
	_, ts := newTestServer(t, eng, Options{RequestTimeout: 30 * time.Millisecond})

	resp := post(t, ts.URL+"/v1/sweeps/width", `{}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timed-out request status = %d, want 504", resp.StatusCode)
	}
	slurp(t, resp)
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/sweeps/bogus-kind", `{}`, 404},
		{"POST", "/v1/sweeps/width", `{"tech": }`, 400},
		{"POST", "/v1/sweeps/width", `{"unknown_field": 1}`, 400},
		{"POST", "/v1/experiments/nope/run", ``, 404},
		{"GET", "/v1/experiments/fig3/run", ``, 405},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%s %s -> %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
		slurp(t, resp)
	}
}

// TestErrorsAreNotCached checks a failed computation is retried rather
// than served from either caching layer.
func TestErrorsAreNotCached(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, eng, Options{})

	for i := 0; i < 2; i++ {
		resp := post(t, ts.URL+"/v1/experiments/nope/run", ``)
		if resp.StatusCode != 404 {
			t.Fatalf("call %d: status %d, want 404", i, resp.StatusCode)
		}
		slurp(t, resp)
	}
	if n := eng.runs.Load(); n != 2 {
		t.Errorf("failed computation ran %d times, want 2 (errors must not cache)", n)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.Add("a", []byte("1"))
	c.Add("b", []byte("2"))
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// parseEnvelope asserts a non-2xx response carries the versioned
// problem+json envelope and returns it.
func parseEnvelope(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != api.ProblemContentType {
		t.Errorf("status %d Content-Type = %q, want %q", resp.StatusCode, ct, api.ProblemContentType)
	}
	body := slurp(t, resp)
	e, ok := api.ParseError([]byte(body))
	if !ok {
		t.Fatalf("status %d body is not an error envelope: %s", resp.StatusCode, body)
	}
	return e
}

// TestFallbackEnvelope: unknown routes 404 and known paths under wrong
// methods 405 (with Allow), both in the envelope.
func TestFallbackEnvelope(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})

	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", resp.StatusCode)
	}
	if e := parseEnvelope(t, resp); e.Code != api.CodeNotFound {
		t.Errorf("unknown route: code %q, want %q", e.Code, api.CodeNotFound)
	}

	// /v1/simulate exists, but only under POST.
	resp, err = http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("GET /v1/simulate: Allow = %q, want POST", allow)
	}
	if e := parseEnvelope(t, resp); e.Code != api.CodeMethodNotAllowed {
		t.Errorf("GET /v1/simulate: code %q, want %q", e.Code, api.CodeMethodNotAllowed)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/alu-depth", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/sweeps/alu-depth: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("DELETE /v1/sweeps/alu-depth: Allow = %q, want POST", allow)
	}
	slurp(t, resp)
}

// TestEveryErrorIsEnveloped sweeps failing requests across the /v1/*
// surface and asserts each non-2xx response parses as the envelope
// with the code matching its status.
func TestEveryErrorIsEnveloped(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})

	cases := []struct {
		method, path, body string
		status             int
	}{
		{http.MethodGet, "/v1/experiments/nope", "", http.StatusNotFound},
		{http.MethodPost, "/v1/experiments/nope/run", "", http.StatusNotFound},
		{http.MethodPost, "/v1/sweeps/no-such-kind", `{"tech":"organic"}`, http.StatusNotFound},
		{http.MethodPost, "/v1/simulate", `{"bench":`, http.StatusBadRequest},
		{http.MethodPost, "/v1/simulate", `{"bench":"dhrystone"}{"bench":"gzip"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/simulate", `{"bench":"dhrystone"} trailing`, http.StatusBadRequest},
		{http.MethodPost, "/v1/sweeps/alu-depth", `{"tech":"organic"}]`, http.StatusBadRequest},
		// Retired routes fall through to the 404 envelope.
		{http.MethodGet, "/v1/progress", "", http.StatusNotFound},
		{http.MethodGet, "/debug/pprof/", "", http.StatusNotFound},
		{http.MethodPut, "/v1/simulate", "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/totally/unknown", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := do(t, tc.method, ts.URL+tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.status, slurp(t, resp))
		}
		e := parseEnvelope(t, resp)
		if e.Code != api.CodeFor(tc.status) || e.Message == "" {
			t.Errorf("%s %s: envelope %+v, want code %q and a message", tc.method, tc.path, e, api.CodeFor(tc.status))
		}
	}
}

// TestJobRoutesDisabledWithoutStore checks that the retired job routes
// answer with the 404 envelope: no server carries a job store any more.
// The retired fault-counter route /v1/faultz answers the same way.
func TestJobRoutesDisabledWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, &fakeEngine{}, Options{})
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", `{"kind":"alu-depth"}`},
		{http.MethodGet, "/v1/jobs", ""},
		{http.MethodGet, "/v1/jobs/x", ""},
		{http.MethodGet, "/v1/faultz", ""},
	} {
		resp, err := do(t, tc.method, ts.URL+tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404 (%s)", tc.method, tc.path, resp.StatusCode, slurp(t, resp))
		}
		if e := parseEnvelope(t, resp); e.Code != api.CodeFor(http.StatusNotFound) {
			t.Errorf("%s %s: envelope %+v, want code %q", tc.method, tc.path, e, api.CodeFor(http.StatusNotFound))
		}
	}
}

// do issues one request with an optional JSON body.
func do(t *testing.T, method, url, body string) (*http.Response, error) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return http.DefaultClient.Do(req)
}

// panicEngine fails every simulation with a recovered worker panic,
// whose message carries the goroutine stack.
type panicEngine struct{ fakeEngine }

func (*panicEngine) Simulate(context.Context, api.SimulateRequest) (*api.SimulateResult, error) {
	return nil, fmt.Errorf("simulate: %w", &runner.PanicError{
		Index: -1,
		Value: "runtime error: negative shift amount",
		Stack: []byte("goroutine 7 [running]:\nrepro/internal/uarch.newPredictor(...)"),
	})
}

// TestInternalErrorEnvelopeOmitsStack: a 500's envelope carries the
// error's first line only, and the full error, stack included, goes to
// the log under the request's span_id.
func TestInternalErrorEnvelopeOmitsStack(t *testing.T) {
	var logs strings.Builder
	old := slog.Default()
	slog.SetDefault(slog.New(obs.NewLogHandler(slog.NewTextHandler(&logs, nil))))
	t.Cleanup(func() { slog.SetDefault(old) })
	obs.Enable()
	t.Cleanup(obs.Disable)

	_, ts := newTestServer(t, &panicEngine{}, Options{})
	resp := post(t, ts.URL+"/v1/simulate", `{"bench":"dhrystone"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	e := parseEnvelope(t, resp)
	if want := "simulate: runner: computation panicked: runtime error: negative shift amount"; e.Message != want {
		t.Errorf("envelope message = %q, want %q", e.Message, want)
	}
	if got := logs.String(); !strings.Contains(got, "goroutine 7 [running]") || !strings.Contains(got, "span_id=") {
		t.Errorf("log lacks the stack or the span_id:\n%s", got)
	}
}
