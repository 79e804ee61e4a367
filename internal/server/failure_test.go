package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/biodeg/api"
	"repro/internal/fault"
	"repro/internal/obs"
)

// brokenEngine is a fakeEngine whose sweeps always fail.
type brokenEngine struct{ fakeEngine }

func (f *brokenEngine) Sweep(context.Context, string, api.SweepRequest) (*api.SweepResult, error) {
	f.sweeps.Add(1)
	return nil, errors.New("engine exploded")
}

// engineErrors reads the led engine failures /metricsz reports: the
// server.engine_error stage count.
func engineErrors(t *testing.T, url string) int64 {
	t.Helper()
	return seriesValue(t, scrape(t, url), "biodeg_stage_events_total", `{stage="server.engine_error"}`)
}

// TestEngineFailureClasses pins what server.engine_error counts: engine bugs,
// injected faults and deadline expiries do; client mistakes, journal
// config mismatches and client disconnects do not.
func TestEngineFailureClasses(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{fmt.Errorf("%w: nonsense", ErrBadRequest), false},
		{fmt.Errorf("%w: no such bench", ErrNotFound), false},
		{fmt.Errorf("%w: journal from elsewhere", errConfigMismatch), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, true},
		{fault.ErrInjected, true},
		{errors.New("engine exploded"), true},
	} {
		if got := isEngineFailure(tc.err); got != tc.want {
			t.Errorf("isEngineFailure(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestConsecutiveFailuresStayInternal: an engine failure is a 500 for
// its own request however many failures precede it. Every request
// reaches the engine and counts once in server.engine_error; none is
// turned away with a 503.
func TestConsecutiveFailuresStayInternal(t *testing.T) {
	eng := &brokenEngine{}
	_, ts := newTestServer(t, eng, Options{})
	before := engineErrors(t, ts.URL)
	const n = 6
	for i := 1; i <= n; i++ {
		// Distinct bodies, so neither the cache nor singleflight joins them.
		resp := post(t, ts.URL+"/v1/sweeps/alu-depth", fmt.Sprintf(`{"tech":"organic","max_stages":%d}`, i))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500 (%s)", i, resp.StatusCode, slurp(t, resp))
		}
		if e := parseEnvelope(t, resp); e.Code != api.CodeInternal {
			t.Errorf("failure %d: code %q, want %q", i, e.Code, api.CodeInternal)
		}
	}
	if got := eng.sweeps.Load(); got != n {
		t.Errorf("engine ran %d sweeps, want %d", got, n)
	}
	if d := engineErrors(t, ts.URL) - before; d != n {
		t.Errorf("server.engine_error grew by %d, want %d", d, n)
	}
}

// TestRouteInjectionCounts checks route-level injection: a rate-1
// error injector on server sites fails the leader path, counts one
// fault.error and one server.engine_error on /metricsz, and traces the
// firing as a fault.injected span at the route's site.
func TestRouteInjectionCounts(t *testing.T) {
	spec, err := fault.Parse("seed=1,rate=1,kinds=error,stages=server")
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, &fakeEngine{}, Options{Injector: fault.New(spec)})
	stages := []string{"fault.error", "fault.latency", "fault.panic", "fault.kill", "server.engine_error"}
	count := func() map[string]int64 {
		body := scrape(t, ts.URL)
		n := map[string]int64{}
		for _, st := range stages {
			n[st] = seriesValue(t, body, "biodeg_stage_events_total", `{stage="`+st+`"}`)
		}
		return n
	}
	before := count()

	resp := post(t, ts.URL+"/v1/sweeps/width", `{"tech":"organic"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected request: status %d, want 500", resp.StatusCode)
	}
	slurp(t, resp)

	after := count()
	for _, st := range stages {
		want := int64(0)
		if st == "fault.error" || st == "server.engine_error" {
			want = 1
		}
		if d := after[st] - before[st]; d != want {
			t.Errorf("%s grew by %d, want %d", st, d, want)
		}
	}
	var sites []string
	for _, sp := range obs.Collect().Spans {
		if sp.Name == "fault.injected" {
			for _, a := range sp.Attrs {
				if a.Key == "site" {
					sites = append(sites, a.Value)
				}
			}
		}
	}
	if len(sites) != 1 || sites[0] != "server:/v1/sweeps/width" {
		t.Errorf("fault.injected span sites = %v, want [server:/v1/sweeps/width]", sites)
	}
}

// TestRouteInjectedPanic: a panic injected at the route site is caught
// by the singleflight's recovery and served as a 500 internal whose
// message is one line, counted once in server.engine_error.
func TestRouteInjectedPanic(t *testing.T) {
	spec, err := fault.Parse("seed=1,rate=1,kinds=panic,stages=server")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, &fakeEngine{}, Options{Injector: fault.New(spec)})
	before := engineErrors(t, ts.URL)

	resp := post(t, ts.URL+"/v1/simulate", `{"bench":"dhrystone"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, slurp(t, resp))
	}
	e := parseEnvelope(t, resp)
	if e.Code != api.CodeInternal || strings.Contains(e.Message, "\n") ||
		!strings.Contains(e.Message, "fault: injected panic at server:/v1/simulate") {
		t.Errorf("envelope = %+v, want one-line internal naming the injected panic", e)
	}
	if d := engineErrors(t, ts.URL) - before; d != 1 {
		t.Errorf("server.engine_error grew by %d, want 1", d)
	}
}
