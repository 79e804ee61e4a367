package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/biodeg/api"
	"repro/internal/fault"
)

// brokenEngine is a fakeEngine whose sweeps always fail.
type brokenEngine struct{ fakeEngine }

func (f *brokenEngine) Sweep(context.Context, string, api.SweepRequest) (*api.SweepResult, error) {
	f.sweeps.Add(1)
	return nil, errors.New("engine exploded")
}

// faultz fetches /v1/faultz as a generic map plus its observed counters.
func faultz(t *testing.T, url string) (map[string]json.RawMessage, map[string]int64) {
	t.Helper()
	resp, err := http.Get(url + "/v1/faultz")
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal([]byte(slurp(t, resp)), &all); err != nil {
		t.Fatal(err)
	}
	var observed map[string]int64
	if err := json.Unmarshal(all["observed"], &observed); err != nil {
		t.Fatal(err)
	}
	return all, observed
}

// TestEngineFailureClasses pins what engine_errors counts: engine bugs,
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
// reaches the engine and counts once in engine_errors; none is turned
// away with a 503.
func TestConsecutiveFailuresStayInternal(t *testing.T) {
	eng := &brokenEngine{}
	_, ts := newTestServer(t, eng, Options{})
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
	all, observed := faultz(t, ts.URL)
	if observed["engine_errors"] != n {
		t.Errorf("observed engine_errors = %d, want %d", observed["engine_errors"], n)
	}
	if len(all) != 3 || all["version"] == nil || all["injected"] == nil {
		t.Errorf("/v1/faultz has keys other than version, injected, observed: %v", all)
	}
}

// TestFaultzWithInjector checks route-level injection: a rate-1 error
// injector on server sites fails the leader path and counts in
// /v1/faultz.
func TestFaultzWithInjector(t *testing.T) {
	spec, err := fault.Parse("seed=1,rate=1,kinds=error,stages=server")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(spec)
	_, ts := newTestServer(t, &fakeEngine{}, Options{Injector: inj})

	resp := post(t, ts.URL+"/v1/sweeps/width", `{"tech":"organic"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected request: status %d, want 500", resp.StatusCode)
	}
	slurp(t, resp)

	all, observed := faultz(t, ts.URL)
	var injected fault.Counters
	if err := json.Unmarshal(all["injected"], &injected); err != nil {
		t.Fatal(err)
	}
	if injected.Error != 1 || injected.Total != 1 {
		t.Errorf("injected counters = %+v, want one error", injected)
	}
	if len(injected.Stages) != 1 || injected.Stages[0].Stage != "server" {
		t.Errorf("injected stages = %+v, want [server]", injected.Stages)
	}
	if observed["engine_errors"] != 1 {
		t.Errorf("observed engine_errors = %d, want 1", observed["engine_errors"])
	}
}

// TestRouteInjectedPanic: a panic injected at the route site is caught
// by the singleflight's recovery and served as a 500 internal whose
// message is one line, counted once in engine_errors.
func TestRouteInjectedPanic(t *testing.T) {
	spec, err := fault.Parse("seed=1,rate=1,kinds=panic,stages=server")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, &fakeEngine{}, Options{Injector: fault.New(spec)})

	resp := post(t, ts.URL+"/v1/simulate", `{"bench":"dhrystone"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, slurp(t, resp))
	}
	e := parseEnvelope(t, resp)
	if e.Code != api.CodeInternal || strings.Contains(e.Message, "\n") ||
		!strings.Contains(e.Message, "fault: injected panic at server:/v1/simulate") {
		t.Errorf("envelope = %+v, want one-line internal naming the injected panic", e)
	}
	if _, observed := faultz(t, ts.URL); observed["engine_errors"] != 1 {
		t.Errorf("observed engine_errors = %d, want 1", observed["engine_errors"])
	}
}
