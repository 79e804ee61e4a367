package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"testing"

	"repro/biodeg"
	"repro/biodeg/api"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/obs"
)

// The SessionEngine tests stick to paths that avoid technology
// characterization (registry listing, validation, the pure cycle-level
// simulator), keeping the package's test time in milliseconds.

func TestSessionEngineExperiments(t *testing.T) {
	eng := NewSessionEngine(nil)
	exps := eng.Experiments()
	if len(exps) == 0 {
		t.Fatal("empty experiment registry")
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" {
			t.Errorf("incomplete entry %+v", e)
		}
		ids[e.ID] = true
	}
	if !ids["fig3"] {
		t.Errorf("registry missing fig3: %v", ids)
	}
}

func TestSessionEngineErrors(t *testing.T) {
	eng := NewSessionEngine(nil)
	ctx := context.Background()

	if _, err := eng.RunExperiment(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown experiment error = %v, want ErrNotFound", err)
	}
	if _, err := eng.Sweep(ctx, api.SweepALUDepth, api.SweepRequest{Tech: "gallium"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown tech error = %v, want ErrBadRequest", err)
	}
	if _, err := eng.Sweep(ctx, api.SweepCoreDepth, api.SweepRequest{MinDepth: 12, MaxDepth: 10}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("inverted bounds error = %v, want ErrBadRequest", err)
	}
	if _, err := eng.Simulate(ctx, api.SimulateRequest{Bench: "nope"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown benchmark error = %v, want ErrNotFound", err)
	}
}

func TestSessionEngineSimulate(t *testing.T) {
	eng := NewSessionEngine(nil)
	res, err := eng.Simulate(context.Background(), api.SimulateRequest{Bench: "dhrystone"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != api.Version || res.Bench != "dhrystone" {
		t.Errorf("result envelope = %+v", res)
	}
	if res.Stats.IPC <= 0 || res.Stats.IPC > 1 {
		t.Errorf("scalar-core IPC = %v, want (0, 1]", res.Stats.IPC)
	}
}

// engineErrorClass posts body to path on a server fronting eng (breaker
// threshold 1) and returns the response status, its envelope code and
// the breaker state and engine-error count /v1/faultz reports after.
func engineErrorClass(t *testing.T, eng Engine, path, body string) (status int, code, breaker string, engineErrs int64) {
	t.Helper()
	_, ts := newTestServer(t, eng, Options{BreakerThreshold: 1})
	resp := post(t, ts.URL+path, body)
	status = resp.StatusCode
	if status != http.StatusOK {
		code = parseEnvelope(t, resp).Code
	} else {
		slurp(t, resp)
	}
	var faultz struct {
		Breaker  BreakerStatus    `json:"breaker"`
		Observed map[string]int64 `json:"observed"`
	}
	resp, err := http.Get(ts.URL + "/v1/faultz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(slurp(t, resp)), &faultz); err != nil {
		t.Fatal(err)
	}
	return status, code, faultz.Breaker.State, faultz.Observed["engine_errors"]
}

// TestSessionEngineErrorClasses drives the production engine through
// the HTTP path. An unknown experiment is a 404; an engine fault while
// an experiment runs is a 500 internal that the breaker counts; a
// checkpoint journal written under other result-shaping knobs is a 409
// config_mismatch on the experiment and the sweep route alike, and the
// breaker does not count it; a sweep bound above maxSweepBound and a
// simulate core config with a negative or oversized field, or a cache
// geometry that is not a power of two, are 400s before anything is
// computed.
func TestSessionEngineErrorClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep route characterizes the silicon library")
	}
	// A journal whose header digest no daemon configuration produces.
	stale := t.TempDir()
	j, _, err := checkpoint.Open(context.Background(), filepath.Join(stale, "journal.bdj"),
		checkpoint.Meta{Tool: "biodeg", Label: "session", ConfigDigest: "written-under-other-knobs"})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	mismatched := biodeg.New(biodeg.Config{Checkpoint: stale})
	t.Cleanup(func() { mismatched.Close() })

	// Every checkpoint commit fails, so fig3 (analytic, milliseconds)
	// fails after it has run.
	spec, err := fault.Parse("seed=1,rate=1,kinds=error,stages=checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	faulty := biodeg.New(biodeg.Config{Checkpoint: t.TempDir(), Faults: biodeg.WithFaults(spec)})
	t.Cleanup(func() { faulty.Close() })

	for _, tc := range []struct {
		name, path, body string
		eng              Engine
		status           int
		code, breaker    string
		engineErrs       int64
	}{
		{"unknown experiment", "/v1/experiments/nope/run", "", NewSessionEngine(nil),
			http.StatusNotFound, api.CodeNotFound, "closed", 0},
		{"injected fault", "/v1/experiments/fig3/run", "", NewSessionEngine(faulty),
			http.StatusInternalServerError, api.CodeInternal, "open", 1},
		{"stale journal, experiment", "/v1/experiments/fig3/run", "", NewSessionEngine(mismatched),
			http.StatusConflict, api.CodeConfigMismatch, "closed", 0},
		{"stale journal, sweep", "/v1/sweeps/alu-depth", `{"tech":"silicon","max_stages":2}`, NewSessionEngine(mismatched),
			http.StatusConflict, api.CodeConfigMismatch, "closed", 0},
		{"oversized alu bound", "/v1/sweeps/alu-depth", `{"tech":"silicon","max_stages":65}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"oversized depth bound", "/v1/sweeps/core-depth", `{"tech":"silicon","max_depth":65}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"negative pred_bits", "/v1/simulate", `{"bench":"dhrystone","config":{"pred_bits":-1}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"oversized pred_bits", "/v1/simulate", `{"bench":"dhrystone","config":{"pred_bits":64}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"oversized btb_bits", "/v1/simulate", `{"bench":"dhrystone","config":{"btb_bits":21}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"negative rob", "/v1/simulate", `{"bench":"dhrystone","config":{"rob":-3}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"negative front_width", "/v1/simulate", `{"bench":"dhrystone","config":{"front_width":-2}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"oversized cache_kb", "/v1/simulate", `{"bench":"dhrystone","config":{"cache_kb":1025}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"non-power-of-two cache_kb", "/v1/simulate", `{"bench":"gzip","config":{"cache_kb":12}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"non-power-of-two line_bytes", "/v1/simulate", `{"bench":"gzip","config":{"line_bytes":24}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		{"non-power-of-two icache_kb", "/v1/simulate", `{"bench":"gzip","config":{"icache_kb":3}}`, NewSessionEngine(nil),
			http.StatusBadRequest, api.CodeBadRequest, "closed", 0},
		// The widest corner of the benchmark's serve-mixed tuple space.
		{"largest serve-mixed tuple", "/v1/simulate",
			`{"bench":"dhrystone","config":{"front_width":6,"back_width":7,"front_stages":12,"pred_bits":14}}`,
			NewSessionEngine(nil), http.StatusOK, "", "closed", 0},
	} {
		status, code, breaker, engineErrs := engineErrorClass(t, tc.eng, tc.path, tc.body)
		if status != tc.status || code != tc.code {
			t.Errorf("%s: %d %s, want %d %s", tc.name, status, code, tc.status, tc.code)
		}
		if breaker != tc.breaker || engineErrs != tc.engineErrs {
			t.Errorf("%s: breaker %s after %d engine errors, want %s after %d",
				tc.name, breaker, engineErrs, tc.breaker, tc.engineErrs)
		}
	}
}

// TestCheckpointResumeAcrossRestart drives the daemon's crash-resume
// path over HTTP. A server over a -checkpoint session answers a short
// ALU sweep; a second session and server on the same directory stand in
// for the restarted process and answer a longer sweep. The restarted
// server must replay the journaled points and answer byte-for-byte what
// a server without a checkpoint answers.
func TestCheckpointResumeAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep route characterizes the silicon library")
	}
	sweep := func(eng Engine, body string) string {
		t.Helper()
		_, ts := newTestServer(t, eng, Options{})
		resp := post(t, ts.URL+"/v1/sweeps/alu-depth", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", body, resp.StatusCode, slurp(t, resp))
		}
		return slurp(t, resp)
	}
	dir := t.TempDir()
	first := biodeg.New(biodeg.Config{Checkpoint: dir})
	sweep(NewSessionEngine(first), `{"tech":"silicon","max_stages":3}`)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := biodeg.New(biodeg.Config{Checkpoint: dir})
	t.Cleanup(func() { restarted.Close() })
	before := obs.Count(obs.StageCheckpointSkipped)
	resumed := sweep(NewSessionEngine(restarted), `{"tech":"silicon","max_stages":5}`)
	if d := obs.Count(obs.StageCheckpointSkipped) - before; d < 3 {
		t.Errorf("restarted server replayed %d journaled points, want at least 3", d)
	}
	if fresh := sweep(NewSessionEngine(nil), `{"tech":"silicon","max_stages":5}`); resumed != fresh {
		t.Errorf("resumed body differs from an unjournaled server's:\nresumed %s\nfresh   %s", resumed, fresh)
	}
}
