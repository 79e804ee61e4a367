package server

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/biodeg"
	"repro/biodeg/api"
	"repro/internal/checkpoint"
)

// Error classes the handlers map to HTTP statuses. Engine
// implementations wrap returned errors with one of these so the
// transport layer never string-matches.
var (
	// ErrBadRequest marks a request the engine cannot interpret
	// (unknown technology, malformed bounds) — HTTP 400.
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks a reference to a missing resource (unknown
	// experiment ID, unknown benchmark) — HTTP 404.
	ErrNotFound = errors.New("not found")
	// errConfigMismatch marks a checkpoint journal written under other
	// result-shaping knobs (fault spec, partial mode) than this
	// daemon's — HTTP 409 with code config_mismatch. Not an engine
	// failure: the engine is healthy, its -checkpoint directory is
	// misdirected.
	errConfigMismatch = checkpoint.ErrConfigMismatch
)

// Engine is the computation surface the server fronts. The production
// engine delegates to a biodeg.Session; tests substitute fakes so
// transport behavior (admission, coalescing, caching, draining) is
// exercised without multi-second characterization sweeps.
type Engine interface {
	// Experiments lists the registry.
	Experiments() []api.ExperimentInfo
	// RunExperiment runs one experiment by ID under ctx.
	RunExperiment(ctx context.Context, id string) (*api.ExperimentResult, error)
	// Sweep runs the named design-space sweep (api.SweepALUDepth,
	// api.SweepCoreDepth, or api.SweepWidth).
	Sweep(ctx context.Context, kind string, req api.SweepRequest) (*api.SweepResult, error)
	// Simulate runs one benchmark through the cycle-level core model.
	Simulate(ctx context.Context, req api.SimulateRequest) (*api.SimulateResult, error)
}

// SessionEngine is the production Engine: every call threads through
// one shared biodeg.Session, so the daemon's worker-pool size, metrics
// flag, and tracer are fixed at construction.
type SessionEngine struct {
	Session *biodeg.Session
}

// NewSessionEngine wraps s (nil means a session with the zero Config).
func NewSessionEngine(s *biodeg.Session) *SessionEngine {
	if s == nil {
		s = biodeg.New(biodeg.Config{})
	}
	return &SessionEngine{Session: s}
}

// Experiments implements Engine.
func (e *SessionEngine) Experiments() []api.ExperimentInfo {
	exps := biodeg.Experiments()
	out := make([]api.ExperimentInfo, len(exps))
	for i, x := range exps {
		out[i] = api.ExperimentInfo{ID: x.ID, Title: x.Title, Paper: x.Paper}
	}
	return out
}

// RunExperiment implements Engine.
func (e *SessionEngine) RunExperiment(ctx context.Context, id string) (*api.ExperimentResult, error) {
	if !slices.ContainsFunc(biodeg.Experiments(), func(x *biodeg.Experiment) bool { return x.ID == id }) {
		return nil, fmt.Errorf("%w: unknown experiment %q", ErrNotFound, id)
	}
	results, err := e.Session.RunExperiments(ctx, id)
	if err != nil {
		return nil, err
	}
	r := results[0]
	out := &api.ExperimentResult{
		Version: api.Version,
		ID:      r.Experiment.ID,
		Title:   r.Experiment.Title,
		WallMS:  float64(r.Wall.Nanoseconds()) / 1e6,
		Tables:  make([]api.Table, len(r.Tables)),
	}
	for i, t := range r.Tables {
		out.Tables[i] = api.FromTable(t)
	}
	return out, nil
}

// maxSweepBound caps every sweep bound a request may set. Each bound
// sizes a sweep's point count, so an unchecked one lets a single
// request allocate and evaluate millions of points; the paper's
// deepest sweep is 30.
const maxSweepBound = 64

// maxPredictorBits caps pred_bits and btb_bits on /v1/simulate: each
// sizes a predictor table of 1<<bits entries, and 20 bits is 1 MB of
// gshare counters.
const maxPredictorBits = 20

// maxCoreField caps every other /v1/simulate core config field (widths,
// stage counts, window sizes, latencies, cache sizes in KB, line
// bytes). The baseline's largest is a 64-entry ROB; the cap keeps one
// request's simulator tables within a few megabytes, and a line of at
// most 1024 bytes always fits the smallest (1 KB) cache.
const maxCoreField = 1024

// checkCore rejects a materialized core config the simulator cannot run
// as asked: a negative field, a predictor table above maxPredictorBits,
// any other field above maxCoreField, or a cache size or line that is
// not a power of two (the caches index sets with a mask, so any other
// size leaves sets unused). The error names the offending wire field.
func checkCore(c biodeg.CoreConfig) error {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"front_width", c.FrontWidth, maxCoreField},
		{"back_width", c.BackWidth, maxCoreField},
		{"front_stages", c.FrontStages, maxCoreField},
		{"issue_stages", c.IssueStages, maxCoreField},
		{"exec_stages", c.ExecStages, maxCoreField},
		{"rob", c.ROB, maxCoreField},
		{"iq", c.IQ, maxCoreField},
		{"lsq", c.LSQ, maxCoreField},
		{"pred_bits", c.PredBits, maxPredictorBits},
		{"btb_bits", c.BTBBits, maxPredictorBits},
		{"ras", c.RAS, maxCoreField},
		{"mul_lat", c.MulLat, maxCoreField},
		{"div_lat", c.DivLat, maxCoreField},
		{"cache_kb", c.CacheKB, maxCoreField},
		{"line_bytes", c.LineBytes, maxCoreField},
		{"hit_lat", c.HitLat, maxCoreField},
		{"miss_lat", c.MissLat, maxCoreField},
		{"icache_kb", c.ICacheKB, maxCoreField},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("%w: config.%s = %d, want 0 to %d", ErrBadRequest, f.name, f.v, f.max)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"cache_kb", c.CacheKB}, {"line_bytes", c.LineBytes}, {"icache_kb", c.ICacheKB}} {
		if f.v&(f.v-1) != 0 {
			return fmt.Errorf("%w: config.%s = %d, want a power of two", ErrBadRequest, f.name, f.v)
		}
	}
	return nil
}

// sweepDefaults fills the sweep-request bounds left unset (<= 0): a
// 12-stage ALU sweep and core depths 9-15.
func sweepDefaults(maxStages, minDepth, maxDepth int) (int, int, int) {
	if maxStages <= 0 {
		maxStages = 12
	}
	if minDepth <= 0 {
		minDepth = 9
	}
	if maxDepth <= 0 {
		maxDepth = 15
	}
	return maxStages, minDepth, maxDepth
}

// Sweep implements Engine.
func (e *SessionEngine) Sweep(ctx context.Context, kind string, req api.SweepRequest) (*api.SweepResult, error) {
	// Validate kind and bounds before resolving the technology:
	// resolution characterizes the cell library on first use, and a
	// malformed request must not pay (or trigger) that.
	maxStages, minDepth, maxDepth := sweepDefaults(req.MaxStages, req.MinDepth, req.MaxDepth)
	if max(maxStages, minDepth, maxDepth) > maxSweepBound {
		return nil, fmt.Errorf("%w: sweep bound above %d (max_stages %d, min_depth %d, max_depth %d)",
			ErrBadRequest, maxSweepBound, maxStages, minDepth, maxDepth)
	}
	switch kind {
	case api.SweepALUDepth, api.SweepWidth:
	case api.SweepCoreDepth:
		if maxDepth < minDepth {
			return nil, fmt.Errorf("%w: max_depth %d < min_depth %d", ErrBadRequest, maxDepth, minDepth)
		}
	default:
		return nil, fmt.Errorf("%w: unknown sweep kind %q", ErrNotFound, kind)
	}

	tech, err := req.Technology()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	res := &api.SweepResult{Version: api.Version, Kind: kind, Tech: tech.Name}
	switch kind {
	case api.SweepALUDepth:
		pts, err := e.Session.ALUDepth(ctx, tech, maxStages)
		if err != nil {
			return nil, err
		}
		res.ALU = api.FromALUPoints(pts)
	case api.SweepCoreDepth:
		pts, err := e.Session.CoreDepth(ctx, tech, minDepth, maxDepth)
		if err != nil {
			return nil, err
		}
		res.Depth = api.FromDepthPoints(pts)
	case api.SweepWidth:
		pts, err := e.Session.Widths(ctx, tech)
		if err != nil {
			return nil, err
		}
		res.Width = api.FromWidthPoints(pts)
	}
	return res, nil
}

// Simulate implements Engine.
func (e *SessionEngine) Simulate(ctx context.Context, req api.SimulateRequest) (*api.SimulateResult, error) {
	if !slices.Contains(biodeg.Benchmarks(), req.Bench) {
		return nil, fmt.Errorf("%w: unknown benchmark %q (have %v)",
			ErrNotFound, req.Bench, biodeg.Benchmarks())
	}
	cfg := req.Config.Core()
	if err := checkCore(cfg); err != nil {
		return nil, err
	}
	st, err := e.Session.SimulateIPC(ctx, req.Bench, cfg)
	if err != nil {
		return nil, err
	}
	return &api.SimulateResult{Version: api.Version, Bench: req.Bench, Stats: api.FromStats(st)}, nil
}

var _ Engine = (*SessionEngine)(nil)
