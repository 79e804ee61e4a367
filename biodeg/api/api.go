// Package api defines the versioned JSON wire types of the
// reproduction: the request and result shapes served by the biodegd
// daemon (internal/server), emitted by `replicate -json`, and consumed
// by client examples. The types mirror the biodeg result structs but
// carry explicit json tags and a version string, so the internal
// structs can evolve without silently changing the wire format.
//
// Version history:
//
//	v1 — initial surface: experiment listing/run, the three design-space
//	     sweeps (alu-depth, core-depth, width), and IPC simulation.
//	     Later extended (backward-compatibly) with a durable job
//	     surface (POST /v1/jobs, paginated GET /v1/jobs, GET
//	     /v1/jobs/{id}) and the versioned problem+json error envelope
//	     (Error). The scale-out worker surface (its point-evaluation
//	     and status routes, with their request and result types) was
//	     later removed; both routes now answer 404. The job surface
//	     (its three routes, request, status and list types) and the
//	     Server-Sent Events stream at GET /v1/progress were removed
//	     next: the daemon's -checkpoint journal resumes interrupted
//	     sweeps and /metricsz serves the stage counters. All four
//	     routes now answer 404.
package api

import (
	"fmt"

	"repro/biodeg"
	"repro/internal/wire"
)

// Version identifies the wire format emitted by this package.
const Version = "v1"

// Sweep kinds, matching the /v1/sweeps/{kind} URL segment.
const (
	SweepALUDepth  = "alu-depth"
	SweepCoreDepth = "core-depth"
	SweepWidth     = "width"
)

// Error is the uniform failure body: every non-2xx response from a
// /v1/* route carries one, served as Content-Type
// application/problem+json. Code is a stable machine-readable class
// (see the Code* constants); Message is human-readable; RetryAfterS
// mirrors the Retry-After header when the server set one.
type Error = wire.Error

// ProblemContentType is the Content-Type of error envelopes.
const ProblemContentType = wire.ProblemContentType

// Stable error codes carried by Error.Code.
const (
	CodeBadRequest       = wire.CodeBadRequest       // 400
	CodeNotFound         = wire.CodeNotFound         // 404
	CodeMethodNotAllowed = wire.CodeMethodNotAllowed // 405
	CodeConfigMismatch   = wire.CodeConfigMismatch   // 409
	CodePayloadTooLarge  = wire.CodePayloadTooLarge  // 413
	CodeOverloaded       = wire.CodeOverloaded       // 429
	CodeInternal         = wire.CodeInternal         // 500
	CodeUnavailable      = wire.CodeUnavailable      // 503
	CodeTimeout          = wire.CodeTimeout          // 504
)

// ParseError decodes an error-envelope body. ok is false when the body
// is not an envelope (a proxy's HTML error page, a pre-envelope
// server); callers then fall back to the raw body.
func ParseError(body []byte) (*Error, bool) { return wire.Parse(body) }

// SweepRequest parameterizes one design-space sweep. Tech selects the
// characterized process; the depth bounds apply to the kind that reads
// them (max_stages for alu-depth, min/max_depth for core-depth; the
// width sweep takes no bounds — its 6x5 grid is fixed by the paper).
// biodegd rejects any bound above 64 as a bad request.
type SweepRequest struct {
	Tech      string `json:"tech"`                 // "organic" | "silicon"
	MaxStages int    `json:"max_stages,omitempty"` // alu-depth; 0 = default
	MinDepth  int    `json:"min_depth,omitempty"`  // core-depth; 0 = default
	MaxDepth  int    `json:"max_depth,omitempty"`  // core-depth; 0 = default
}

// Technology resolves the request's tech name against the two
// characterized processes.
func (r *SweepRequest) Technology() (*biodeg.Technology, error) {
	switch r.Tech {
	case "organic", "":
		return biodeg.Organic(), nil
	case "silicon":
		return biodeg.Silicon(), nil
	}
	return nil, fmt.Errorf("unknown technology %q (want organic or silicon)", r.Tech)
}

// ALUPoint is one depth of the Figure 12 ALU pipelining sweep.
type ALUPoint struct {
	Stages     int     `json:"stages"`
	PeriodS    float64 `json:"period_s"`
	FreqHz     float64 `json:"freq_hz"`
	AreaM2     float64 `json:"area_m2"`
	StageLogic float64 `json:"stage_logic_s"`
	RegOver    float64 `json:"reg_overhead_s"`
	WireOver   float64 `json:"wire_overhead_s"`
	// Err marks a point that failed under a partial-results (chaos)
	// sweep; its numeric fields are zero.
	Err string `json:"error,omitempty"`
}

// DepthPoint is one depth of the Figure 11 core pipeline sweep.
type DepthPoint struct {
	Depth    int                `json:"depth"`
	PeriodS  float64            `json:"period_s"`
	FreqHz   float64            `json:"freq_hz"`
	AreaM2   float64            `json:"area_m2"`
	CutStage string             `json:"cut_stage,omitempty"`
	Cuts     map[string]int     `json:"cuts,omitempty"`
	IPC      map[string]float64 `json:"ipc,omitempty"`
	Perf     map[string]float64 `json:"perf,omitempty"`
	// Errors maps benchmarks whose IPC simulation failed under a
	// partial-results (chaos) sweep to a short cause; those benchmarks
	// are absent from IPC/Perf.
	Errors map[string]string `json:"errors,omitempty"`
}

// WidthPoint is one (front-end, back-end) superscalar configuration of
// the Figures 13-14 width sweep.
type WidthPoint struct {
	Front   int     `json:"front"`
	Back    int     `json:"back"`
	PeriodS float64 `json:"period_s"`
	FreqHz  float64 `json:"freq_hz"`
	AreaM2  float64 `json:"area_m2"`
	MeanIPC float64 `json:"mean_ipc"`
	Perf    float64 `json:"perf"`
	// Err marks a configuration that failed under a partial-results
	// (chaos) sweep; its numeric fields are zero.
	Err string `json:"error,omitempty"`
}

// SweepResult is the response of POST /v1/sweeps/{kind}. Exactly one of
// the three point slices is populated, matching Kind.
type SweepResult struct {
	Version string       `json:"version"`
	Kind    string       `json:"kind"`
	Tech    string       `json:"tech"`
	ALU     []ALUPoint   `json:"alu_points,omitempty"`
	Depth   []DepthPoint `json:"depth_points,omitempty"`
	Width   []WidthPoint `json:"width_points,omitempty"`
}

// FromALUPoints converts sweep output to wire form.
func FromALUPoints(pts []biodeg.ALUPoint) []ALUPoint {
	out := make([]ALUPoint, len(pts))
	for i, p := range pts {
		out[i] = ALUPoint{
			Stages:     p.Stages,
			PeriodS:    p.Period,
			FreqHz:     p.Freq,
			AreaM2:     p.Area,
			StageLogic: p.StageLogic,
			RegOver:    p.RegOver,
			WireOver:   p.WireOver,
			Err:        p.Err,
		}
	}
	return out
}

// FromDepthPoints converts sweep output to wire form.
func FromDepthPoints(pts []biodeg.DepthPoint) []DepthPoint {
	out := make([]DepthPoint, len(pts))
	for i, p := range pts {
		cuts := make(map[string]int, len(p.Cuts))
		for k, v := range p.Cuts {
			cuts[k.String()] = v
		}
		out[i] = DepthPoint{
			Depth:    p.Depth,
			PeriodS:  p.Period,
			FreqHz:   p.Freq,
			AreaM2:   p.Area,
			CutStage: p.CutStage,
			Cuts:     cuts,
			IPC:      p.IPC,
			Perf:     p.Perf,
			Errors:   p.Errors,
		}
	}
	return out
}

// FromWidthPoints converts sweep output to wire form.
func FromWidthPoints(pts []biodeg.WidthPoint) []WidthPoint {
	out := make([]WidthPoint, len(pts))
	for i, p := range pts {
		out[i] = WidthPoint{
			Front:   p.Front,
			Back:    p.Back,
			PeriodS: p.Period,
			FreqHz:  p.Freq,
			AreaM2:  p.Area,
			MeanIPC: p.MeanIPC,
			Perf:    p.Perf,
			Err:     p.Err,
		}
	}
	return out
}

// CoreConfig is the wire form of the cycle-level core parameters. A
// zero field inherits the paper's 9-stage baseline value, so clients
// state only what they vary.
type CoreConfig struct {
	FrontWidth  int `json:"front_width,omitempty"`
	BackWidth   int `json:"back_width,omitempty"`
	FrontStages int `json:"front_stages,omitempty"`
	IssueStages int `json:"issue_stages,omitempty"`
	ExecStages  int `json:"exec_stages,omitempty"`
	ROB         int `json:"rob,omitempty"`
	IQ          int `json:"iq,omitempty"`
	LSQ         int `json:"lsq,omitempty"`
	PredBits    int `json:"pred_bits,omitempty"`
	BTBBits     int `json:"btb_bits,omitempty"`
	RAS         int `json:"ras,omitempty"`
	MulLat      int `json:"mul_lat,omitempty"`
	DivLat      int `json:"div_lat,omitempty"`
	CacheKB     int `json:"cache_kb,omitempty"`
	LineBytes   int `json:"line_bytes,omitempty"`
	HitLat      int `json:"hit_lat,omitempty"`
	MissLat     int `json:"miss_lat,omitempty"`
	ICacheKB    int `json:"icache_kb,omitempty"`
}

// Core materializes the request config over the baseline: zero wire
// fields keep the baseline value. A nil receiver is the pure baseline.
func (c *CoreConfig) Core() biodeg.CoreConfig {
	cfg := biodeg.DefaultCore()
	if c == nil {
		return cfg
	}
	set := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	set(&cfg.FrontWidth, c.FrontWidth)
	set(&cfg.BackWidth, c.BackWidth)
	set(&cfg.FrontStages, c.FrontStages)
	set(&cfg.IssueStages, c.IssueStages)
	set(&cfg.ExecStages, c.ExecStages)
	set(&cfg.ROB, c.ROB)
	set(&cfg.IQ, c.IQ)
	set(&cfg.LSQ, c.LSQ)
	set(&cfg.PredBits, c.PredBits)
	set(&cfg.BTBBits, c.BTBBits)
	set(&cfg.RAS, c.RAS)
	set(&cfg.MulLat, c.MulLat)
	set(&cfg.DivLat, c.DivLat)
	set(&cfg.CacheKB, c.CacheKB)
	set(&cfg.LineBytes, c.LineBytes)
	set(&cfg.HitLat, c.HitLat)
	set(&cfg.MissLat, c.MissLat)
	set(&cfg.ICacheKB, c.ICacheKB)
	return cfg
}

// SimulateRequest asks for one benchmark run through the cycle-level
// core model. A nil Config simulates the paper's baseline core.
type SimulateRequest struct {
	Bench  string      `json:"bench"`
	Config *CoreConfig `json:"config,omitempty"`
}

// Stats is the wire form of the simulation statistics bundle.
type Stats struct {
	Instrs      uint64  `json:"instrs"`
	Cycles      uint64  `json:"cycles"`
	IPC         float64 `json:"ipc"`
	CondBr      uint64  `json:"cond_branches"`
	Mispredicts uint64  `json:"mispredicts"`
	MPKI        float64 `json:"mpki"`
	Loads       uint64  `json:"loads"`
	LoadMisses  uint64  `json:"load_misses"`
	MissRate    float64 `json:"miss_rate"`
	IFMisses    uint64  `json:"if_misses"`
}

// FromStats converts simulation output to wire form.
func FromStats(s biodeg.Stats) Stats {
	return Stats{
		Instrs:      s.Instrs,
		Cycles:      s.Cycles,
		IPC:         s.IPC,
		CondBr:      s.CondBr,
		Mispredicts: s.Mispredicts,
		MPKI:        s.MPKI,
		Loads:       s.Loads,
		LoadMisses:  s.LoadMisses,
		MissRate:    s.MissRate,
		IFMisses:    s.IFMisses,
	}
}

// SimulateResult is the response of POST /v1/simulate.
type SimulateResult struct {
	Version string `json:"version"`
	Bench   string `json:"bench"`
	Stats   Stats  `json:"stats"`
}

// Table is one rendered result table of an experiment.
type Table struct {
	Title string      `json:"title"`
	Cols  []string    `json:"cols"`
	Rows  []string    `json:"rows"`
	V     [][]float64 `json:"values"`
	Note  string      `json:"note,omitempty"`
	// Errors lists grid points that failed under a partial-results
	// (chaos) run, one "site: cause" entry each; their cells are 0.
	Errors []string `json:"errors,omitempty"`
}

// FromTable converts an experiment table to wire form.
func FromTable(t *biodeg.Table) Table {
	return Table{Title: t.Title, Cols: t.Cols, Rows: t.Rows, V: t.V, Note: t.Note, Errors: t.Errors}
}

// ExperimentInfo is one registry entry of GET /v1/experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper,omitempty"`
}

// ExperimentList is the response of GET /v1/experiments.
type ExperimentList struct {
	Version     string           `json:"version"`
	Experiments []ExperimentInfo `json:"experiments"`
}

// ExperimentResult is the response of POST /v1/experiments/{id}/run.
type ExperimentResult struct {
	Version string  `json:"version"`
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	WallMS  float64 `json:"wall_ms"`
	Tables  []Table `json:"tables"`
}
