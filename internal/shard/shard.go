// Package shard scales the design-space sweeps across biodegd
// processes: a coordinator partitions a sweep grid (core.SweepGrid)
// into batched point-leases, dispatches them to worker peers over the
// v1 HTTP surface (POST /v1/shards/exec), and deterministically merges
// the partial results back into tables byte-identical to a single-node
// run.
//
// The layer is built from the substrate the earlier PRs laid down:
//
//   - Grid identity. Worker and coordinator build the same core.Grid
//     from (kind, tech, bounds); point enumeration order and checkpoint
//     keys are shared with the local sweeps, so a worker's own journal
//     replays across execution styles and the merge is a pure
//     by-index scatter.
//   - Config-digest binding. Every Request carries Digest(cfg) over the
//     result-shaping knobs (fault spec, partial mode) — the same pair
//     the session checkpoint journal is bound to. A worker whose knobs
//     differ rejects the lease with ErrConfigMismatch (HTTP 409) rather
//     than silently merging incompatible points.
//   - Resilience. Each peer sits behind its own circuit breaker
//     (internal/server/breaker); a lease that times out or fails is
//     re-dispatched to another peer, and a slow (straggler) lease gets
//     one hedged duplicate on a second peer — first success wins.
//   - Durability. Completed leases journal through the context's
//     checkpoint (internal/checkpoint via biodeg.Session), so a killed
//     coordinator resumes without recomputing committed batches.
//
// Telemetry lands on the process-default registry as the
// biodeg_shard_* family: leases in-flight and by outcome, re-dispatch
// and hedge counters, per-peer latency histograms and breaker state.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/config"
)

// Version identifies the shard wire format (shared with the rest of the
// v1 surface).
const Version = "v1"

// Sentinel errors the transport maps to statuses.
var (
	// ErrBadRequest marks a request the worker cannot interpret
	// (unknown kind or technology, index outside the grid) — HTTP 400.
	ErrBadRequest = errors.New("shard: bad request")
	// ErrConfigMismatch marks a lease whose config digest does not match
	// the worker's effective knobs — HTTP 409. Mismatched workers must
	// reject rather than compute: their fault spec or partial mode would
	// shape different point values than the coordinator's journal and
	// tables are bound to.
	ErrConfigMismatch = errors.New("shard: config digest mismatch")
)

// Request is the body of POST /v1/shards/exec: one lease of grid
// points to evaluate. Kind, Tech, and the bounds identify the grid
// (core.SweepGrid); Indices are the leased points within it.
type Request struct {
	Version   string `json:"version"`
	Kind      string `json:"kind"`
	Tech      string `json:"tech"`
	MaxStages int    `json:"max_stages,omitempty"`
	MinDepth  int    `json:"min_depth,omitempty"`
	MaxDepth  int    `json:"max_depth,omitempty"`
	// Indices are the grid points to evaluate (0-based, in the grid's
	// canonical enumeration order).
	Indices []int `json:"indices"`
	// ConfigDigest binds the lease to the coordinator's result-shaping
	// knobs (see Digest); a worker under different knobs answers 409.
	// Empty skips the check (hand-written requests).
	ConfigDigest string `json:"config_digest,omitempty"`
}

// PointResult is one evaluated grid point on the wire.
type PointResult struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
	// Value is the point's JSON value (the same encoding the local
	// sweep's checkpoint journal stores), absent when Err is set.
	Value json.RawMessage `json:"value,omitempty"`
	// Err annotates a point that failed under a partial-results sweep.
	Err string `json:"error,omitempty"`
}

// Result is the response of POST /v1/shards/exec.
type Result struct {
	Version string `json:"version"`
	Kind    string `json:"kind"`
	// Worker names the process that evaluated the lease (diagnostics
	// only; merged tables carry no trace of it).
	Worker string        `json:"worker,omitempty"`
	Points []PointResult `json:"points"`
}

// Digest binds a shard exchange to the configuration knobs that shape
// result values: the fault spec and the partial-results mode. It is
// deliberately identical to the binding of the session checkpoint
// journal (biodeg.Session uses this function), so "safe to merge into
// one table" and "safe to merge into one journal" are the same
// predicate. Worker count, cache directories, and timeouts do not
// change values and are not bound.
func Digest(cfg config.Config) string {
	return checkpoint.ConfigDigest(map[string]string{
		"faults":  cfg.Faults.Spec().String(),
		"partial": fmt.Sprintf("%t", cfg.PartialResults),
	})
}
