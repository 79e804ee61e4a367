package runner

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
)

// Checkpoint is the completion sink + seed Checkpointed consults for a
// keyed task: Lookup replays an already-journaled result
// bit-identically (the task body — and any fault injection inside it —
// never runs), Commit persists a freshly computed one. The canonical
// implementation is internal/checkpoint's crash-safe Journal; tests
// substitute in-memory fakes. Implementations must be safe for
// concurrent use by the worker pool.
type Checkpoint interface {
	// Lookup returns the committed JSON value for key, if any.
	Lookup(key string) ([]byte, bool)
	// Commit durably records key's JSON value before returning.
	Commit(ctx context.Context, key string, value []byte) error
}

// cpKey carries a Checkpoint through a context.
type cpKey struct{}

// WithCheckpoint returns a context under which Checkpointed replays
// from and commits to cp. biodeg.Session attaches its journal here.
func WithCheckpoint(ctx context.Context, cp Checkpoint) context.Context {
	return context.WithValue(ctx, cpKey{}, cp)
}

// CheckpointFrom returns the context-attached Checkpoint, or nil.
func CheckpointFrom(ctx context.Context) Checkpoint {
	cp, _ := ctx.Value(cpKey{}).(Checkpoint)
	return cp
}

// Checkpointed runs compute under the context's Checkpoint: a
// journaled key returns the committed value (counted in the
// "checkpoint.skipped" metrics stage) without running compute at all;
// a fresh key runs compute and commits its JSON encoding before
// returning. With no Checkpoint attached — or an empty key — it is
// exactly compute(ctx). Replay is bit-identical for the JSON-clean
// result types the sweeps use (float64 survives Go's JSON round-trip
// exactly; the tables are NaN-free by construction). A value that no
// longer decodes into T (the record predates a type change the config
// digest failed to capture) is recomputed rather than trusted.
func Checkpointed[T any](ctx context.Context, key string, compute func(ctx context.Context) (T, error)) (T, error) {
	cp := CheckpointFrom(ctx)
	if cp == nil || key == "" {
		return compute(ctx)
	}
	if raw, ok := cp.Lookup(key); ok {
		var v T
		if err := json.Unmarshal(raw, &v); err == nil {
			obs.Add(obs.StageCheckpointSkipped, 1)
			return v, nil
		}
	}
	v, err := compute(ctx)
	if err != nil {
		return v, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return v, fmt.Errorf("checkpoint: encoding %q: %w", key, err)
	}
	// A failed commit fails the task: silently dropping durability would
	// turn the next resume into a partial recompute nobody asked for.
	if err := cp.Commit(ctx, key, b); err != nil {
		return v, err
	}
	return v, nil
}
