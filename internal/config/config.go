// Package config carries the reproduction's runtime knobs — worker
// count, metrics reporting, library disk cache, the resilience posture
// (partial-result sweeps and the live fault injector) and checkpointing
// — as one value, Config, which is the only declaration of each knob. internal/cli binds the common flags
// straight into a Config's fields; biodeg.Session binds one.
//
// A Config travels two ways. Per-call configuration rides a context
// (WithContext/FromContext): biodeg.Session attaches its Config to
// every context it hands the internal packages, so two sessions with
// different worker counts coexist in one process. Process-wide defaults
// (SetDefault/Default) back the code paths that have no context — lazy
// technology characterization — and are set once at startup by
// internal/cli from the parsed flags.
//
// Lookup order everywhere is: context value, else process default,
// else the zero Config (whose WorkerCount resolves to GOMAXPROCS).
package config

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/fault"
)

// Config is one coherent set of runtime knobs. The zero value means
// "all defaults": GOMAXPROCS workers, no metrics report, no library
// disk cache, fail-fast sweeps, no fault injection.
type Config struct {
	Workers  int    // worker-pool size; <= 0 means GOMAXPROCS
	Metrics  bool   // print the per-stage wall-time report
	LibCache string // directory persisting characterized libraries

	// Resilience knobs (see internal/runner and internal/fault).

	// PartialResults makes the design-space sweeps annotate failed grid
	// points and keep going instead of aborting on the first error.
	PartialResults bool
	// Faults is the live fault injector every injection site draws from
	// (nil = off). Its Spec().String() is the canonical spec manifests
	// and config digests record.
	Faults *fault.Injector

	// Checkpoint names a directory holding the crash-safe sweep journal
	// (internal/checkpoint); "" disables checkpointing. A run started
	// with the same directory resumes: journaled grid points and
	// finished experiments are replayed bit-identically instead of
	// recomputed.
	Checkpoint string
}

// WorkerCount resolves the effective worker-pool size.
func (c Config) WorkerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// def is the process-wide default, read when a context carries no
// Config. Stored as a pointer so reads are a single atomic load.
var def atomic.Pointer[Config]

// SetDefault installs the process-wide default configuration
// (internal/cli calls this once from the parsed flag values).
func SetDefault(c Config) { def.Store(&c) }

// Default returns the process-wide default configuration, or the zero
// Config if none was installed.
func Default() Config {
	if p := def.Load(); p != nil {
		return *p
	}
	return Config{}
}

// ctxKey carries a Config through a context.
type ctxKey struct{}

// WithContext returns a context carrying c; Get on the result (and on
// contexts derived from it) returns c.
func WithContext(ctx context.Context, c Config) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the Config carried by ctx, if any.
func FromContext(ctx context.Context) (Config, bool) {
	c, ok := ctx.Value(ctxKey{}).(Config)
	return c, ok
}

// Get resolves the effective configuration for ctx: the context's
// Config when one was attached, else the process default.
func Get(ctx context.Context) Config {
	if c, ok := FromContext(ctx); ok {
		return c
	}
	return Default()
}
