// Package fault is the reproduction's deterministic fault-injection
// framework: seeded, probability-based error, latency, and panic
// injection keyed by stage-site names, used to chaos-test the execution
// path (runner retries, partial sweeps, the daemon's 500 envelopes)
// without any nondeterminism between runs.
//
// # Model
//
// A fault plan is a Spec, usually parsed from the -faults flag syntax:
//
//	seed=1,rate=0.1,kinds=error+latency,latency=5ms,stages=depth-point
//
// Injection happens at explicit decision points ("sites") in the
// instrumented code: each grid point of the design-space sweeps and
// each computed daemon route calls Inject with a stable site name such
// as
//
//	depth-point:organic:wire:d13:dhrystone
//	width-point:silicon:fe4:be6
//	alu-point:organic:wire:n7
//	server:/v1/sweeps/width
//
// Whether a fault fires at a site is a pure function of
// (seed, site, attempt): the decision hashes those three values to a
// uniform draw and compares it against the rate. The same seed
// therefore reproduces the same fault sites run after run — regardless
// of worker count, scheduling, or wall-clock — while retries (which
// bump the attempt number carried in the context by internal/runner)
// get an independent draw, so transient faults are actually transient.
//
// # Kinds
//
// Three fault kinds model the failure classes of a yield-limited
// printed-electronics platform:
//
//   - error: the site returns ErrInjected (a hard point failure),
//   - latency: the site stalls for Spec.Latency before proceeding
//     (a slow cell, honored against context cancellation so per-stage
//     timeouts still bound it),
//   - panic: the site panics (a crashed worker; internal/runner
//     converts it to a *runner.PanicError).
//
// A fourth kind, kill, is never enabled by default: it writes the site
// to stderr and exits the process with KillExitCode, the in-process
// stand-in for a SIGKILL that crash-resume drills rely on.
//
// When several kinds are enabled, the firing kind is chosen by a second
// deterministic hash of the same key.
//
// # Plumbing and observability
//
// An Injector travels inside the run configuration: it is the Faults
// field of internal/config's Config (internal/cli builds it from the
// -faults flag), so injection sites call config.Get(ctx).Faults.Inject.
// Inject is nil-safe, so uninstrumented processes pay one context
// lookup and nothing else.
//
// Every injected fault bumps a metrics counter (fault.error,
// fault.latency, fault.panic) and emits a "fault.injected" span with
// the site and kind, so a chaos run is fully traceable; Snapshot
// returns the cumulative counters the daemon serves at /v1/faultz.
package fault
