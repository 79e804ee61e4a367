// Package runner is the shared parallel-execution engine of the
// design-space explorer. Every expensive fan-out in the repository —
// cell characterization, per-stage static timing, the depth and width
// sweeps, and the experiment registry itself — runs through the same
// two primitives:
//
//   - Map / MapPartial: a bounded worker pool (sized by the
//     configuration carried in the context — see internal/config —
//     falling back to runtime.GOMAXPROCS) that executes
//     n index-addressed tasks, returns results in index order
//     regardless of completion order, and converts per-task panics
//     into errors instead of crashing the process. Map captures the
//     first error and cancels the remaining tasks through the context;
//     MapPartial runs every task and reports the failures by index.
//     A task that should replay from the crash-safe journal wraps its
//     body in Checkpointed.
//
//   - Memo: a per-key singleflight cache. Concurrent callers asking
//     for the same key share one computation (the others block until
//     it finishes); callers with different keys never contend beyond a
//     brief map access. Successful values are cached forever, errors
//     are not, so a failed computation is retried by the next caller.
//
// Determinism contract: Map's result slice depends only on the task
// function, never on scheduling, so a parallel sweep is bit-identical
// to the serial loop it replaced.
package runner
