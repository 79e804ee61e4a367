// Package uarch is the cycle-level timing model of the AnyCore-style
// superscalar core: a trace-driven out-of-order simulator with a
// parameterized front-end width, back-end execution-pipe count, and
// pipeline depth mapping. It supplies the IPC numbers of the paper's
// evaluation (Section 5.1), which the core package combines with
// synthesized clock periods.
//
// Key entry points: DefaultConfig is the 9-stage baseline Config;
// Record steps an isa.Machine until it halts (or hits an instruction
// limit) and returns its Recorded stream; Run replays a Recorded under
// a Config and returns Stats (IPC, mispredicts, cache misses). Append
// builds a Recorded one record at a time, for synthetic streams.
//
// Concurrency contract: a Recorded is immutable once built and is
// shared by concurrent Runs; Run keeps all simulator state in locals.
// That is how the sweeps parallelize their 7-benchmark x
// many-configuration IPC grids over one recording per workload. Append
// and Record are single-goroutine builders. Config and Stats are plain
// values. Per-configuration results and recordings are memoized by
// internal/core, not here.
package uarch
