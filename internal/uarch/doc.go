// Package uarch is the cycle-level timing model of the AnyCore-style
// superscalar core: a trace-driven out-of-order simulator with a
// parameterized front-end width, back-end execution-pipe count, and
// pipeline depth mapping. It supplies the IPC numbers of the paper's
// evaluation (Section 5.1), which the core package combines with
// synthesized clock periods.
//
// Key entry points: DefaultConfig is the 9-stage baseline Config;
// Record steps an isa.Machine until it halts (or hits an instruction
// limit) and returns its Recorded stream; Lower runs a Recorded through
// the predictor and caches of one Geometry (the predictor and cache
// fields of a Config) and returns a Lowered stream; Replay times a
// Lowered under a Config and returns Stats (IPC, mispredicts, cache
// misses) and the narrowest BackWidth that times it alike. Run is Lower
// then Replay. Append builds a Recorded one record at a time, for
// synthetic streams.
//
// Concurrency contract: Recorded and Lowered are immutable once built
// and are shared by concurrent Lowers and Replays; Lower and Replay keep
// all their state in locals. That is how the sweeps parallelize their
// 7-benchmark x many-configuration IPC grids over one recording and one
// lowering per workload and geometry. Append and Record are
// single-goroutine builders. Config, Geometry and Stats are plain
// values. Recordings, lowerings and per-configuration results are
// memoized by internal/core, not here.
package uarch
