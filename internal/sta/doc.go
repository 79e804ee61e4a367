// Package sta performs NLDM static timing analysis on mapped designs:
// arrival/slew propagation through the cell look-up tables, a
// fanout-and-blocksize wire load/delay model, and critical path
// extraction. The wire model can be disabled to reproduce the paper's
// zero-wire-cost synthesis (Figure 15). Register overhead is not
// included; the pipeline package adds it per stage.
//
// Key entry point: AnalyzeNetlist maps a logic.Netlist onto a
// characterized library and times it in one step. The Result carries
// the critical path, its per-level delay profile (the input to pipeline
// partitioning) and the combinational area.
//
// Concurrency contract: analysis is a pure function of its inputs and
// keeps no package state, so any number of analyses may run
// concurrently; each AnalyzeNetlist call records one "sta" stage span
// (internal/obs). Callers that reuse Results across goroutines
// must treat them as immutable.
package sta
