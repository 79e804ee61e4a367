// Package spice implements a small transistor-level circuit simulator:
// modified nodal analysis with damped Newton-Raphson DC solution, DC
// sweeps with continuation, and fixed-step trapezoidal transient
// analysis. A voltage source from a node to ground fixes that node's
// voltage, so the solver eliminates it: each Newton iteration factors
// only the remaining unknowns and recovers the source's branch current
// from the node's KCL row. Results keep the full MNA layout, with every
// node voltage and every source current. It exists to characterize the
// organic and silicon standard cells of the reproduction, playing the
// role HSPICE plays in the paper's flow.
//
// Key entry points:
//   - NewCircuit builds a Circuit from R/C/V/I/MOS elements.
//   - DCOperatingPoint and DCSweep solve bias points, with gmin and
//     source stepping as fallbacks.
//   - Transient runs fixed-step trapezoidal integration and records
//     node voltages and source currents; Tran.SupplyEnergy integrates
//     the supply energy.
//   - MeasureEdge runs the same step loop without recording and stops
//     after the step on which an edge's 50% crossing and 20%-80% slew
//     are known.
//   - CrossTime and Slew2080 read delay and slew from a recorded
//     waveform, with the same crossing rule as MeasureEdge.
//   - VTCFromSweep, the VTC methods and InverterDC derive switching
//     threshold, gain, and MEC noise margins.
//
// Concurrency contract: a Circuit and its solver state are mutable and
// single-goroutine, but independent Circuits share nothing — the cell
// characterization layer exploits this by simulating many grid points
// in parallel, one freshly built Circuit per simulation.
package spice
