// Package logic provides technology-independent gate-level netlists
// restricted to the paper's 6-cell library (INV, NAND2, NAND3, NOR2,
// NOR3, DFF), structural generators for the datapath and control blocks
// of a superscalar core (adders, the carry-save multiplier, the divider
// step, bypass networks, issue logic, register files), and functional
// evaluation for verification. It stands in for the RTL + Design
// Compiler front end of the paper's flow: experiments consume these
// netlists through the synth and sta packages.
//
// Key entry points: New creates an empty Netlist and the generator
// methods (CLAAdder, CSAMultiplier, DividerStep, BypassNetwork,
// BuildIssueSelect, BuildRegfileRead, ...) grow it; BuildComplexALU
// assembles the Figure 12 multiplier/divider datapath; Eval runs a
// netlist functionally for verification.
//
// Concurrency contract: building a Netlist mutates it, so construct
// each netlist on a single goroutine; once built, a Netlist is read-only
// for mapping, timing, and evaluation, and may be shared freely (the
// complex-ALU netlist is built once and analyzed concurrently per
// technology and wire mode).
package logic
