// Package cells defines the transistor-level standard cells of the two
// technologies (organic pentacene pseudo-E logic and silicon 45 nm
// complementary CMOS), and characterizes them into liberty NLDM
// libraries using the spice engine. It reproduces Section 4 of the
// paper: inverter style comparison, pseudo-E cell family, and library
// characterization.
//
// Key entry points: Organic and Silicon return the two Technology
// definitions; Library characterizes a technology's 6-cell library
// (INV, NAND2/3, NOR2/3, DFF) with the NLDM slew x load grid;
// AnalyzeOrganicInverter, VMVersusVSS, and VariationTrim are the
// inverter-level experiments behind Figures 5-8 and the variation
// extension; EnergySweep inputs come from the per-cell leakage and
// switching energy measured here.
//
// Each circuit concept has one builder. gateProto gives both
// technologies' NAND/NOR prototypes their pins, function and
// evaluator, and palette lists the five combinational cells; each
// technology adds only its transistors, area and pin capacitance.
// Technology.testBench puts a cell under supply for the arc-point
// transients, the static-power solves and the switch-energy transient
// alike. buildInverter wires the Figure 5 inverters for
// BuildOrganicInverter and for the DC analyses. The order in which a
// builder declares nodes, sources and elements fixes the MNA layout of
// the circuit, and with it every bit of the results, so a builder
// change that reorders declarations changes the libraries.
//
// Concurrency and caching contract: Library memoizes one characterized
// library per technology name in a per-key singleflight cache — the two
// technologies characterize concurrently without serializing on each
// other, and concurrent callers of the same technology share a single
// characterization. Within one characterization every arc point
// (cell, pin, slew, load, output direction) and every cell's power
// measurement is its own task on the runner worker pool, each
// recording a "characterize" metrics observation, and each arc-point
// transient stops after the step on which its last measured crossing
// is known. Naming a cache directory in the process
// configuration (the -libcache flag / config.Config.LibCache) persists
// characterized libraries as .lib text files and reloads them on later
// runs. Returned *liberty.Library values are shared and must be
// treated as immutable.
package cells
