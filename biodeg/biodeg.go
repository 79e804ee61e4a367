package biodeg

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/spice"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// Technology is a characterized process (cell library + wire model).
type Technology = core.Tech

// Organic returns the pentacene pseudo-E technology (VDD 5 V, VSS -15 V),
// characterizing its 6-cell library on first use.
func Organic() *Technology { return core.OrganicTech() }

// Silicon returns the 45 nm-class complementary CMOS reference
// technology with the same 6-cell palette.
func Silicon() *Technology { return core.SiliconTech() }

// Library returns a technology's characterized liberty library.
func Library(t *Technology) *liberty.Library { return t.Lib }

// Inverter styles (Figures 5-6 of the paper).
const (
	DiodeLoad  = cells.DiodeLoad
	BiasedLoad = cells.BiasedLoad
	PseudoE    = cells.PseudoE
)

// InverterDC sweeps one organic inverter style at the given rails and
// returns its DC figures of merit (switching threshold, gain, MEC noise
// margins, static power).
func InverterDC(style cells.InverterStyle, vdd, vss float64) (spice.InverterDC, error) {
	dc, _, err := cells.AnalyzeOrganicInverter(style, vdd, vss, 151)
	return dc, err
}

// VariationTrim measures pseudo-E switching-threshold spread under
// per-sample threshold-voltage offsets and the VSS bias trim that
// restores the nominal VM (paper Sections 4.1 and 4.3.3).
func VariationTrim(vdd, vss float64, vtShifts []float64) ([]cells.VariationPoint, error) {
	return cells.VariationTrim(vdd, vss, vtShifts, 121)
}

// Benchmarks lists the seven workloads (Dhrystone-like plus six
// SPEC-CPU2000-inspired kernels).
func Benchmarks() []string { return core.Benchmarks() }

// CoreConfig is the cycle-level core configuration.
type CoreConfig = uarch.Config

// DefaultCore returns the paper's 9-stage baseline core configuration.
func DefaultCore() CoreConfig { return uarch.DefaultConfig() }

// RunWorkload executes a benchmark functionally and checks its result
// checksum against the Go reference implementation.
func RunWorkload(bench string) error {
	w := workload.ByName(bench)
	if w == nil {
		return fmt.Errorf("biodeg: unknown benchmark %q", bench)
	}
	_, err := w.Run()
	return err
}

// Experiment metadata and table types re-exported for report consumers.
type (
	// Experiment reproduces one paper artifact.
	Experiment = core.Experiment
	// Table is a rendered experiment result.
	Table = core.Table
	// ExperimentResult pairs an experiment with its tables.
	ExperimentResult = core.ExperimentResult
)

// Experiments returns the registry of paper artifacts (fig3..fig15 plus
// the absolute-frequency comparison).
func Experiments() []*Experiment { return core.Experiments() }

// RecordResults appends each result's provenance — experiment ID,
// title, wall time, and a SHA-256 digest of every rendered table — to
// a run manifest (internal/cli fills in the environment half).
func RecordResults(m *obs.Manifest, results []ExperimentResult) {
	for _, r := range results {
		digests := make([]obs.TableDigest, len(r.Tables))
		for i, t := range r.Tables {
			digests[i] = obs.TableDigest{Title: t.Title, SHA256: obs.Digest(t.Render())}
		}
		m.AddExperiment(r.Experiment.ID, r.Experiment.Title, r.Wall, digests)
	}
}
