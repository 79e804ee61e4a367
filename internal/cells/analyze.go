package cells

import (
	"fmt"

	"repro/internal/spice"
)

// AnalyzeOrganicInverter builds one Figure 5 inverter at the given rails,
// sweeps its transfer characteristic, and extracts the DC parameter set
// the paper tabulates in Figures 6(d) and 7(d): switching threshold,
// maximum gain, MEC noise margins, output levels, and static power at
// input low/high.
func AnalyzeOrganicInverter(style InverterStyle, vdd, vss float64, points int) (spice.InverterDC, spice.VTC, error) {
	return analyzeInverter(style, vdd, vss, 0, points)
}

// analyzeInverter is AnalyzeOrganicInverter with every transistor's
// threshold offset by vtShift.
func analyzeInverter(style InverterStyle, vdd, vss, vtShift float64, points int) (spice.InverterDC, spice.VTC, error) {
	c := Organic().newCircuit()
	in, out := c.Node("in"), c.Node("out")
	vddN := c.Node("vdd")
	vssN := c.Node("vss")
	c.V("VDD", vddN, spice.Ground, spice.DC(vdd))
	c.V("VSS", vssN, spice.Ground, spice.DC(vss))
	c.V("VIN", in, spice.Ground, spice.DC(0))
	buildInverter(c, style, in, out, vddN, vssN, vtShift)
	sweep, err := c.DCSweep("VIN", 0, vdd, points)
	if err != nil {
		return spice.InverterDC{}, spice.VTC{}, fmt.Errorf("cells: %s VTC: %w", style, err)
	}
	vtc := spice.VTCFromSweep(sweep, out)
	nmh, nml := vtc.NoiseMargins()
	voh, vol := vtc.Levels()
	dc := spice.InverterDC{
		VM:      vtc.SwitchingThreshold(),
		Gain:    vtc.MaxGain(),
		NMH:     nmh,
		NML:     nml,
		VOH:     voh,
		VOL:     vol,
		PowLow:  sweep[0].SupplyPower(0),
		PowHigh: sweep[len(sweep)-1].SupplyPower(0),
	}
	return dc, vtc, nil
}

// VMVersusVSS sweeps the pseudo-E bias rail and reports the switching
// threshold at each point plus the fitted linear relationship
// VM = slope*VSS + intercept (paper Figure 8: slope ~0.22).
func VMVersusVSS(vdd float64, vssValues []float64, points int) (vms []float64, slope, intercept float64, err error) {
	vms = make([]float64, len(vssValues))
	for i, vss := range vssValues {
		dc, _, aerr := AnalyzeOrganicInverter(PseudoE, vdd, vss, points)
		if aerr != nil {
			return nil, 0, 0, aerr
		}
		vms[i] = dc.VM
	}
	// Least-squares line through (vss, vm).
	n := float64(len(vssValues))
	var sx, sy, sxx, sxy float64
	for i, x := range vssValues {
		y := vms[i]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den != 0 {
		slope = (n*sxy - sx*sy) / den
		intercept = (sy - slope*sx) / n
	}
	return vms, slope, intercept, nil
}

// VariationPoint is one sample of the process-variation experiment.
type VariationPoint struct {
	VTShift   float64 // threshold offset applied to every transistor, V
	VM        float64 // switching threshold at the nominal VSS
	VSSTrim   float64 // bias computed to restore the nominal VM
	VMTrimmed float64 // switching threshold re-measured at VSSTrim
}

// VariationTrim reproduces the paper's Section 4.3.3 claim that
// cross-sample VM variation from process spread can be tuned out by
// adjusting VSS: for each threshold offset it measures the shifted VM,
// computes a trim bias from the fitted VM(VSS) line, and re-measures.
func VariationTrim(vdd, vss float64, shifts []float64, points int) ([]VariationPoint, error) {
	nominal, _, err := AnalyzeOrganicInverter(PseudoE, vdd, vss, points)
	if err != nil {
		return nil, err
	}
	_, slope, _, err := VMVersusVSS(vdd, []float64{vss - 3, vss, vss + 3}, points)
	if err != nil {
		return nil, err
	}
	out := make([]VariationPoint, 0, len(shifts))
	for _, dvt := range shifts {
		dc, _, err := analyzeInverter(PseudoE, vdd, vss, dvt, points)
		if err != nil {
			return nil, err
		}
		trim := vss + (nominal.VM-dc.VM)/slope
		dcT, _, err := analyzeInverter(PseudoE, vdd, trim, dvt, points)
		if err != nil {
			return nil, err
		}
		out = append(out, VariationPoint{VTShift: dvt, VM: dc.VM, VSSTrim: trim, VMTrimmed: dcT.VM})
	}
	return out, nil
}
