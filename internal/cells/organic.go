package cells

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/spice"
)

// Organic process constants. The channel length is fixed by the
// shadow-mask patterning limit; widths are sizing choices explored per
// Section 4.3.4 ("a script to explore the design space and select the
// best parameter sets for each gate") — the values below are the
// selected set.
const (
	organicL = 80e-6 // shadow-mask feature limit

	// Pseudo-E sizing (selected by the sizing exploration, Section
	// 4.3.4). The shifter load is a long-channel device: the ratioed
	// first stage needs its diode load weak enough that M1 can pull the
	// internal node near VDD against it.
	wShiftDrive = 800e-6 // M1: level-shifter drive
	wShiftLoad  = 40e-6  // M2: level-shifter load (diode to VSS)
	lShiftLoad  = 400e-6 // M2 channel length
	wPullUp     = 800e-6 // M3: output drive
	wPullDown   = 600e-6 // M4: output pull-down

	// Fig. 6 comparison inverters.
	wDiodeDrive = 200e-6
	wDiodeLoad  = 150e-6
	wBiasDrive  = 800e-6
	wBiasLoad   = 60e-6

	organicVDD = 5.0   // Section 4.3.3: fixed to 5 V for the library
	organicVSS = -15.0 // chosen so VM ~ VDD/2 (Fig. 8)

	organicMargin     = 80e-6 // patterning margin per transistor edge
	organicRouteOverh = 1.5   // routing area overhead factor
)

// InverterStyle selects one of the Figure 5 inverter topologies.
type InverterStyle int

// The three unipolar p-type inverter styles compared in Figures 5-6.
const (
	DiodeLoad InverterStyle = iota
	BiasedLoad
	PseudoE
)

func (s InverterStyle) String() string {
	switch s {
	case DiodeLoad:
		return "diode-load"
	case BiasedLoad:
		return "biased-load"
	default:
		return "pseudo-E"
	}
}

// addOTFT adds a sized pentacene transistor (always p-type).
func addOTFT(c *spice.Circuit, name string, d, g, s spice.Node, w, l float64) {
	addOTFTShift(c, name, d, g, s, w, l, 0)
}

// addOTFTShift adds a sized pentacene transistor with a threshold-
// voltage offset (sample-to-sample variation; paper Section 4.1 reports
// a spread within 0.5 V).
func addOTFTShift(c *spice.Circuit, name string, d, g, s spice.Node, w, l, vtShift float64) {
	m, geom := pentaceneSized(w, l)
	m.VT0 += vtShift
	c.MOS(name, d, g, s, spice.P, m, geom)
}

// BuildOrganicInverter wires one inverter of the given style between the
// in/out nodes using the provided rails. vss is required for the
// biased-load and pseudo-E styles.
func BuildOrganicInverter(c *spice.Circuit, style InverterStyle, in, out, vdd, vss spice.Node) {
	buildInverter(c, style, in, out, vdd, vss, 0)
}

// buildInverter is BuildOrganicInverter with every transistor's
// threshold offset by vtShift.
func buildInverter(c *spice.Circuit, style InverterStyle, in, out, vdd, vss spice.Node, vtShift float64) {
	switch style {
	case DiodeLoad:
		// Drive on top (conducts when IN is low), diode-connected load
		// pulling toward ground.
		addOTFTShift(c, "Mdrv", out, in, vdd, wDiodeDrive, organicL, vtShift)
		addOTFTShift(c, "Mload", spice.Ground, spice.Ground, out, wDiodeLoad, organicL, vtShift)
	case BiasedLoad:
		// Same structure, but the load gate is tied to the negative bias
		// rail, making it a tunable current-source pull-down.
		addOTFTShift(c, "Mdrv", out, in, vdd, wBiasDrive, organicL, vtShift)
		addOTFTShift(c, "Mload", spice.Ground, vss, out, wBiasLoad, organicL, vtShift)
	case PseudoE:
		buildPseudoE(c, []spice.Node{in}, out, vdd, vss, false, "", vtShift)
	}
}

// buildPseudoE wires a pseudo-E gate: a level-shifter stage computing the
// function into an internal node swinging toward VSS, plus a full-swing
// output stage. For series=false the drive networks are parallel
// (NAND-family); for series=true they are stacked (NOR-family), with
// widths scaled by the stack depth to preserve drive.
func buildPseudoE(c *spice.Circuit, inputs []spice.Node, out, vdd, vss spice.Node, series bool, tag string, vtShift float64) {
	n := len(inputs)
	shift := c.Node(fmt.Sprintf("shift%s", tag))
	stack := float64(1)
	if series {
		stack = float64(n)
	}
	if series {
		// Chain VDD -> ... -> shift and VDD -> ... -> out.
		prev := vdd
		for i, in := range inputs {
			var next spice.Node
			if i == n-1 {
				next = shift
			} else {
				next = c.Node(fmt.Sprintf("s%s%d", tag, i))
			}
			addOTFTShift(c, fmt.Sprintf("M1%s_%d", tag, i), next, in, prev, wShiftDrive*stack, organicL, vtShift)
			prev = next
		}
		prev = vdd
		for i, in := range inputs {
			var next spice.Node
			if i == n-1 {
				next = out
			} else {
				next = c.Node(fmt.Sprintf("u%s%d", tag, i))
			}
			addOTFTShift(c, fmt.Sprintf("M3%s_%d", tag, i), next, in, prev, wPullUp*stack, organicL, vtShift)
			prev = next
		}
	} else {
		for i, in := range inputs {
			addOTFTShift(c, fmt.Sprintf("M1%s_%d", tag, i), shift, in, vdd, wShiftDrive, organicL, vtShift)
			addOTFTShift(c, fmt.Sprintf("M3%s_%d", tag, i), out, in, vdd, wPullUp, organicL, vtShift)
		}
	}
	// Shifter load: diode-connected to the negative rail.
	addOTFTShift(c, "M2"+tag, vss, vss, shift, wShiftLoad, lShiftLoad, vtShift)
	// Output pull-down, gated by the shifted node; pulls OUT fully to
	// ground (non-ratioed low level — the pseudo-E advantage).
	addOTFTShift(c, "M4"+tag, spice.Ground, shift, out, wPullDown, organicL, vtShift)
}

// organicArea returns the layout area of a cell built from transistors of
// the given widths.
func organicArea(widths ...float64) float64 {
	var a float64
	for _, w := range widths {
		a += (w + 2*organicMargin) * (organicL + 2*organicMargin)
	}
	return a * organicRouteOverh
}

// organicPinCap returns the gate capacitance presented by one input pin,
// which drives one shifter transistor and one pull-up transistor.
func organicPinCap(stack float64) float64 {
	cox := device.PentaceneCox()
	return cox * organicL * (wShiftDrive + wPullUp) * stack
}

// organicProto builds the prototype for an n-input pseudo-E NAND or NOR.
func organicProto(name string, n int, nor bool) *Proto {
	p := gateProto(name, n, nor)
	stack := 1.0
	if nor {
		stack = float64(n)
	}
	widths := []float64{wShiftLoad, wPullDown}
	for i := 0; i < n; i++ {
		widths = append(widths, wShiftDrive*stack, wPullUp*stack)
	}
	p.Build = func(c *spice.Circuit, pins map[string]spice.Node) {
		ins := make([]spice.Node, n)
		for i, in := range p.Inputs {
			ins[i] = pins[in]
		}
		buildPseudoE(c, ins, pins["Y"], pins["vdd"], pins["vss"], nor, "", 0)
	}
	p.Transistors = 2*n + 2
	p.Area = organicArea(widths...)
	p.InputCap = organicPinCap(stack)
	return p
}

func newOrganic() *Technology {
	protos := palette(organicProto)
	nand2 := protos[1]
	nand3 := protos[2]
	return &Technology{
		Name:      "organic",
		VDD:       organicVDD,
		VSS:       organicVSS,
		TimeScale: 1e-4,
		MaxStep:   2.0,
		Protos:    protos,
		// 6-gate NAND master-slave DFF with preset/clear: 4x NAND3 + 2x NAND2.
		DFFTransistors: 4*nand3.Transistors + 2*nand2.Transistors,
		DFFArea:        1.1 * (4*nand3.Area + 2*nand2.Area),
		DFFInputCap:    nand3.InputCap,
		// Thick shadow-mask Au wiring: low resistance, modest capacitance.
		WireResPerM: 25e3,    // 25 ohm/mm
		WireCapPerM: 1.5e-10, // 0.15 pF/mm
		CellPitch:   9e-4,    // ~0.9 mm linear dimension per placed cell
	}
}
