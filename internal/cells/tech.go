package cells

import (
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/spice"
)

// Proto is a buildable combinational standard-cell prototype.
type Proto struct {
	Name        string
	Inputs      []string
	Output      string
	Function    string
	Eval        func(map[string]bool) bool
	Build       func(c *spice.Circuit, pins map[string]spice.Node)
	Transistors int
	Area        float64 // m^2
	InputCap    float64 // F per input pin
}

// gateProto returns the technology-independent part of an n-input NAND
// (nor false) or NOR (nor true) prototype: pins A, B, ... and Y, the
// function string ("!A" for n == 1) and its evaluator. The technology
// fills in Build, Transistors, Area and InputCap.
func gateProto(name string, n int, nor bool) *Proto {
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = string(rune('A' + i))
	}
	fn := "!A"
	if n > 1 {
		sep := "*"
		if nor {
			sep = "+"
		}
		fn = "!(" + strings.Join(inputs, sep) + ")"
	}
	return &Proto{
		Name:     name,
		Inputs:   inputs,
		Output:   "Y",
		Function: fn,
		Eval: func(in map[string]bool) bool {
			// One low input drives a NAND high; one high input
			// drives a NOR low.
			for _, p := range inputs {
				if in[p] == nor {
					return !nor
				}
			}
			return nor
		},
	}
}

// palette returns the five combinational cells of both libraries, each
// built by the technology's gate constructor.
func palette(gate func(name string, n int, nor bool) *Proto) []*Proto {
	return []*Proto{
		gate("INV", 1, false),
		gate("NAND2", 2, false),
		gate("NAND3", 3, false),
		gate("NOR2", 2, true),
		gate("NOR3", 3, true),
	}
}

// Technology bundles everything needed to build and characterize one
// process's cell library.
type Technology struct {
	Name      string
	VDD       float64
	VSS       float64 // auxiliary negative rail (pseudo-E); 0 if unused
	TimeScale float64 // characteristic gate delay, sets characterization windows
	MaxStep   float64 // Newton damping limit appropriate to the voltage range
	Protos    []*Proto

	// DFF composition: the flip-flop is a 6-gate NAND master-slave
	// structure; its timing is derived from the characterized NAND cells
	// (see deriveDFF).
	DFFTransistors int
	DFFArea        float64
	DFFInputCap    float64

	// Wire parasitics for the STA wire model.
	WireResPerM float64 // ohm/m
	WireCapPerM float64 // F/m
	// CellPitch approximates the linear dimension contributed by one
	// average placed cell, used to estimate wire lengths from block size.
	CellPitch float64 // m
}

var (
	organicOnce sync.Once
	organicTech *Technology
	siliconOnce sync.Once
	siliconTech *Technology
)

// Organic returns the pentacene pseudo-E technology (paper defaults:
// VDD = 5 V, VSS = -15 V).
func Organic() *Technology {
	organicOnce.Do(func() { organicTech = newOrganic() })
	return organicTech
}

// Silicon returns the 45 nm-class complementary CMOS technology.
func Silicon() *Technology {
	siliconOnce.Do(func() { siliconTech = newSilicon() })
	return siliconTech
}

// pentaceneSized returns the golden pentacene model rescaled to the
// given channel geometry. The leakage floor scales with W/L relative to
// the measured 1000/80 um device.
func pentaceneSized(w, l float64) (*device.Level61, device.Geometry) {
	m := device.PentaceneGolden()
	scale := (w / l) / (device.PentaceneW / device.PentaceneL)
	m.Geom = device.Geometry{W: w, L: l, Cox: device.PentaceneCox()}
	m.ILeak *= scale
	return m, m.Geom
}

// newCircuit returns a circuit tuned for this technology's voltage range.
func (t *Technology) newCircuit() *spice.Circuit {
	c := spice.NewCircuit()
	c.MaxStep = t.MaxStep
	return c
}

// level returns the input voltage of logic value b.
func (t *Technology) level(b bool) float64 {
	if b {
		return t.VDD
	}
	return 0
}

// testBench returns cell p under this technology's supply, with its
// output node: input pin driven by drive as source VIN (no pin when pin
// is ""), every other input held at level(held[in]) by source V_<in>,
// and cl on the output when cl > 0. The order in which it declares
// nodes, sources and elements fixes the MNA layout, and with it every
// bit of a result: VDD, VSS (when the technology has one), the inputs
// in pin order, out, the cell, then CL.
func (t *Technology) testBench(p *Proto, pin string, drive spice.Stimulus, held map[string]bool, cl float64) (*spice.Circuit, spice.Node) {
	c := t.newCircuit()
	pins := map[string]spice.Node{}
	pins["vdd"] = c.Node("vdd")
	c.V("VDD", pins["vdd"], spice.Ground, spice.DC(t.VDD))
	pins["vss"] = spice.Ground
	if t.VSS != 0 {
		pins["vss"] = c.Node("vss")
		c.V("VSS", pins["vss"], spice.Ground, spice.DC(t.VSS))
	}
	for _, in := range p.Inputs {
		n := c.Node("in_" + in)
		pins[in] = n
		if in == pin {
			c.V("VIN", n, spice.Ground, drive)
		} else {
			c.V("V_"+in, n, spice.Ground, spice.DC(t.level(held[in])))
		}
	}
	out := c.Node("out")
	pins[p.Output] = out
	p.Build(c, pins)
	if cl > 0 {
		c.C("CL", out, spice.Ground, cl)
	}
	return c, out
}
