package cells

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/spice"
)

// Silicon cell sizing: unit NMOS/PMOS widths from the device package,
// with series stacks widened to preserve drive.
const (
	siliconMargin     = 0.15e-6
	siliconRouteOverh = 1.3
)

func addNMOS(c *spice.Circuit, name string, d, g, s spice.Node, w float64) {
	m := device.SiliconNMOS(w)
	c.MOS(name, d, g, s, spice.N, m, m.Geom)
}

func addPMOS(c *spice.Circuit, name string, d, g, s spice.Node, w float64) {
	m := device.SiliconPMOS(w)
	c.MOS(name, d, g, s, spice.P, m, m.Geom)
}

func siliconArea(widths ...float64) float64 {
	var a float64
	for _, w := range widths {
		a += (w + 2*siliconMargin) * (device.SiliconL + 2*siliconMargin)
	}
	return a * siliconRouteOverh
}

// siliconProto builds an n-input complementary NAND or NOR prototype.
func siliconProto(name string, n int, nor bool) *Proto {
	p := gateProto(name, n, nor)
	stack := float64(n)
	wn, wp := device.SiliconWN, device.SiliconWP
	var widths []float64
	var cin float64
	if nor {
		// Series PMOS (widened), parallel NMOS.
		for i := 0; i < n; i++ {
			widths = append(widths, wn, wp*stack)
		}
		cin = device.SiliconCox() * device.SiliconL * (wn + wp*stack)
	} else {
		// Series NMOS (widened), parallel PMOS.
		for i := 0; i < n; i++ {
			widths = append(widths, wn*stack, wp)
		}
		cin = device.SiliconCox() * device.SiliconL * (wn*stack + wp)
	}
	inputs := p.Inputs
	p.Build = func(c *spice.Circuit, pins map[string]spice.Node) {
		out, vdd := pins["Y"], pins["vdd"]
		if nor {
			// Stacked PMOS from VDD to out, parallel NMOS to ground.
			prev := vdd
			for i, in := range inputs {
				var next spice.Node
				if i == n-1 {
					next = out
				} else {
					next = c.Node(fmt.Sprintf("p%d", i))
				}
				addPMOS(c, fmt.Sprintf("MP%d", i), next, pins[in], prev, wp*stack)
				prev = next
			}
			for i, in := range inputs {
				addNMOS(c, fmt.Sprintf("MN%d", i), out, pins[in], spice.Ground, wn)
			}
			return
		}
		// NAND: parallel PMOS to VDD, stacked NMOS to ground.
		for i, in := range inputs {
			addPMOS(c, fmt.Sprintf("MP%d", i), out, pins[in], vdd, wp)
		}
		prev := spice.Node(spice.Ground)
		for i := n - 1; i >= 0; i-- {
			var next spice.Node
			if i == 0 {
				next = out
			} else {
				next = c.Node(fmt.Sprintf("n%d", i))
			}
			addNMOS(c, fmt.Sprintf("MN%d", i), next, pins[inputs[i]], prev, wn*stack)
			prev = next
		}
	}
	p.Transistors = 2 * n
	p.Area = siliconArea(widths...)
	p.InputCap = cin
	return p
}

func newSilicon() *Technology {
	protos := palette(siliconProto)
	nand2 := protos[1]
	nand3 := protos[2]
	return &Technology{
		Name:      "silicon45",
		VDD:       device.SiliconVDD,
		VSS:       0,
		TimeScale: 5e-12,
		MaxStep:   0.2,
		Protos:    protos,
		// Same 6-gate DFF logic structure as the organic library, but a
		// compact transmission-gate-style layout: commercial silicon
		// flip-flops are ~4-5x a NAND2's area rather than the naive
		// 10x of a literal 6-NAND composition. The organic pseudo-E DFF
		// cannot use that trick (three power rails, level shifters), so
		// its area keeps the full composition.
		DFFTransistors: 4*nand3.Transistors + 2*nand2.Transistors,
		DFFArea:        0.45 * (4*nand3.Area + 2*nand2.Area),
		DFFInputCap:    nand3.InputCap,
		// 45 nm local interconnect: resistive thin wires.
		WireResPerM: 1.5e6,   // 1.5 kohm/mm
		WireCapPerM: 2.0e-10, // 0.20 pF/mm
		CellPitch:   1.1e-6,
	}
}
