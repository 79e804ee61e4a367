package spice

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
)

// addOTFT adds a p-type pentacene transistor of the given channel
// geometry: the golden model with its leakage floor scaled by W/L, as
// the organic cell library sizes its devices.
func addOTFT(c *Circuit, name string, d, g, s Node, w, l float64) {
	m := device.PentaceneGolden()
	m.Geom = device.Geometry{W: w, L: l, Cox: device.PentaceneCox()}
	m.ILeak *= (w / l) / (device.PentaceneW / device.PentaceneL)
	c.MOS(name, d, g, s, P, m, m.Geom)
}

// pseudoE wires the organic library's pseudo-E gate: a level shifter
// into an internal node pulled toward vss, then a full-swing output
// stage. Drive networks are parallel (NAND family, and the inverter)
// or, for series, stacked with widened devices (NOR family).
func pseudoE(c *Circuit, inputs []Node, out, vdd, vss Node, series bool) {
	const l = 80e-6
	shift := c.Node("shift")
	if series {
		w := 800e-6 * float64(len(inputs))
		up1, up3 := vdd, vdd
		for i, in := range inputs {
			n1, n3 := shift, out
			if i < len(inputs)-1 {
				n1, n3 = c.Node(fmt.Sprintf("s%d", i)), c.Node(fmt.Sprintf("u%d", i))
			}
			addOTFT(c, fmt.Sprintf("M1_%d", i), n1, in, up1, w, l)
			addOTFT(c, fmt.Sprintf("M3_%d", i), n3, in, up3, w, l)
			up1, up3 = n1, n3
		}
	} else {
		for i, in := range inputs {
			addOTFT(c, fmt.Sprintf("M1_%d", i), shift, in, vdd, 800e-6, l)
			addOTFT(c, fmt.Sprintf("M3_%d", i), out, in, vdd, 800e-6, l)
		}
	}
	addOTFT(c, "M2", vss, vss, shift, 40e-6, 400e-6)
	addOTFT(c, "M4", Ground, shift, out, 600e-6, l)
}

// organicNOR2 is the pseudo-E NOR2 at the library's rails (VDD = 5 V,
// VSS = -15 V) with inputs a and b held at DC.
func organicNOR2(a, b float64) *Circuit {
	c := NewCircuit()
	c.MaxStep = 2
	vdd, vss, ia, ib := c.Node("vdd"), c.Node("vss"), c.Node("a"), c.Node("b")
	c.V("VDD", vdd, Ground, DC(5))
	c.V("VSS", vss, Ground, DC(-15))
	c.V("VA", ia, Ground, DC(a))
	c.V("VB", ib, Ground, DC(b))
	pseudoE(c, []Node{ia, ib}, c.Node("out"), vdd, vss, true)
	return c
}

// siliconNAND2 is the silicon library's NAND2: series (widened) NMOS
// pull-down, parallel PMOS pull-up, inputs a and b held at DC.
func siliconNAND2(a, b float64) *Circuit {
	c := NewCircuit()
	c.MaxStep = 0.2
	vdd, ia, ib, out, mid := c.Node("vdd"), c.Node("a"), c.Node("b"), c.Node("out"), c.Node("mid")
	c.V("VDD", vdd, Ground, DC(device.SiliconVDD))
	c.V("VA", ia, Ground, DC(a))
	c.V("VB", ib, Ground, DC(b))
	nm := device.SiliconNMOS(2 * device.SiliconWN)
	pm := device.SiliconPMOS(device.SiliconWP)
	c.MOS("MNA", out, ia, mid, N, nm, nm.Geom)
	c.MOS("MNB", mid, ib, Ground, N, nm, nm.Geom)
	c.MOS("MPA", out, ia, vdd, P, pm, pm.Geom)
	c.MOS("MPB", out, ib, vdd, P, pm, pm.Geom)
	return c
}

// pseudoEInverter is the organic pseudo-E inverter driven by a 0 -> 5 V
// input ramp at 1 ms into a 20 pF load: a full output transition within
// the 6 ms window.
func pseudoEInverter() (*Circuit, Node) {
	c := NewCircuit()
	c.MaxStep = 2
	vdd, vss, in, out := c.Node("vdd"), c.Node("vss"), c.Node("in"), c.Node("out")
	c.V("VDD", vdd, Ground, DC(5))
	c.V("VSS", vss, Ground, DC(-15))
	c.V("VIN", in, Ground, Ramp{V0: 0, V1: 5, T0: 1e-3, T1: 1.1e-3})
	pseudoE(c, []Node{in}, out, vdd, vss, false)
	c.C("CL", out, Ground, 20e-12)
	return c, out
}

// fullColumns returns the Jacobian assemble last stamped, its free and
// pinned columns together, as one row per row of the reduced system and
// one column per unknown of the full MNA vector, n long. A pinned
// source's branch column stays zero: that current leaves the system.
func fullColumns(c *Circuit, n int) [][]float64 {
	np := len(c.pins)
	j := make([][]float64, len(c.rhs))
	for row := range j {
		j[row] = make([]float64, n)
		for i, k := range c.slot {
			if k < c.free {
				j[row][i] = c.jac[row*c.free+k]
			}
		}
		for k, p := range c.pins {
			j[row][p.node] = c.pinned[row*np+k]
		}
	}
	return j
}

// residual returns the residual J(x)*x - rhs(x) of the reduced
// system's rows, free rows and then the pins' side rows: the
// linearization assembled at x, evaluated at x itself. A pinned column
// applies to the pinned node's voltage in x, not to its source value,
// so this is the nonlinear residual of those rows at any x, the pinned
// source's own branch current left out.
func residual(c *Circuit, x []float64) []float64 {
	c.assemble(x, assembleOpts{srcScale: 1})
	j, np := fullColumns(c, len(x)), len(c.pins)
	r := make([]float64, len(c.rhs))
	for row := range r {
		// Undo assemble's move of the pinned columns to the
		// right-hand side.
		r[row] = -c.rhs[row]
		for k, p := range c.pins {
			r[row] -= c.pinned[row*np+k] * p.v
		}
		for i, g := range j[row] {
			r[row] += g * x[i]
		}
	}
	return r
}

// TestAssembledJacobianMatchesFD checks that the Jacobian assemble
// stamps from the models' analytic conductances, free and pinned
// columns and side rows included, is the derivative of the residual it
// linearizes, by central differences over every unknown, at the
// operating point and at perturbed states of every node, pinned ones
// included, where some devices conduct with drain and source swapped.
func TestAssembledJacobianMatchesFD(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(a, b float64) *Circuit
		hi     float64
		jitter float64 // node-voltage perturbation amplitude
	}{
		{"organic pseudo-E NOR2", organicNOR2, 5, 3},
		{"silicon NAND2", siliconNAND2, device.SiliconVDD, 0.4},
	} {
		swapped := 0
		for _, in := range [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			c := tc.build(in[0]*tc.hi, in[1]*tc.hi)
			op, err := c.DCOperatingPoint()
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, in, err)
			}
			for state := 0; state < 4; state++ {
				x := append([]float64(nil), op.x...)
				for i := 0; i < c.numNodes-1 && state > 0; i++ {
					x[i] += tc.jitter * math.Sin(float64(7*state+3*i+1))
				}
				volt := func(nd Node) float64 {
					if nd == Ground {
						return 0
					}
					return x[index(nd)]
				}
				for _, m := range c.mos {
					if (m.pol == P) == (volt(m.d) > volt(m.s)) {
						swapped++
					}
				}
				c.assemble(x, assembleOpts{srcScale: 1})
				j := fullColumns(c, len(x))
				const h = 1e-6
				for col := range x {
					xp := append([]float64(nil), x...)
					xm := append([]float64(nil), x...)
					xp[col] += h
					xm[col] -= h
					rp, rm := residual(c, xp), residual(c, xm)
					for row := range rp {
						scale := 0.0
						for _, v := range j[row] {
							scale = math.Max(scale, math.Abs(v))
						}
						fd := (rp[row] - rm[row]) / (2 * h)
						if d := math.Abs(j[row][col] - fd); d > 1e-5*scale {
							t.Errorf("%s inputs %v state %d: J[%d][%d] = %g, finite difference %g (row scale %g)",
								tc.name, in, state, row, col, j[row][col], fd, scale)
						}
					}
				}
			}
		}
		if swapped == 0 {
			t.Errorf("%s: no state drove a device with drain and source swapped", tc.name)
		}
	}
}

// TestOPSurvivesLaterSolve: an OP owns its solution, so a later solve
// on the same circuit (which reuses the Newton workspace) leaves it
// unchanged.
func TestOPSurvivesLaterSolve(t *testing.T) {
	c, out := pseudoEInverter()
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), op.x...)
	tr, err := c.Transient(6e-3, 1e-5, out)
	if err != nil {
		t.Fatal(err)
	}
	if v := tr.V(out); math.Abs(v[len(v)-1]-op.V(out)) < 1 {
		t.Fatalf("transient ended at %g V, too close to the OP's %g V to show an overwrite", v[len(v)-1], op.V(out))
	}
	for i := range want {
		if op.x[i] != want[i] {
			t.Fatalf("OP unknown %d changed from %g to %g after a later Transient", i, want[i], op.x[i])
		}
	}
}

// TestTransientAllocsIndependentOfSteps: the Newton workspace is
// allocated once per system size and the waveforms are sized up front,
// so a transient allocates the same number of times whatever its
// step count.
func TestTransientAllocsIndependentOfSteps(t *testing.T) {
	allocs := func(steps int) float64 {
		c, out := pseudoEInverter()
		return testing.AllocsPerRun(3, func() {
			if _, err := c.Transient(6e-3, 6e-3/float64(steps), out); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a600, a1200 := allocs(600), allocs(1200); a600 != a1200 {
		t.Fatalf("Transient allocations grow with steps: %v at 600, %v at 1200", a600, a1200)
	}
}

// fdEraNewtonIters is the spice.newton_iter count of the 600-step
// pseudo-E inverter transient below (its DC initial condition
// included) under the forward-difference device linearization that the
// analytic conductances replaced: exact conductances may not cost more
// iterations.
const fdEraNewtonIters = 1359

// TestTransientCountsStepsAndIterations checks the numerical-health
// counters: each time step counts one spice.tran_step when solved or
// one spice.tran_repeat when replayed, the input's hold replays some,
// and the Newton iteration count is no lower than the solved steps and
// no higher than before.
func TestTransientCountsStepsAndIterations(t *testing.T) {
	steps0, repeats0, iters0 := obs.Count(obs.StageSpiceTranStep), obs.Count(obs.StageSpiceTranRepeat), obs.Count(obs.StageSpiceNewton)
	c, out := pseudoEInverter()
	tr, err := c.Transient(6e-3, 1e-5, out)
	if err != nil {
		t.Fatal(err)
	}
	steps := obs.Count(obs.StageSpiceTranStep) - steps0
	repeats := obs.Count(obs.StageSpiceTranRepeat) - repeats0
	iters := obs.Count(obs.StageSpiceNewton) - iters0
	if want := int64(len(tr.Times) - 1); steps+repeats != want || want != 600 {
		t.Errorf("spice.tran_step grew by %d and spice.tran_repeat by %d over %d recorded steps, want 600 together", steps, repeats, want)
	}
	if repeats == 0 {
		t.Error("spice.tran_repeat did not grow over the input's 100-step hold")
	}
	if iters < steps || iters > fdEraNewtonIters {
		t.Errorf("spice.newton_iter grew by %d, want within [%d, %d]", iters, steps, fdEraNewtonIters)
	}
	t.Logf("%d steps solved, %d replayed, %d Newton iterations", steps, repeats, iters)
}
