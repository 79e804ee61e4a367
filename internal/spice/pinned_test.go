package spice

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
)

// fullAssemble is the full modified nodal analysis that assemble
// reduces: every node voltage and every voltage source's branch current
// is an unknown, and each source adds a branch row. j is the n*n
// Jacobian in row-major order, n = len(rhs). It is the test oracle for
// the eliminated sources.
func fullAssemble(c *Circuit, j, rhs, x0 []float64, opt assembleOpts) {
	n := len(rhs)
	clear(j)
	clear(rhs)
	volt := func(nd Node) float64 {
		if nd == Ground {
			return 0
		}
		return x0[index(nd)]
	}
	stampG := func(a, b Node, g float64) {
		if a != Ground {
			j[index(a)*n+index(a)] += g
			if b != Ground {
				j[index(a)*n+index(b)] -= g
			}
		}
		if b != Ground {
			j[index(b)*n+index(b)] += g
			if a != Ground {
				j[index(b)*n+index(a)] -= g
			}
		}
	}
	gmin := c.Gmin + opt.gminExtra
	for i := 0; i < c.numNodes-1; i++ {
		j[i*n+i] += gmin
	}
	for _, r := range c.res {
		stampG(r.a, r.b, r.g)
	}
	if opt.transient {
		for _, cp := range c.caps {
			if cp.c <= 0 {
				continue
			}
			geq := 2 * cp.c / opt.dt
			ieq := geq*cp.vPrev + cp.iPrev
			stampG(cp.a, cp.b, geq)
			if cp.a != Ground {
				rhs[index(cp.a)] += ieq
			}
			if cp.b != Ground {
				rhs[index(cp.b)] -= ieq
			}
		}
	}
	for _, v := range c.vsrc {
		br := v.branch
		if v.a != Ground {
			j[index(v.a)*n+br] += 1
			j[br*n+index(v.a)] += 1
		}
		if v.b != Ground {
			j[index(v.b)*n+br] -= 1
			j[br*n+index(v.b)] -= 1
		}
		rhs[br] = opt.srcScale * v.stim.At(opt.t)
	}
	for _, is := range c.isrc {
		cur := opt.srcScale * is.stim.At(opt.t)
		if is.a != Ground {
			rhs[index(is.a)] -= cur
		}
		if is.b != Ground {
			rhs[index(is.b)] += cur
		}
	}
	for _, m := range c.mos {
		vd, vg, vs := volt(m.d), volt(m.g), volt(m.s)
		f0, gdd, gdg, gds := m.eval(vd, vg, vs)
		lin := f0 - gdd*vd - gdg*vg - gds*vs
		add := func(row Node, sign float64) {
			if row == Ground {
				return
			}
			ri := index(row) * n
			if m.d != Ground {
				j[ri+index(m.d)] += sign * gdd
			}
			if m.g != Ground {
				j[ri+index(m.g)] += sign * gdg
			}
			if m.s != Ground {
				j[ri+index(m.s)] += sign * gds
			}
			rhs[index(row)] -= sign * lin
		}
		add(m.d, 1)
		add(m.s, -1)
	}
}

// fullNewton is newton over the full MNA system: every iteration
// factors every unknown with solveDense, and the update is damped as
// newton damps it. It returns a fresh solution.
func fullNewton(c *Circuit) func(x0 []float64, opt assembleOpts) ([]float64, int, error) {
	return func(x0 []float64, opt assembleOpts) ([]float64, int, error) {
		c.layout() // branch indices
		n := c.numNodes - 1 + len(c.vsrc)
		x, j, rhs := make([]float64, n), make([]float64, n*n), make([]float64, n)
		if x0 != nil {
			copy(x, x0)
		}
		for iter := 0; iter < c.MaxIter; iter++ {
			fullAssemble(c, j, rhs, x, opt)
			xNew, err := solveDense(j, rhs)
			if err != nil {
				return nil, iter + 1, err
			}
			maxDv := 0.0
			for i := 0; i < c.numNodes-1; i++ {
				maxDv = math.Max(maxDv, math.Abs(xNew[i]-x[i]))
			}
			alpha := 1.0
			if maxDv > c.MaxStep {
				alpha = c.MaxStep / maxDv
			}
			for i := range x {
				x[i] += alpha * (xNew[i] - x[i])
			}
			if maxDv*alpha < c.VTol && iter > 0 {
				return x, iter + 1, nil
			}
		}
		return nil, c.MaxIter, fmt.Errorf("full MNA Newton did not converge in %d steps", c.MaxIter)
	}
}

// closeVolts reports whether two samples of a node voltage agree within
// 1e-12 of scale, the largest magnitude the node takes in the run, or
// 1e-15 V. Near a zero crossing a sample carries the roundoff of the
// node's whole swing, so it is judged against the swing.
func closeVolts(got, want, scale float64) bool {
	return math.Abs(got-want) <= math.Max(1e-12*scale, 1e-15)
}

// closeCurrents reports whether two samples of a branch current agree
// within 1e-12 of scale, the largest term of the KCL rows of the
// source's nodes (see kclScale). An eliminated source's current is
// recovered from its node's KCL row as the difference of that row's
// terms, which nearly cancel when the current is a leakage or a Gmin
// current: its roundoff scales with the largest term, not with the
// current. A silicon NAND2 supply current moves by about 4e-7 of
// itself that way.
func closeCurrents(got, want, scale float64) bool {
	return math.Abs(got-want) <= 1e-12*scale
}

// kclScale returns, per voltage source, the largest term of the KCL
// rows of its terminals in the full system assembled at x.
func kclScale(c *Circuit, x []float64, opt assembleOpts) map[string]float64 {
	n := len(x)
	j, rhs := make([]float64, n*n), make([]float64, n)
	fullAssemble(c, j, rhs, x, opt)
	scale := map[string]float64{}
	for _, v := range c.vsrc {
		for _, nd := range []Node{v.a, v.b} {
			if nd == Ground {
				continue
			}
			r := index(nd)
			m := math.Abs(rhs[r])
			for col := range x {
				m = math.Max(m, math.Abs(j[r*n+col]*x[col]))
			}
			scale[v.name] = math.Max(scale[v.name], m)
		}
	}
	return scale
}

// maxAbs returns the largest magnitude in v.
func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// TestPinnedSolveMatchesFullMNA: eliminating the grounded sources
// changes the solution only by roundoff. The DC operating points of
// transientCases and of the organic NOR2 and silicon NAND2 at every
// input combination, and every node voltage and source current of each
// transientCase's Transient, agree with the full MNA solve within
// closeVolts and closeCurrents; so do those of sourceEdgeCases.
func TestPinnedSolveMatchesFullMNA(t *testing.T) {
	type dcCase struct {
		name  string
		build func() *Circuit
	}
	transients := append(transientCases(), sourceEdgeCases()...)
	var dcs []dcCase
	for _, tc := range transients {
		dcs = append(dcs, dcCase{tc.name, tc.build})
	}
	for _, in := range [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		dcs = append(dcs,
			dcCase{fmt.Sprintf("organic NOR2 %v", in), func() *Circuit { return organicNOR2(5*in[0], 5*in[1]) }},
			dcCase{fmt.Sprintf("silicon NAND2 %v", in), func() *Circuit {
				return siliconNAND2(device.SiliconVDD*in[0], device.SiliconVDD*in[1])
			}})
	}
	dc := assembleOpts{srcScale: 1}
	for _, tc := range dcs {
		c, ref := tc.build(), tc.build()
		op, err := c.DCOperatingPoint()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, _, err := fullNewton(ref)(nil, dc)
		if err != nil {
			t.Fatalf("%s: full MNA: %v", tc.name, err)
		}
		for n := Node(1); int(n) < c.numNodes; n++ {
			if g, w := op.V(n), (OP{x: want}).V(n); !closeVolts(g, w, math.Abs(w)) {
				t.Errorf("%s: DC node %s = %v, full MNA %v", tc.name, c.NodeName(n), g, w)
			}
		}
		scale := kclScale(ref, want, dc)
		for _, v := range c.vsrc {
			if g, _ := op.SourceCurrent(v.name); !closeCurrents(g, want[v.branch], scale[v.name]) {
				t.Errorf("%s: DC source %s current = %v, full MNA %v (row scale %v)", tc.name, v.name, g, want[v.branch], scale[v.name])
			}
		}
	}
	for _, tc := range transients {
		ref := tc.build()
		oracle, scales := fullNewton(ref), map[string][]float64{}
		want, err := referenceTransient(ref, tc.tstop, tc.dt, func(x0 []float64, opt assembleOpts) ([]float64, int, error) {
			x, k, err := oracle(x0, opt)
			if err == nil {
				for name, s := range kclScale(ref, x, opt) {
					scales[name] = append(scales[name], s)
				}
			}
			return x, k, err
		})
		if err != nil {
			t.Fatalf("%s: full MNA: %v", tc.name, err)
		}
		c := tc.build()
		var record []Node
		for n := Node(1); int(n) < c.numNodes; n++ {
			record = append(record, n)
		}
		got, err := c.Transient(tc.tstop, tc.dt, record...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := identicalWaves(got.Times, want.Times); d != "" {
			t.Fatalf("%s: time axis: %s", tc.name, d)
		}
		for _, n := range record {
			g, w := got.V(n), want.V(n)
			scale := maxAbs(w)
			for i := range w {
				if !closeVolts(g[i], w[i], scale) {
					t.Errorf("%s: node %s at t=%g: %v, full MNA %v (largest %v)", tc.name, c.NodeName(n), got.Times[i], g[i], w[i], scale)
					break
				}
			}
		}
		for _, v := range c.vsrc {
			g, w, scale := got.SourceCurrent(v.name), want.SourceCurrent(v.name), scales[v.name]
			for i := range w {
				if !closeCurrents(g[i], w[i], scale[i]) {
					t.Errorf("%s: source %s current at t=%g: %v, full MNA %v (row scale %v)", tc.name, v.name, got.Times[i], g[i], w[i], scale[i])
					break
				}
			}
		}
	}
}

// sourceEdgeCases hold the two voltage sources elimination treats
// apart: a source between two nodes that are not ground, which keeps
// its branch row, and a source declared with its + terminal on ground,
// whose pinned node sits at minus its value.
func sourceEdgeCases() []transientCase {
	pulse := Pulse{V0: 0, V1: 1, Delay: 20e-6, Rise: 1e-6, Width: 50e-6, Fall: 1e-6}
	return []transientCase{
		{"floating source", func() *Circuit {
			c := NewCircuit()
			lo, hi, out := c.Node("lo"), c.Node("hi"), c.Node("out")
			c.V("VLO", lo, Ground, DC(5))
			c.V("VUP", hi, lo, pulse)
			c.R("R", hi, out, 1e3)
			c.C("C", out, Ground, 1e-9)
			c.R("RL", hi, Ground, 2e3)
			return c
		}, 150e-6, 1e-7, false, 0},
		{"ground-first source", func() *Circuit {
			c := NewCircuit()
			n, out := c.Node("n"), c.Node("out")
			c.V("VNEG", Ground, n, pulse)
			c.R("R", n, out, 1e3)
			c.C("C", out, Ground, 1e-9)
			return c
		}, 150e-6, 1e-7, false, 0},
	}
}

// TestFloatingAndGroundFirstSources pins the classification of
// sourceEdgeCases (TestPinnedSolveMatchesFullMNA checks their solutions
// against the full MNA solve): the floating source keeps its branch
// row, and a ground-first source pins its node at minus its value with
// the full solve's current sign, negative while it holds the node
// below ground through a resistor.
func TestFloatingAndGroundFirstSources(t *testing.T) {
	cases := sourceEdgeCases()
	c := cases[0].build()
	if _, err := c.DCOperatingPoint(); err != nil {
		t.Fatal(err)
	}
	if len(c.pins) != 1 || c.pins[0].src.name != "VLO" || len(c.kept) != 1 || c.kept[0].name != "VUP" {
		t.Fatalf("floating source: pins %+v, kept %+v; want VLO pinned and VUP kept", c.pins, c.kept)
	}
	if c.free != 3 {
		t.Errorf("floating source: %d free unknowns, want hi, out and VUP's branch", c.free)
	}

	c = NewCircuit()
	n := c.Node("n")
	c.V("VNEG", Ground, n, DC(5))
	c.R("R", n, Ground, 1e3)
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.pins) != 1 || c.pins[0].sign != -1 || c.free != 0 {
		t.Fatalf("ground-first source: pins %+v, %d free unknowns; want one pin of sign -1 and none free", c.pins, c.free)
	}
	if v := op.V(n); v != -5 {
		t.Errorf("ground-first source holds its node at %v, want -5", v)
	}
	// 5 V across 1k plus Gmin, flowing from ground through the resistor
	// into n and back through the source from - to +.
	want := -5/1e3 - 5*c.Gmin
	if i, _ := op.SourceCurrent("VNEG"); math.Abs(i-want) > 1e-15*math.Abs(want) {
		t.Errorf("ground-first source current %v, want %v", i, want)
	}
}

// TestTwoSourcesOnOneNodeSingular: two grounded sources on one node
// leave the system singular, as in full MNA. The first pins the node;
// the second keeps a branch row with no free entry, so the DC solve
// fails with errSingular, also when the second source arrives after a
// solve of the first alone.
func TestTwoSourcesOnOneNodeSingular(t *testing.T) {
	build := func() *Circuit {
		c := NewCircuit()
		n := c.Node("n")
		c.V("V1", n, Ground, DC(1))
		c.R("R", n, Ground, 1e3)
		return c
	}
	c := build()
	if _, err := c.DCOperatingPoint(); err != nil {
		t.Fatal(err)
	}
	c.V("V2", c.Node("n"), Ground, DC(2))
	if _, err := c.DCOperatingPoint(); !errors.Is(err, errSingular) {
		t.Errorf("after adding a second source on the pinned node: %v, want %v", err, errSingular)
	}
	if len(c.pins) != 1 || len(c.kept) != 1 {
		t.Errorf("pins %+v, kept %+v; want V1 pinned and V2 kept", c.pins, c.kept)
	}
	ref := build()
	ref.V("V2", ref.Node("n"), Ground, DC(2))
	if _, _, err := fullNewton(ref)(nil, assembleOpts{srcScale: 1}); !errors.Is(err, errSingular) {
		t.Errorf("full MNA: %v, want %v", err, errSingular)
	}
}
