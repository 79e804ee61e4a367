package spice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// referenceTransient is the trapezoidal loop that solves every step
// with solve, with no replay. Its initial condition is solve's DC
// solution from a zero guess at t = 0. It records every node and every
// voltage source's branch current.
func referenceTransient(c *Circuit, tstop, dt float64, solve func(x0 []float64, opt assembleOpts) ([]float64, int, error)) (*Tran, error) {
	tr := &Tran{nodes: map[Node][]float64{}, srcI: map[string][]float64{}}
	record := func(t float64, x []float64) {
		tr.Times = append(tr.Times, t)
		for n := Node(1); int(n) < c.numNodes; n++ {
			tr.nodes[n] = append(tr.nodes[n], OP{x: x}.V(n))
		}
		for _, v := range c.vsrc {
			tr.srcI[v.name] = append(tr.srcI[v.name], x[v.branch])
		}
	}
	x, _, err := solve(nil, assembleOpts{srcScale: 1})
	if err != nil {
		return nil, err
	}
	for _, cp := range c.caps {
		cp.vPrev = OP{x: x}.V(cp.a) - OP{x: x}.V(cp.b)
		cp.iPrev = 0
	}
	record(0, x)
	opt := assembleOpts{srcScale: 1, transient: true, dt: dt}
	for t := dt; t <= tstop+dt/2; t += dt {
		opt.t = t
		nx, _, err := solve(x, opt)
		if err != nil {
			return nil, err
		}
		for _, cp := range c.caps {
			if cp.c <= 0 {
				continue
			}
			geq := 2 * cp.c / dt
			v := OP{x: nx}.V(cp.a) - OP{x: nx}.V(cp.b)
			i := geq*v - (geq*cp.vPrev + cp.iPrev)
			cp.vPrev, cp.iPrev = v, i
		}
		x = nx
		record(t, x)
	}
	return tr, nil
}

// transientCase is a circuit and transient window the solver's property
// tests run.
type transientCase struct {
	name        string
	build       func() *Circuit
	tstop, dt   float64
	wantRepeats bool
	// changeAt, when set, is the first source change: steps after it
	// must replay too.
	changeAt float64
}

// transientCases are random piecewise-linear drives, an RC low-pass and
// an RC node fed by a current source whose Pulse holds, switches,
// holds, switches back and holds again, and an organic inverter under a
// Pulse and under a Ramp.
func transientCases() []transientCase {
	// The pulse holds for 200 steps of 1e-7 s, switches over 10, holds
	// for 500 and switches back; the RC time constant is 10 steps.
	pulse := Pulse{Delay: 20e-6, Rise: 1e-6, Width: 50e-6, Fall: 1e-6}
	inverter := func(in Stimulus) func() *Circuit {
		return func() *Circuit {
			c, _ := pseudoEInverter()
			if err := c.SetV("VIN", in); err != nil {
				panic(err)
			}
			return c
		}
	}
	cases := []transientCase{
		{"pulsed RC", func() *Circuit {
			c := NewCircuit()
			in, out := c.Node("in"), c.Node("out")
			p := pulse
			p.V1 = 1
			c.V("VIN", in, Ground, p)
			c.R("R", in, out, 1e3)
			c.C("C", out, Ground, 1e-9)
			return c
		}, 150e-6, 1e-7, true, pulse.Delay},
		{"current source", func() *Circuit {
			c := NewCircuit()
			vdd, n := c.Node("vdd"), c.Node("n")
			p := pulse
			p.V1 = 1e-4
			c.V("VDD", vdd, Ground, DC(1))
			c.R("R", vdd, n, 1e3)
			c.C("C", n, Ground, 1e-9)
			c.I("IIN", n, Ground, p)
			return c
		}, 150e-6, 1e-7, true, pulse.Delay},
		{"pulsed inverter", inverter(Pulse{V0: 0, V1: 5, Delay: 1e-3, Rise: 1e-4, Width: 2e-3, Fall: 1e-4}), 6e-3, 1e-5, true, 0},
		{"ramped inverter", inverter(Ramp{V0: 0, V1: 5, T0: 1e-3, T1: 1.1e-3}), 6e-3, 1e-5, true, 0},
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		cases = append(cases, transientCase{fmt.Sprintf("random seed %d", seed), func() *Circuit {
			c, _ := randomEdgeCircuit(seed, seed%2 == 0)
			return c
		}, 1, 1 / float64(8+rng.Intn(300)), false, 0})
	}
	return cases
}

// identicalWaves reports the first sample at which two waveforms differ
// in any bit, or "" if they are identical.
func identicalWaves(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("sample %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestReplayedTransientMatchesSolvedEveryStep is the exactness property
// of the replayed steps: Transient records every node voltage and every
// source current bit for bit as the loop that solves every step, on
// transientCases. Every step is counted once, solved or replayed. The
// circuits with constant stretches must replay some steps there, and
// the pulsed RC circuits must replay some after their first source
// change too, so solving resumed and then settled again.
func TestReplayedTransientMatchesSolvedEveryStep(t *testing.T) {
	// run returns the solved and the replayed steps of a transient.
	run := func(c *Circuit, tstop, dt float64, record ...Node) (*Tran, int64, int64) {
		t.Helper()
		steps0, repeats0 := obs.Count(obs.StageSpiceTranStep), obs.Count(obs.StageSpiceTranRepeat)
		tr, err := c.Transient(tstop, dt, record...)
		if err != nil {
			t.Fatal(err)
		}
		return tr, obs.Count(obs.StageSpiceTranStep) - steps0, obs.Count(obs.StageSpiceTranRepeat) - repeats0
	}
	for _, tc := range transientCases() {
		ref := tc.build()
		want, err := referenceTransient(ref, tc.tstop, tc.dt, ref.newton)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		c := tc.build()
		var record []Node
		for n := Node(1); int(n) < c.numNodes; n++ {
			record = append(record, n)
		}
		got, steps, repeats := run(c, tc.tstop, tc.dt, record...)
		if d := identicalWaves(got.Times, want.Times); d != "" {
			t.Fatalf("%s: time axis: %s", tc.name, d)
		}
		for _, n := range record {
			if d := identicalWaves(got.V(n), want.V(n)); d != "" {
				t.Errorf("%s: node %s: %s", tc.name, c.NodeName(n), d)
			}
		}
		for _, v := range c.vsrc {
			if d := identicalWaves(got.SourceCurrent(v.name), want.SourceCurrent(v.name)); d != "" {
				t.Errorf("%s: source %s current: %s", tc.name, v.name, d)
			}
		}
		if visited := int64(len(got.Times) - 1); steps+repeats != visited {
			t.Errorf("%s: %d solved + %d replayed steps, want the %d recorded", tc.name, steps, repeats, visited)
		}
		if tc.wantRepeats && repeats == 0 {
			t.Errorf("%s: no step replayed over %d steps with constant stretches", tc.name, steps)
		}
		if tc.changeAt > 0 {
			// A run is a prefix of any longer one, so the replays of a run
			// that ends at the change are those of the first hold.
			if _, _, before := run(tc.build(), tc.changeAt, tc.dt); repeats <= before {
				t.Errorf("%s: all %d replayed steps come before the first source change", tc.name, repeats)
			}
		}
		if tc.wantRepeats {
			t.Logf("%s: %d steps solved, %d replayed", tc.name, steps, repeats)
		}
	}
}
