package spice

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Tran holds recorded waveforms from a transient analysis.
type Tran struct {
	Times []float64
	nodes map[Node][]float64
	srcI  map[string][]float64
	// srcs names the voltage sources in declaration order, the order
	// SupplyEnergy sums them in: ranging over srcI instead would make
	// the float sum follow Go's random map iteration order.
	srcs []string
}

// V returns the recorded waveform of node n (nil if not recorded).
func (t *Tran) V(n Node) []float64 { return t.nodes[n] }

// SourceCurrent returns the branch-current waveform of the named voltage
// source (nil if unknown). Positive current flows from the + terminal
// through the source, so a supply delivering power shows negative values.
func (t *Tran) SourceCurrent(name string) []float64 { return t.srcI[name] }

// SupplyEnergy integrates the total energy delivered by the sources
// named in volts (trapezoidal) over [t0, t1], summing them in the
// circuit's declaration order so the result is the same bits on every
// call. Sources absent from volts are left out; an empty volts gives 0.
func (t *Tran) SupplyEnergy(volts map[string]float64, t0, t1 float64) float64 {
	var e float64
	for _, name := range t.srcs {
		v, ok := volts[name]
		if !ok {
			continue
		}
		wave := t.srcI[name]
		for i := 1; i < len(t.Times); i++ {
			if t.Times[i] < t0 || t.Times[i-1] > t1 {
				continue
			}
			dt := t.Times[i] - t.Times[i-1]
			p := -v * (wave[i] + wave[i-1]) / 2
			e += p * dt
		}
	}
	return e
}

// Transient simulates from t = 0 to tstop with a fixed step dt using the
// trapezoidal method, recording the given nodes and every voltage
// source's branch current. The initial condition is the DC operating
// point at t = 0. Each time step counts one spice.tran_step event when
// it is solved, and each of its Newton iterations one spice.newton_iter
// event (the initial DC solve counts its own); a step replayed exactly
// from the state two steps back (see transient) counts one
// spice.tran_repeat event instead. Every step is recorded either way.
func (c *Circuit) Transient(tstop, dt float64, record ...Node) (*Tran, error) {
	samples, err := samplesIn(tstop, dt)
	if err != nil {
		return nil, err
	}
	tr := &Tran{
		Times: make([]float64, 0, samples),
		nodes: make(map[Node][]float64, len(record)),
		srcI:  make(map[string][]float64, len(c.vsrc)),
	}
	for _, n := range record {
		tr.nodes[n] = make([]float64, 0, samples)
	}
	for _, v := range c.vsrc {
		tr.srcI[v.name] = make([]float64, 0, samples)
		tr.srcs = append(tr.srcs, v.name)
	}
	err = c.transient(tstop, dt, func(t float64, x []float64) bool {
		tr.Times = append(tr.Times, t)
		for _, n := range record {
			tr.nodes[n] = append(tr.nodes[n], OP{x: x}.V(n))
		}
		for _, v := range c.vsrc {
			tr.srcI[v.name] = append(tr.srcI[v.name], x[v.branch])
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// MeasureEdge runs the transient of Transient but records no waveform.
// It streams node out through the CrossTime and Slew2080 rules for the
// first transition in the given direction after tStart, between the
// rails vLow and vHigh: t50 is its 50% crossing time and slew its
// 20%-80% transition time. The run ends after the step on which all
// three crossings are known; a crossing that never comes leaves the
// full window run and its result NaN. The values equal those of
// CrossTime and Slew2080 over the full recorded waveform, bit for bit.
func (c *Circuit) MeasureEdge(tstop, dt float64, out Node, rising bool, vLow, vHigh, tStart float64) (t50, slew float64, err error) {
	mid := crossing{level: vLow + 0.5*(vHigh-vLow), rising: rising, tStart: tStart}
	sl := newSlew2080(vLow, vHigh, rising, tStart)
	var t0, v0 float64
	err = c.transient(tstop, dt, func(t float64, x []float64) bool {
		v := OP{x: x}.V(out)
		if t == 0 { // the first sample: pairs start at the first step
			t0, v0 = t, v
			return false
		}
		// Both detectors see every pair: && would starve the slew.
		m := mid.pair(t0, v0, t, v)
		s := sl.pair(t0, v0, t, v)
		t0, v0 = t, v
		return m && s
	})
	if err != nil {
		return math.NaN(), math.NaN(), err
	}
	return mid.time(), sl.value(), nil
}

// samplesIn validates a transient window and returns the number of
// samples a full run visits: t = 0 plus one per step.
func samplesIn(tstop, dt float64) (int, error) {
	if dt <= 0 || tstop <= dt {
		return 0, fmt.Errorf("spice: bad transient window tstop=%g dt=%g", tstop, dt)
	}
	return int(tstop/dt+0.5) + 1, nil
}

// transient is the one trapezoidal step loop behind Transient and
// MeasureEdge. It solves the DC operating point at t = 0 for the
// initial condition, then steps by dt to tstop. visit sees t = 0 and
// every accepted step, with the solution vector indexed like the MNA
// unknowns; the vector is the circuit's workspace, valid only during
// the call. visit returning true ends the run after that step. Because
// each step depends only on the ones before it, a run ended early took
// exactly the steps, bit for bit, that the full run would have taken up
// to that point. The counts are those Transient documents.
//
// Steps whose result is already known are replayed, not solved. The
// state after step k is the solution x, every capacitor's vPrev/iPrev,
// and every source value at t_k (t_0 = 0 is the DC initial condition).
// Step k+1 is a pure function of the state after step k and the source
// values at t_{k+1}: the device models' Eval is pure, newton seeds only
// from x, and Stimulus.At is pure. So if the state after step k equals
// the state after step k-2, and the source values at t_{k+1} equal
// those at t_{k-1}, then step k+1 reproduces the state after step k-1
// bit for bit, and the state after k+1 again equals the one two steps
// back. By induction, a stretch of repeating source values in which the
// circuit has settled into a 2-cycle (as trapezoidal ringing at rest
// does) alternates between two stored states, and solving resumes at
// the first step whose source values differ from those two steps back.
// The last three states live in the circuit's ring; "equal" compares
// float64 bits.
func (c *Circuit) transient(tstop, dt float64, visit func(t float64, x []float64) (stop bool)) error {
	if _, err := samplesIn(tstop, dt); err != nil {
		return err
	}
	var steps, repeats, iters int
	defer func() {
		obs.Add(obs.StageSpiceTranStep, int64(steps))
		obs.Add(obs.StageSpiceTranRepeat, int64(repeats))
		obs.Add(obs.StageSpiceNewton, int64(iters))
	}()
	x, err := c.solveDC(0, nil)
	if err != nil {
		return fmt.Errorf("spice: transient initial condition: %w", err)
	}
	// Initialize capacitor companion state from the DC solution.
	for _, cp := range c.caps {
		cp.vPrev = OP{x: x}.V(cp.a) - OP{x: x}.V(cp.b)
		cp.iPrev = 0
	}
	// A state is x, then vPrev/iPrev per capacitor, then the source
	// values from src on.
	src := len(x) + 2*len(c.caps)
	w := src + len(c.vsrc) + len(c.isrc)
	if len(c.ring) != 3*w {
		c.ring = make([]float64, 3*w)
	}
	state := func(k int) []float64 { return c.ring[k%3*w : k%3*w+w] }
	c.sourcesAt(state(0)[src:], 0)
	c.saveState(state(0), x)
	if visit(0, x) {
		return nil
	}
	cycle := false // the state after the last step equals the one two steps back
	opt := assembleOpts{srcScale: 1, transient: true, dt: dt}
	k := 0
	for t := dt; t <= tstop+dt/2; t += dt {
		k++
		cur, back := state(k), state(k+1) // state(k+1) holds step k-2
		c.sourcesAt(cur[src:], t)
		if cycle && equalBits(cur[src:], back[src:]) {
			copy(cur[:src], back[:src])
			c.loadState(x, cur)
			repeats++
		} else {
			opt.t = t
			nx, n, err := c.newton(x, opt)
			iters += n
			if err != nil {
				return fmt.Errorf("spice: transient t=%g: %w", t, err)
			}
			steps++
			// Update companion state: i = geq*(v_new) - (geq*vPrev + iPrev).
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
			c.saveState(cur, x)
			cycle = k >= 2 && equalBits(cur, back)
		}
		if visit(t, x) {
			return nil
		}
	}
	return nil
}

// sourcesAt writes every voltage and then every current source's value
// at t into s.
func (c *Circuit) sourcesAt(s []float64, t float64) {
	for i, v := range c.vsrc {
		s[i] = v.stim.At(t)
	}
	for i, is := range c.isrc {
		s[len(c.vsrc)+i] = is.stim.At(t)
	}
}

// saveState copies x and every capacitor's companion state into the
// head of the ring state s.
func (c *Circuit) saveState(s, x []float64) {
	i := copy(s, x)
	for _, cp := range c.caps {
		s[i], s[i+1] = cp.vPrev, cp.iPrev
		i += 2
	}
}

// loadState is the inverse of saveState: it restores x and every
// capacitor's companion state from the ring state s.
func (c *Circuit) loadState(x, s []float64) {
	i := copy(x, s[:len(x)])
	for _, cp := range c.caps {
		cp.vPrev, cp.iPrev = s[i], s[i+1]
		i += 2
	}
}

// equalBits reports whether a and b hold the same float64 bits.
func equalBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
