package spice

import (
	"fmt"

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
// trapezoidal method, recording the given nodes. The initial condition is
// the DC operating point at t = 0. Each completed time step counts one
// spice.tran_step event and each of its Newton iterations one
// spice.newton_iter event (the initial DC solve counts its own).
func (c *Circuit) Transient(tstop, dt float64, record ...Node) (*Tran, error) {
	if dt <= 0 || tstop <= dt {
		return nil, fmt.Errorf("spice: bad transient window tstop=%g dt=%g", tstop, dt)
	}
	var steps, iters int
	defer func() {
		obs.Add(obs.StageSpiceTranStep, int64(steps))
		obs.Add(obs.StageSpiceNewton, int64(iters))
	}()
	x, err := c.solveDC(0, nil)
	if err != nil {
		return nil, fmt.Errorf("spice: transient initial condition: %w", err)
	}
	volt := func(x []float64, nd Node) float64 {
		if nd == Ground {
			return 0
		}
		return x[index(nd)]
	}
	// Initialize capacitor companion state from the DC solution.
	for _, cp := range c.caps {
		cp.vPrev = volt(x, cp.a) - volt(x, cp.b)
		cp.iPrev = 0
	}
	samples := int(tstop/dt+0.5) + 1 // t = 0 plus the steps taken below
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
	c.unknowns() // assign branch indices before sampling currents
	snapshot := func(t float64, x []float64) {
		tr.Times = append(tr.Times, t)
		for _, n := range record {
			tr.nodes[n] = append(tr.nodes[n], volt(x, n))
		}
		for _, v := range c.vsrc {
			tr.srcI[v.name] = append(tr.srcI[v.name], x[v.branch])
		}
	}
	snapshot(0, x)
	opt := assembleOpts{srcScale: 1, transient: true, dt: dt}
	for t := dt; t <= tstop+dt/2; t += dt {
		opt.t = t
		nx, k, err := c.newton(x, opt)
		iters += k
		if err != nil {
			return nil, fmt.Errorf("spice: transient t=%g: %w", t, err)
		}
		steps++
		// Update companion state: i = geq*(v_new) - (geq*vPrev + iPrev).
		for _, cp := range c.caps {
			if cp.c <= 0 {
				continue
			}
			geq := 2 * cp.c / dt
			v := volt(nx, cp.a) - volt(nx, cp.b)
			i := geq*v - (geq*cp.vPrev + cp.iPrev)
			cp.vPrev, cp.iPrev = v, i
		}
		x = nx
		snapshot(t, x)
	}
	return tr, nil
}
