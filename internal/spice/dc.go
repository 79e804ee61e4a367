package spice

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// OP is a solved operating point (or one step of a sweep/transient).
type OP struct {
	c *Circuit
	x []float64
}

// V returns the node voltage.
func (o OP) V(n Node) float64 {
	if n == Ground {
		return 0
	}
	return o.x[index(n)]
}

// SourceCurrent returns the branch current of the named voltage source
// (positive flowing from its + terminal through the source to -).
func (o OP) SourceCurrent(name string) (float64, bool) {
	for _, v := range o.c.vsrc {
		if v.name == name {
			return o.x[v.branch], true
		}
	}
	return 0, false
}

// SupplyPower returns the total power delivered by all voltage sources
// in watts (positive = dissipated in the circuit).
func (o OP) SupplyPower(t float64) float64 {
	var p float64
	for _, v := range o.c.vsrc {
		p += -v.stim.At(t) * o.x[v.branch]
	}
	return p
}

// assembleOpts controls one linearized system assembly.
type assembleOpts struct {
	t         float64 // time for stimulus evaluation
	gminExtra float64 // additional node-to-ground conductance (gmin stepping)
	srcScale  float64 // source scaling (source stepping); 1 for normal
	transient bool    // include capacitor companion models
	dt        float64 // transient step
}

// eval returns the current f flowing from node d into the device
// channel at the given terminal voltages, and its partial derivatives
// with respect to vd, vg and vs. The model is n-normalized with
// vds >= 0, so the terminal voltages are mirrored by the polarity and,
// for negative vds, drain and source swap roles.
func (m *mosfet) eval(vd, vg, vs float64) (f, gdd, gdg, gds float64) {
	sigma := 1.0
	if m.pol == P {
		sigma = -1
	}
	vds := sigma * (vd - vs)
	if vds >= 0 {
		id, gm, g := m.model.Eval(sigma*(vg-vs), vds)
		return sigma * id, g, gm, -gm - g
	}
	id, gm, g := m.model.Eval(sigma*(vg-vd), sigma*(vs-vd))
	return -sigma * id, gm + g, -gm, -g
}

// assemble builds the linearized MNA system J*x = rhs around x0,
// reduced to the free unknowns (see layout), in the circuit's
// workspace. c.jac holds the Jacobian's free columns and c.pinned its
// pinned ones, both row-major, and c.rhs the right-hand side. Each has
// the free rows, then one side row per pin: the pinned node's own KCL
// row, Gmin included. Once every element is stamped, the pinned columns
// times their known voltages move to the right-hand side. x0 is the
// full MNA vector: devices linearize around every node voltage in it,
// pinned ones included.
func (c *Circuit) assemble(x0 []float64, opt assembleOpts) {
	clear(c.jac)
	clear(c.pinned)
	clear(c.rhs)
	for k := range c.pins {
		p := &c.pins[k]
		p.v = p.sign * (opt.srcScale * p.src.stim.At(opt.t))
	}
	volt := func(nd Node) float64 {
		if nd == Ground {
			return 0
		}
		return x0[index(nd)]
	}
	// Gmin from every node to ground.
	gmin := c.Gmin + opt.gminExtra
	for _, k := range c.slot[:c.numNodes-1] {
		c.stamp(k, k, gmin)
	}
	for _, r := range c.res {
		a, b := c.at(r.a), c.at(r.b)
		c.stamp(a, a, r.g)
		c.stamp(a, b, -r.g)
		c.stamp(b, b, r.g)
		c.stamp(b, a, -r.g)
	}
	if opt.transient {
		for _, cp := range c.caps {
			if cp.c <= 0 {
				continue
			}
			geq := 2 * cp.c / opt.dt
			ieq := geq*cp.vPrev + cp.iPrev
			a, b := c.at(cp.a), c.at(cp.b)
			c.stamp(a, a, geq)
			c.stamp(a, b, -geq)
			c.stamp(b, b, geq)
			c.stamp(b, a, -geq)
			c.inject(a, ieq)
			c.inject(b, -ieq)
		}
	}
	for _, v := range c.kept {
		a, b, br := c.at(v.a), c.at(v.b), c.slot[v.branch]
		c.stamp(a, br, 1)
		c.stamp(br, a, 1)
		c.stamp(b, br, -1)
		c.stamp(br, b, -1)
		c.inject(br, opt.srcScale*v.stim.At(opt.t))
	}
	for _, is := range c.isrc {
		cur := opt.srcScale * is.stim.At(opt.t)
		c.inject(c.at(is.a), -cur)
		c.inject(c.at(is.b), cur)
	}
	// MOSFETs: the channel current f(vd,vg,vs) leaving node d, linearized
	// with the model's analytic conductances as
	// f = f0 + gdd*dvd + gdg*dvg + gds*dvs. The linear part is KCL in J;
	// the affine remainder goes to rhs.
	for _, m := range c.mos {
		vd, vg, vs := volt(m.d), volt(m.g), volt(m.s)
		f0, gdd, gdg, gds := m.eval(vd, vg, vs)
		lin := f0 - gdd*vd - gdg*vg - gds*vs
		d, g, s := c.at(m.d), c.at(m.g), c.at(m.s)
		c.stamp(d, d, gdd)
		c.stamp(d, g, gdg)
		c.stamp(d, s, gds)
		c.inject(d, -lin)
		c.stamp(s, d, -gdd)
		c.stamp(s, g, -gdg)
		c.stamp(s, s, -gds)
		c.inject(s, lin)
	}
	// A pinned column's voltage is known, so its entry times that
	// voltage moves to the right-hand side. Each entry is multiplied
	// once it is complete, pin by pin in node order: the arithmetic of
	// eliminating the pinned columns from the full system. Moving each
	// stamp as it arrives instead rounds differently: it moves silicon's
	// delays and slews away from the full solve's, which this keeps.
	np := len(c.pins)
	for r := range c.rhs {
		for k, g := range c.pinned[r*np : r*np+np] {
			c.rhs[r] -= g * c.pins[k].v
		}
	}
}

// at returns node n's row and column in the reduced system (see
// layout), or -1 for ground.
func (c *Circuit) at(n Node) int {
	if n == Ground {
		return -1
	}
	return c.slot[index(n)]
}

// stamp adds g to the Jacobian entry (r, k) of the reduced system, as
// at and layout number its rows and columns: -1 for ground drops it,
// and a pinned column's entry accumulates apart, for assemble to move
// to the right-hand side.
func (c *Circuit) stamp(r, k int, g float64) {
	if r < 0 || k < 0 {
		return
	}
	if k < c.free {
		c.jac[r*c.free+k] += g
	} else {
		c.pinned[r*len(c.pins)+k-c.free] += g
	}
}

// inject adds i to the right-hand side of row r (-1 for ground).
func (c *Circuit) inject(r int, i float64) {
	if r >= 0 {
		c.rhs[r] += i
	}
}

// newton runs damped Newton-Raphson from guess x0 (which may be nil),
// returning the solution and the iterations it took. Each iteration
// factors only the free unknowns of the reduced system (see assemble);
// a pin's node takes its source value and its branch current is
// recovered from its side row. The update is then damped over the full
// MNA vector as one: a pinned node moves toward its source value under
// the same voltage step limit as every other node. The full solution,
// its update and the reduced system live in the circuit's workspace,
// allocated once per topology: the returned slice is overwritten by the
// next solve, and x0 may be a previous solution.
func (c *Circuit) newton(x0 []float64, opt assembleOpts) ([]float64, int, error) {
	c.layout()
	x, xNew, nf := c.x, c.xNew, c.free
	if x0 != nil {
		copy(x, x0)
	} else {
		clear(x)
	}
	for iter := 0; iter < c.MaxIter; iter++ {
		c.assemble(x, opt)
		y, err := solveDense(c.jac[:nf*nf], c.rhs[:nf])
		if err != nil {
			return nil, iter + 1, err
		}
		for i, k := range c.slot {
			if k < nf {
				xNew[i] = y[k]
			}
		}
		for k, p := range c.pins {
			cur := c.rhs[nf+k]
			for i, g := range c.jac[(nf+k)*nf : (nf+k+1)*nf] {
				cur -= g * y[i]
			}
			xNew[p.node], xNew[p.src.branch] = p.v, p.sign*cur
		}
		// Damp the voltage update.
		maxDv := 0.0
		nv := c.numNodes - 1
		for i := 0; i < nv; i++ {
			if dv := math.Abs(xNew[i] - x[i]); dv > maxDv {
				maxDv = dv
			}
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
	return nil, c.MaxIter, fmt.Errorf("spice: Newton iteration did not converge in %d steps", c.MaxIter)
}

// solveDC finds the DC solution at time t, using gmin and source stepping
// as fallbacks for hard-to-converge bias points. Entering either
// fallback counts one spice.gmin_step / spice.source_step event, so a
// run whose convergence degraded shows it in the stage metrics; every
// Newton iteration of the solve counts toward spice.newton_iter. The
// solution lives in the circuit's workspace (see newton).
func (c *Circuit) solveDC(t float64, guess []float64) ([]float64, error) {
	iters := 0
	defer func() { obs.Add(obs.StageSpiceNewton, int64(iters)) }()
	solve := func(x0 []float64, opt assembleOpts) ([]float64, error) {
		x, k, err := c.newton(x0, opt)
		iters += k
		return x, err
	}
	base := assembleOpts{t: t, srcScale: 1}
	if x, err := solve(guess, base); err == nil {
		return x, nil
	}
	// Gmin stepping: relax with a large shunt conductance, then tighten.
	obs.Add(obs.StageSpiceGmin, 1)
	var x []float64
	ok := true
	for g := 1e-3; g >= 1e-12; g /= 10 {
		opt := base
		opt.gminExtra = g
		nx, err := solve(x, opt)
		if err != nil {
			ok = false
			break
		}
		x = nx
	}
	if ok && x != nil {
		if fx, err := solve(x, base); err == nil {
			return fx, nil
		}
	}
	// Source stepping.
	obs.Add(obs.StageSpiceSource, 1)
	x = nil
	for scale := 0.05; scale <= 1.0001; scale += 0.05 {
		opt := base
		opt.srcScale = math.Min(scale, 1)
		nx, err := solve(x, opt)
		if err != nil {
			return nil, fmt.Errorf("spice: source stepping failed at %.0f%%: %w", scale*100, err)
		}
		x = nx
	}
	return x, nil
}

// DCOperatingPoint solves the DC bias point at t = 0.
func (c *Circuit) DCOperatingPoint() (OP, error) {
	x, err := c.solveDC(0, nil)
	if err != nil {
		return OP{}, err
	}
	return OP{c: c, x: append([]float64(nil), x...)}, nil
}

// SweepPoint is one solved bias point of a DC sweep.
type SweepPoint struct {
	Value float64
	OP
}

// DCSweep sweeps the named voltage source from lo to hi in n points,
// warm-starting each point from the previous solution (continuation).
// The source's stimulus is restored afterward.
func (c *Circuit) DCSweep(source string, lo, hi float64, n int) ([]SweepPoint, error) {
	if n < 2 {
		return nil, fmt.Errorf("spice: sweep needs at least 2 points")
	}
	orig, ok := c.FindV(source)
	if !ok {
		return nil, fmt.Errorf("spice: no voltage source %q", source)
	}
	defer func() { _ = c.SetV(source, orig) }()
	out := make([]SweepPoint, 0, n)
	var guess []float64
	for i := 0; i < n; i++ {
		val := lo + (hi-lo)*float64(i)/float64(n-1)
		if err := c.SetV(source, DC(val)); err != nil {
			return nil, err
		}
		x, err := c.solveDC(0, guess)
		if err != nil {
			return nil, fmt.Errorf("spice: sweep %s=%.3f: %w", source, val, err)
		}
		guess = x
		out = append(out, SweepPoint{Value: val, OP: OP{c: c, x: append([]float64(nil), x...)}})
	}
	return out, nil
}
