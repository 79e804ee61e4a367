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

// assemble builds the linearized MNA system J*x = rhs around x0. j is
// the n*n Jacobian in row-major order, n = len(rhs).
func (c *Circuit) assemble(j, rhs, x0 []float64, opt assembleOpts) {
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
	// Gmin from every node to ground.
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
	// MOSFETs: the channel current f(vd,vg,vs) leaving node d, linearized
	// with the model's analytic conductances as
	// f = f0 + gdd*dvd + gdg*dvg + gds*dvs. The linear part is KCL in J;
	// the affine remainder goes to rhs.
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

// newton runs damped Newton-Raphson from guess x0 (which may be nil),
// returning the solution and the iterations it took. The solution, the
// right-hand side and the Jacobian live in the circuit's workspace,
// allocated once per system size: the returned slice is overwritten by
// the next solve, and x0 may be a previous solution.
func (c *Circuit) newton(x0 []float64, opt assembleOpts) ([]float64, int, error) {
	n := c.unknowns()
	if len(c.x) != n {
		c.x, c.rhs, c.jac = make([]float64, n), make([]float64, n), make([]float64, n*n)
	}
	x := c.x
	if x0 != nil {
		copy(x, x0)
	} else {
		clear(x)
	}
	for iter := 0; iter < c.MaxIter; iter++ {
		c.assemble(c.jac, c.rhs, x, opt)
		xNew, err := solveDense(c.jac, c.rhs)
		if err != nil {
			return nil, iter + 1, err
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
