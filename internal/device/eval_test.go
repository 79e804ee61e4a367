package device

import (
	"fmt"
	"math"
	"testing"
)

// The reference currents below are the closed-form currents as they
// stood before the models returned derivatives, kept verbatim. Eval's
// current must match them bit for bit: the circuit simulator's Newton
// residual is built from it, so only the Jacobian may change.

func refLevel1(m *Level1, vgs, vds float64) float64 {
	if vds < 0 {
		vds = 0
	}
	vov := vgs - m.VT
	if vov <= 0 {
		return 0
	}
	beta := m.KP() * m.Geom.W / m.Geom.L
	clm := 1 + m.Lambda*vds
	if vds < vov {
		return beta * (vov*vds - 0.5*vds*vds) * clm
	}
	return 0.5 * beta * vov * vov * clm
}

func refVelSat(m *VelSatLevel1, vgs, vds float64) float64 {
	id := refLevel1(&m.Level1, vgs, vds)
	if m.VSat <= 0 {
		return id
	}
	vov := vgs - m.Level1.VT
	if vov <= 0 {
		return id
	}
	limit := m.Geom.W * m.Geom.Cox * vov * m.VSat
	if limit <= 0 {
		return id
	}
	return id * limit / (id + limit)
}

func refLevel61(m *Level61, vgs, vds float64) float64 {
	if vds < 0 {
		vds = 0
	}
	gammaExp := 2 + math.Abs(m.Gamma)
	nVt := gammaExp * m.SS / math.Ln10
	if nVt <= 0 {
		nVt = 0.060 / math.Ln10
	}
	vdsShift := vds
	if m.DIBLClamp > 0 && vdsShift > m.DIBLClamp {
		vdsShift = m.DIBLClamp
	}
	vte := m.VT0 - m.DIBL*vdsShift
	x := (vgs - vte) / nVt
	var vgte float64
	switch {
	case x > 40:
		vgte = vgs - vte
	case x < -40:
		vgte = nVt * math.Exp(x)
	default:
		vgte = nVt * math.Log1p(math.Exp(x))
	}
	mu := m.Mu0
	if m.Gamma != 0 && m.VAA > 0 {
		mu *= math.Pow(vgte/m.VAA, m.Gamma)
	}
	msat := m.MSat
	if msat <= 0 {
		msat = 2.5
	}
	alpha := m.AlphaSat
	if alpha <= 0 {
		alpha = 1
	}
	vsat := alpha * vgte
	var vdse float64
	if vsat <= 0 {
		vdse = 0
	} else {
		vdse = vds / math.Pow(1+math.Pow(vds/vsat, msat), 1/msat)
	}
	gch := mu * m.Geom.Cox * (m.Geom.W / m.Geom.L) * vgte
	id := gch * vdse * (1 + m.Lambda*vds)
	return id + m.ILeak + m.Gmin*vds
}

// evalModel is what the oracle needs of a model: Eval plus the ID
// convenience every concrete model keeps.
type evalModel interface {
	Model
	ID(vgs, vds float64) float64
}

func refID(m evalModel, vgs, vds float64) float64 {
	switch m := m.(type) {
	case *Level1:
		return refLevel1(m, vgs, vds)
	case *VelSatLevel1:
		return refVelSat(m, vgs, vds)
	case *Level61:
		return refLevel61(m, vgs, vds)
	}
	panic(fmt.Sprintf("no reference current for %T", m))
}

// fdStep is the gate-bias step of the finite-difference oracle.
const fdStep = 1e-6

// fdDerivs returns central differences of ID with steps hg in vgs and
// hd in vds. Within two steps of vds = 0, where the models clamp
// negative vds, the vds derivative is the second-order one-sided
// difference from above.
func fdDerivs(m evalModel, vgs, vds, hg, hd float64) (gm, gds float64) {
	gm = (m.ID(vgs+hg, vds) - m.ID(vgs-hg, vds)) / (2 * hg)
	if vds < 2*hd {
		gds = (-3*m.ID(vgs, vds) + 4*m.ID(vgs, vds+hd) - m.ID(vgs, vds+2*hd)) / (2 * hd)
	} else {
		gds = (m.ID(vgs, vds+hd) - m.ID(vgs, vds-hd)) / (2 * hd)
	}
	return gm, gds
}

// drainScale returns the vds over which m's drain characteristic bends
// near vds = 0 at gate drive vgs: Level61's saturation voltage
// AlphaSat*vgte, which falls far below fdStep in deep subthreshold.
// The square-law models have no such knee.
func drainScale(m evalModel, vgs float64) float64 {
	l, ok := m.(*Level61)
	if !ok {
		return math.Inf(1)
	}
	n := nVt61(l)
	return l.AlphaSat * n * math.Log1p(math.Exp((vgs-l.VT0)/n))
}

// nearKink reports whether (vgs, vds) lies within d of a bias where a
// central difference is inaccurate: Level61's DIBL clamp, where gds
// jumps, and the square law's vov = 0 and vds = vov, where the second
// derivative does.
func nearKink(m evalModel, vgs, vds, d float64) bool {
	near := func(a, b float64) bool { return math.Abs(a-b) < d }
	if l, ok := m.(*Level61); ok {
		return l.DIBLClamp > 0 && near(vds, l.DIBLClamp)
	}
	vt := threshold(m)
	return near(vgs, vt) || near(vds, vgs-vt)
}

// checkEval compares one Eval against the reference current (bit for
// bit) and its derivatives against the finite-difference oracle.
func checkEval(m evalModel, vgs, vds float64) error {
	id, gm, gds := m.Eval(vgs, vds)
	if ref := refID(m, vgs, vds); math.Float64bits(id) != math.Float64bits(ref) {
		return fmt.Errorf("%s(%g, %g): Eval id %v, reference %v", m.Name(), vgs, vds, id, ref)
	}
	if got := m.ID(vgs, vds); math.Float64bits(id) != math.Float64bits(got) {
		return fmt.Errorf("%s(%g, %g): Eval id %v, ID %v", m.Name(), vgs, vds, id, got)
	}
	if nearKink(m, vgs, vds, 10*fdStep) {
		return nil
	}
	hg, hd := fdStep, fdStep
	if vds < 2*fdStep {
		hd = math.Min(fdStep, drainScale(m, vgs)/64)
	}
	fgm, fgds := fdDerivs(m, vgs, vds, hg, hd)
	cgm, cgds := fdDerivs(m, vgs, vds, 2*hg, 2*hd)
	// The oracle is trusted to within its change when the step doubles
	// (its truncation error) plus its round-off, a few ulps of the
	// current per step; the latter dominates for derivatives that vanish
	// next to a nonzero current, or that sit below the leakage floor's
	// resolution.
	ok := func(an, fd, coarse, h float64) bool {
		roundoff := 64 * 0x1p-52 * math.Abs(id) / h
		return math.Abs(an-fd) <= 1e-5*math.Abs(an)+2*math.Abs(fd-coarse)+roundoff
	}
	if !ok(gm, fgm, cgm, hg) || !ok(gds, fgds, cgds, hd) {
		return fmt.Errorf("%s(%g, %g): analytic gm %g gds %g, finite-difference gm %g gds %g",
			m.Name(), vgs, vds, gm, gds, fgm, fgds)
	}
	return nil
}

// oracleModels returns one model of each class, thresholds shifted by
// dvt: the golden pentacene Level61, the same without its leakage
// floor (so the deep-subthreshold channel current is not buried under
// it), two with exponents off the pentacene ones, a square-law Level1
// on the same geometry, and the silicon velocity-saturated N and P
// devices. The reference current keeps math.Pow, so the off-pentacene
// exponents check Eval's pow where it folds the fraction (Gamma 0.7
// and 1/1.5) and multiplies in integer powers (MSat 1.5 and 3).
func oracleModels(dvt float64) []evalModel {
	l61 := PentaceneGolden()
	l61.VT0 += dvt
	bare := *l61
	bare.ILeak, bare.Gmin = 0, 0
	knee15 := *l61
	knee15.Gamma, knee15.MSat = 0.7, 1.5
	knee3 := knee15
	knee3.MSat = 3
	l1 := &Level1{Geom: PentaceneGeometry(), VT: 1.3 + dvt, Mu: PentaceneMuLin, Lambda: 0.01}
	nm, pm := SiliconNMOS(SiliconWN), SiliconPMOS(SiliconWP)
	nm.VT += dvt
	pm.VT += dvt
	return []evalModel{l61, &bare, &knee15, &knee3, l1, nm, pm}
}

// nVt61 is Level61's internal subthreshold slope (x = (vgs-vte)/nVt).
func nVt61(m *Level61) float64 { return (2 + math.Abs(m.Gamma)) * m.SS / math.Ln10 }

// TestEvalDerivativesMatchFiniteDifferences checks every model's
// (id, gm, gds) over a bias grid that includes vds = 0, both sides of
// the DIBL clamp, both sides of Level61's x = ±40 overdrive branch
// edges, and both sides of the square law's linear/saturation boundary.
func TestEvalDerivativesMatchFiniteDifferences(t *testing.T) {
	const edge = 1e-3 // distance from a branch edge, far above fdStep
	for _, dvt := range []float64{0, -0.5, 0.5} {
		for _, m := range oracleModels(dvt) {
			var pts [][2]float64
			switch m := m.(type) {
			case *Level61:
				c, n := m.DIBLClamp, nVt61(m)
				for _, vds := range []float64{0, 1e-3, 0.5, 1, 5, c - edge, c, c + edge, 15, 25} {
					for vgs := -20.0; vgs <= 20; vgs += 0.5 {
						pts = append(pts, [2]float64{vgs, vds})
					}
					vte := m.VT0 - m.DIBL*math.Min(vds, c)
					for _, x := range []float64{-40, 40} {
						for _, dx := range []float64{-edge, 0, edge} {
							pts = append(pts, [2]float64{vte + (x+dx)*n, vds})
						}
					}
				}
			default:
				lo, hi, step := 0.0, 1.1, 0.05
				if _, ok := m.(*Level1); ok {
					lo, hi, step = -2, 10, 0.25
				}
				for vgs := lo; vgs <= hi; vgs += step {
					for vds := 0.0; vds <= hi; vds += step {
						pts = append(pts, [2]float64{vgs, vds})
					}
					if vov := vgs - threshold(m); vov > edge {
						for _, d := range []float64{-edge, 0, edge} {
							pts = append(pts, [2]float64{vgs, vov + d})
						}
					}
				}
			}
			for _, p := range pts {
				if err := checkEval(m, p[0], p[1]); err != nil {
					t.Errorf("dvt %g: %v", dvt, err)
				}
			}
		}
	}
}

// threshold returns a square-law model's threshold voltage.
func threshold(m evalModel) float64 {
	switch m := m.(type) {
	case *Level1:
		return m.VT
	case *VelSatLevel1:
		return m.VT
	}
	panic(fmt.Sprintf("%T has no square-law threshold", m))
}

// FuzzEval checks the same two properties as the grid test at arbitrary
// (vgs, vds, threshold shift) inside the circuits' bias range.
func FuzzEval(f *testing.F) {
	g := PentaceneGolden()
	n := nVt61(g)
	for _, s := range [][3]float64{
		{0, 0, 0},
		{5, 1, 0},
		{-5, 10 - 1e-3, 0},
		{-5, 10 + 1e-3, 0.3},
		{g.VT0 - 40*n - 1e-3, 1e-4, 0},
		{g.VT0 + 40*n + 1e-3, 2, 0},
		{SiliconVT + 0.4, 0.4 - 1e-3, 0},
		{SiliconVT + 0.4, 0.4 + 1e-3, 0},
		{20, 25, -0.5},
		{-20, 25, 0.5},
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, vgs, vds, dvt float64) {
		for _, v := range []float64{vgs, vds, dvt} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if math.Abs(vgs) > 40 || math.Abs(vds) > 40 || math.Abs(dvt) > 2 {
			t.Skip()
		}
		for _, m := range oracleModels(dvt) {
			if err := checkEval(m, vgs, math.Abs(vds)); err != nil {
				t.Fatal(err)
			}
		}
	})
}
