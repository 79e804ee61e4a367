package device

import "math"

// Model is a three-terminal FET compact model in n-normalized form.
//
// Eval must return the channel current in amperes for the given
// gate-source and drain-source voltages, with vds >= 0, together with
// its partial derivatives: the transconductance gm = dID/dVGS and the
// output conductance gds = dID/dVDS. The circuit simulator stamps those
// conductances straight into its Newton Jacobian, so implementations
// must be continuous in both arguments and return exact derivatives of
// the current they report (one-sided from vds > 0 at vds = 0).
type Model interface {
	// Eval returns the drain current and its partial derivatives with
	// respect to vgs and vds, for vds >= 0.
	Eval(vgs, vds float64) (id, gm, gds float64)
	// Name identifies the model (for reports and errors).
	Name() string
}

// Geometry describes the device geometry and gate stack.
type Geometry struct {
	W   float64 // channel width in meters
	L   float64 // channel length in meters
	Cox float64 // gate capacitance per unit area, F/m^2
}

// GateCap returns the total gate capacitance Cox*W*L in farads.
func (g Geometry) GateCap() float64 { return g.Cox * g.W * g.L }

// OxideCapacitance returns the per-area gate capacitance of a dielectric
// with relative permittivity epsR and thickness t (meters).
func OxideCapacitance(epsR, t float64) float64 {
	const eps0 = 8.854e-12 // F/m
	return epsR * eps0 / t
}

// Level1 is the SPICE level 1 (Shichman-Hodges) square-law MOSFET model.
// It has no subthreshold conduction and no leakage floor, which is
// exactly the deficiency the paper demonstrates in Figure 4.
type Level1 struct {
	Geom   Geometry
	VT     float64 // threshold voltage (n-normalized: conducting for vgs > VT)
	Mu     float64 // low-field mobility, m^2/(V*s)
	Lambda float64 // channel-length modulation, 1/V
}

// Name implements Model.
func (m *Level1) Name() string { return "level1" }

// KP returns the transconductance parameter Mu*Cox in A/V^2.
func (m *Level1) KP() float64 { return m.Mu * m.Geom.Cox }

// ID returns the drain current in amperes for vds >= 0.
func (m *Level1) ID(vgs, vds float64) float64 {
	id, _, _ := m.Eval(vgs, vds)
	return id
}

// Eval implements Model.
func (m *Level1) Eval(vgs, vds float64) (id, gm, gds float64) {
	if vds < 0 {
		vds = 0
	}
	vov := vgs - m.VT
	if vov <= 0 {
		return 0, 0, 0
	}
	beta := m.KP() * m.Geom.W / m.Geom.L
	clm := 1 + m.Lambda*vds
	if vds < vov {
		q := vov*vds - 0.5*vds*vds
		return beta * q * clm, beta * vds * clm, beta*(vov-vds)*clm + beta*q*m.Lambda
	}
	sat := 0.5 * beta * vov * vov
	return sat * clm, beta * vov * clm, sat * m.Lambda
}

// Level61 is an RPI-style thin-film-transistor compact model (SPICE level
// 61 class). Unlike Level1 it reproduces the experimentally observed
// subthreshold conduction, leakage floor, power-law mobility enhancement,
// and drain-induced threshold shift of accumulation-mode TFTs.
//
// The formulation follows the unified charge interpolation used by the
// RPI a-Si:H model:
//
//	vte   = VT0 - DIBL*vds                        (drain-induced shift)
//	nVt   = (2+Gamma) * SS / ln(10)               (internal slope; see below)
//	vgte  = nVt * ln(1 + exp((vgs-vte)/nVt))      (unified overdrive)
//	mu    = Mu0 * (vgte/VAA)^Gamma                (power-law mobility)
//	vsat  = AlphaSat * vgte
//	vdse  = vds / (1 + (vds/vsat)^M)^(1/M)        (smooth saturation)
//	id    = mu*Cox*(W/L)*vgte*vdse*(1+Lambda*vds) + Ileak + Gmin*vds
//
// In deep subthreshold the drain saturates (vds >> vsat), so
// id ~ vgte^(2+Gamma) and the exponential tail of vgte is raised to the
// (2+Gamma) power; the internal slope nVt is therefore scaled by
// (2+Gamma) so that the terminal characteristic exhibits one decade of
// current per SS volts of gate drive, matching how SS is measured.
type Level61 struct {
	Geom     Geometry
	VT0      float64 // zero-bias threshold voltage
	SS       float64 // subthreshold swing, V/decade
	Mu0      float64 // band mobility prefactor, m^2/(V*s)
	VAA      float64 // mobility-enhancement reference voltage
	Gamma    float64 // mobility-enhancement exponent
	AlphaSat float64 // saturation-voltage proportionality (~1)
	MSat     float64 // knee sharpness of the saturation transition
	Lambda   float64 // output-conductance parameter, 1/V
	DIBL     float64 // drain-induced threshold shift, V/V
	// DIBLClamp bounds the drain bias used in the threshold-shift term
	// (0 = unbounded). Devices are only characterized up to |VDS| = 10 V;
	// clamping avoids extrapolating the shift far beyond the data when
	// circuits place both rails (VDD - VSS up to 30 V) across a device.
	DIBLClamp float64
	ILeak     float64 // gate-independent leakage floor, A
	Gmin      float64 // minimum output conductance, S
}

// Name implements Model.
func (m *Level61) Name() string { return "level61" }

// ID returns the drain current in amperes for vds >= 0.
func (m *Level61) ID(vgs, vds float64) float64 {
	id, _, _ := m.Eval(vgs, vds)
	return id
}

// Eval implements Model. The derivatives reuse the current's
// intermediates: the logistic factor e/(1+e) of the softplus overdrive,
// the power-law mobility's mu*Gamma/vgte, and the saturation knee's
// (vds/vsat)^M, so no transcendental is evaluated twice.
func (m *Level61) Eval(vgs, vds float64) (id, gm, gds float64) {
	if vds < 0 {
		vds = 0
	}
	gammaExp := 2 + math.Abs(m.Gamma)
	nVt := gammaExp * m.SS / math.Ln10
	if nVt <= 0 {
		nVt = 0.060 / math.Ln10
	}
	vdsShift := vds
	dibl := m.DIBL // dvte/dvds = -dibl
	if m.DIBLClamp > 0 && vdsShift > m.DIBLClamp {
		vdsShift = m.DIBLClamp
		dibl = 0
	}
	vte := m.VT0 - m.DIBL*vdsShift
	x := (vgs - vte) / nVt
	var vgte, dvgte float64 // dvgte = dvgte/dvgs
	switch {
	case x > 40:
		vgte, dvgte = vgs-vte, 1
	case x < -40:
		e := math.Exp(x)
		vgte, dvgte = nVt*e, e
	default:
		e := math.Exp(x)
		vgte, dvgte = nVt*math.Log1p(e), e/(1+e)
	}
	mu := m.Mu0
	gamma := 0.0 // vgte*dmu/dvgte / mu
	if m.Gamma != 0 && m.VAA > 0 {
		mu *= pow(vgte/m.VAA, m.Gamma)
		gamma = m.Gamma
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
	// vdse = vds / r^(1/M) with r = 1 + (vds/vsat)^M, so
	// dvdse/dvds = vdse/(vds*r) and vgte*dvdse/dvgte = vdse*(1-1/r);
	// 1-1/r stays finite when (vds/vsat)^M overflows.
	var vdse, dvdse, r float64
	if vsat > 0 {
		r = 1 + pow(vds/vsat, msat)
		p := pow(r, 1/msat)
		vdse, dvdse = vds/p, 1/(p*r)
	}
	clm := 1 + m.Lambda*vds
	gch := mu * m.Geom.Cox * (m.Geom.W / m.Geom.L) * vgte
	id = gch * vdse * clm
	if vsat > 0 {
		// dID/dvgte: gch's own vgte, the mobility and the knee's vsat.
		dvg := mu * m.Geom.Cox * (m.Geom.W / m.Geom.L) * vdse * clm * (2 + gamma - 1/r)
		gm = dvg * dvgte
		gds = gch*(dvdse*clm+vdse*m.Lambda) + gm*dibl
	}
	return id + m.ILeak + m.Gmin*vds, gm, gds + m.Gmin
}

// pow returns math.Pow(x, y) bit for bit. It skips Pow's special-case
// tests, Modf, Frexp and Ldexp wherever the result cannot differ.
//
// For finite x > 0, Pow splits |y| into an integer yi and a fraction
// yf, folded into (-0.5, 0.5]. It takes a1 = Exp(yf*Log(x)) and
// multiplies in Frexp(x)'s mantissa raised to yi by repeated squaring,
// carrying the split-off binary exponents in an int ae. For y < 0 it
// takes 1/a1 and negates ae. It returns Ldexp(a1, ae).
//
// pow runs the same multiplies on x itself, so each of its values is
// the matching one of Pow's times a power of two. Scaling by a power of
// two is exact and commutes with round-to-nearest while the values stay
// normal. So every product and the reciprocal round to the same
// significand as Pow's, and Pow's final Ldexp is exact. The guard keeps
// every value pow uses, x^t with |t| <= |y|+0.5, within 2^±1000, since
// |log2 x| <= |e|+1 for x's unbiased exponent e. Every other x or y
// goes to math.Pow. This holds wherever math.Pow is Go's portable code,
// which is everywhere but s390x.
func pow(x, y float64) float64 {
	switch {
	case y == 0 || x == 1:
		return 1
	case y == 1:
		return x
	}
	// e is x's unbiased exponent for a normal x > 0. For a negative,
	// zero, subnormal, infinite or NaN x, |e| >= 1023, so the guard
	// fails for them too, as it does for a NaN or infinite y.
	e := int(math.Float64bits(x)>>52) - 1023
	ay := math.Abs(y)
	if !(float64(max(e, -e)+1)*(ay+1) < 1000) {
		return math.Pow(x, y)
	}
	switch y {
	case 0.5:
		return math.Sqrt(x)
	case -0.5:
		return 1 / math.Sqrt(x)
	}
	yi := math.Trunc(ay)
	a := 1.0
	if yf := ay - yi; yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a = math.Exp(yf * math.Log(x))
	}
	for i, xp := int64(yi), x; i != 0; i >>= 1 {
		if i&1 == 1 {
			a *= xp
		}
		xp *= xp
	}
	if y < 0 {
		a = 1 / a
	}
	return a
}

// VelSatLevel1 extends Level1 with a velocity-saturation current limit,
// which is required for short-channel silicon devices: without it a 45 nm
// transistor's square-law current is wildly optimistic.
type VelSatLevel1 struct {
	Level1
	VSat float64 // carrier saturation velocity, m/s
}

// Name implements Model.
func (m *VelSatLevel1) Name() string { return "level1-vsat" }

// ID returns the drain current in amperes for vds >= 0.
func (m *VelSatLevel1) ID(vgs, vds float64) float64 {
	id, _, _ := m.Eval(vgs, vds)
	return id
}

// Eval implements Model.
func (m *VelSatLevel1) Eval(vgs, vds float64) (id, gm, gds float64) {
	id, gm, gds = m.Level1.Eval(vgs, vds)
	if m.VSat <= 0 {
		return id, gm, gds
	}
	vov := vgs - m.Level1.VT
	if vov <= 0 {
		return id, gm, gds
	}
	// Velocity-saturated limit: Idmax = W * Cox * vov * vsat. Blend with a
	// smooth-min so the characteristic remains continuous.
	limit := m.Geom.W * m.Geom.Cox * vov * m.VSat
	if limit <= 0 {
		return id, gm, gds
	}
	// d(id*limit/(id+limit)) = (limit^2*did + id^2*dlimit) / (id+limit)^2.
	s := id + limit
	a, b := limit*limit/(s*s), id*id/(s*s)
	return id * limit / s, a*gm + b*m.Geom.W*m.Geom.Cox*m.VSat, a * gds
}
