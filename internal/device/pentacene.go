package device

import (
	"fmt"
	"math"
)

// Paper-published pentacene OTFT parameters (Section 4.1, Figure 3).
const (
	// PentaceneW and PentaceneL are the measured device's channel
	// dimensions: W/L = 1000 um / 80 um.
	PentaceneW = 1000e-6
	PentaceneL = 80e-6
	// PentaceneMuLin is the linear-region mobility, 0.16 cm^2/(V*s).
	PentaceneMuLin = 0.16e-4
	// PentaceneSS is the subthreshold swing, 350 mV/decade.
	PentaceneSS = 0.350
	// PentaceneVT1 is the threshold voltage at |VDS| = 1 V (p-type
	// convention: -1.3 V). In n-normalized form the device conducts for
	// vgs above +1.3 V at vds = 1 V... see PentaceneGolden for the
	// bias-dependent threshold mapping.
	PentaceneVT1 = -1.3
	// PentaceneVT10 is the threshold voltage at |VDS| = 10 V (+1.3 V).
	PentaceneVT10 = 1.3
	// PentaceneOnOff is the on-to-off current ratio (1e6).
	PentaceneOnOff = 1e6
)

// PentaceneCox returns the per-area gate capacitance of the paper's gate
// stack: 50 nm ALD Al2O3 (relative permittivity ~9).
func PentaceneCox() float64 { return OxideCapacitance(9.0, 50e-9) }

// PentaceneGeometry returns the measured device geometry.
func PentaceneGeometry() Geometry {
	return Geometry{W: PentaceneW, L: PentaceneL, Cox: PentaceneCox()}
}

// PentaceneGolden returns the "physical" pentacene model used to
// synthesize measurement data in place of the authors' probe-station
// measurements. The paper plots a p-type device swept from VGS = -10 V
// (on) to +10 V (off); in our n-normalized convention the overdrive is
// mirrored, so the golden model's threshold corresponds to the paper's
// -1.3 V reading at VDS = 1 V, and the DIBL term moves the effective
// threshold toward positive paper-convention VGS at high drain bias
// (the direction of the paper's +1.3 V reading at VDS = 10 V).
func PentaceneGolden() *Level61 {
	return &Level61{
		Geom: PentaceneGeometry(),
		// The paper's VT values (-1.3 V at |VDS|=1 V, +1.3 V at 10 V)
		// are linear-extrapolation readings. Because the mobility power
		// law bends the transfer curve upward, the extrapolated
		// threshold sits ~1 V above the model's internal VT at the
		// paper's sweep extent, so the internal threshold is placed
		// correspondingly lower.
		//
		// The drain-induced shift is deliberately softer than the full
		// ±1.3 V annotation implies (0.12 V/V instead of 0.29 V/V, and
		// clamped beyond the 10 V characterization range): taking the
		// extraction readings literally yields zero-gate-bias leakage
		// that makes the paper's own pseudo-E circuits non-functional at
		// their published rails (VDD = 5 V, VSS = -15 V), whereas the
		// authors demonstrate working inverters there (Figs. 7-8). The
		// substitution is recorded in EXPERIMENTS.md.
		VT0:       0.39,
		DIBL:      0.12,
		DIBLClamp: 10,
		SS:        PentaceneSS,
		Mu0:       PentaceneMuLin,
		VAA:       7.0,
		Gamma:     0.12,
		AlphaSat:  1.0,
		MSat:      2.5,
		Lambda:    0.005,
		ILeak:     1.1e-12, // sets the on/off ratio near 1e6
		Gmin:      1e-14,
	}
}

// MeasuredPoint is one bias point of a transfer or output characteristic.
type MeasuredPoint struct {
	VGS float64 // gate drive in paper (p-type) convention: negative = on
	VDS float64 // drain bias magnitude
	ID  float64 // drain current magnitude, A
}

// TransferCurve is an ID-VGS sweep at fixed VDS.
type TransferCurve struct {
	VDS    float64
	Points []MeasuredPoint
}

// SynthesizeTransfer generates a synthetic measured transfer curve at the
// given |VDS| by evaluating the golden pentacene model over the paper's
// sweep range (VGS from -10 V to +10 V in the p-type plot convention)
// and applying deterministic log-normal measurement ripple of the given
// relative magnitude (e.g. 0.05 for 5%). The ripple is deterministic so
// tests and experiments are reproducible.
func SynthesizeTransfer(golden Model, vds float64, n int, ripple float64) TransferCurve {
	if n < 2 {
		n = 2
	}
	curve := TransferCurve{VDS: vds, Points: make([]MeasuredPoint, 0, n)}
	for i := 0; i < n; i++ {
		vgsPaper := -10 + 20*float64(i)/float64(n-1)
		// Mirror into the n-normalized convention: paper VGS=-10 (on)
		// maps to +10 of gate drive.
		id, _, _ := golden.Eval(-vgsPaper, vds)
		if ripple > 0 {
			// Deterministic pseudo-ripple: slow multi-tone drift in
			// log-current, standing in for measurement drift and
			// device-to-device variation. The tones are low-frequency so
			// slope-based parameter extraction stays meaningful.
			w := math.Sin(0.9*vgsPaper+vds) + 0.5*math.Sin(2.1*vgsPaper)
			id *= math.Exp(ripple * w / 1.5)
		}
		curve.Points = append(curve.Points, MeasuredPoint{VGS: vgsPaper, VDS: vds, ID: id})
	}
	return curve
}

// PentaceneMeasurement reproduces the paper's Figure 3 data set: transfer
// sweeps at |VDS| = 1 V and 10 V with 201 points each and mild
// measurement ripple.
func PentaceneMeasurement() []TransferCurve {
	g := PentaceneGolden()
	return []TransferCurve{
		SynthesizeTransfer(g, 1, 201, 0.04),
		SynthesizeTransfer(g, 10, 201, 0.04),
	}
}

// DCParams summarizes scalar DC figures of merit extracted from a
// transfer curve, mirroring the annotations of the paper's Figure 3.
type DCParams struct {
	OnCurrent  float64 // A at full gate drive
	OffCurrent float64 // A at full reverse drive
	OnOffRatio float64
	SS         float64 // V/decade, steepest subthreshold slope
	VT         float64 // threshold (paper p-type convention)
	MuLin      float64 // linear-region mobility, m^2/(V*s)
}

// ExtractDCParams computes on/off currents, the steepest subthreshold
// swing, a linear-extrapolation threshold voltage, and (for vds <= 2 V
// curves) the linear mobility using the device geometry.
func ExtractDCParams(c TransferCurve, geom Geometry) DCParams {
	if len(c.Points) < 3 {
		return DCParams{}
	}
	var p DCParams
	// The device is ON at the most negative paper-VGS.
	p.OnCurrent = c.Points[0].ID
	p.OffCurrent = c.Points[0].ID
	for _, pt := range c.Points {
		if pt.ID > p.OnCurrent {
			p.OnCurrent = pt.ID
		}
		if pt.ID < p.OffCurrent {
			p.OffCurrent = pt.ID
		}
	}
	if p.OffCurrent > 0 {
		p.OnOffRatio = p.OnCurrent / p.OffCurrent
	}
	// Subthreshold swing: minimum dVGS/dlog10(ID) over the falling edge.
	p.SS = math.Inf(1)
	for i := 1; i < len(c.Points); i++ {
		a, b := c.Points[i-1], c.Points[i]
		if a.ID <= 0 || b.ID <= 0 {
			continue
		}
		dlog := math.Log10(a.ID) - math.Log10(b.ID) // current falls with rising VGS
		if dlog <= 1e-9 {
			continue
		}
		ss := (b.VGS - a.VGS) / dlog
		// Only consider the subthreshold decade span (below ~1% of on current).
		if b.ID < 0.01*p.OnCurrent && ss < p.SS && ss > 0 {
			p.SS = ss
		}
	}
	if math.IsInf(p.SS, 1) {
		p.SS = 0
	}
	// Threshold by linear extrapolation of ID vs VGS at max slope
	// (standard linear-region VT extraction).
	bestSlope, bestI := 0.0, -1
	for i := 1; i < len(c.Points)-1; i++ {
		s := (c.Points[i-1].ID - c.Points[i+1].ID) / (c.Points[i+1].VGS - c.Points[i-1].VGS)
		if s > bestSlope {
			bestSlope, bestI = s, i
		}
	}
	if bestI >= 0 && bestSlope > 0 {
		pt := c.Points[bestI]
		// ID = slope * (VT - VGS)  =>  VT = VGS + ID/slope  (p-type falls with VGS)
		p.VT = pt.VGS + pt.ID/bestSlope
		if c.VDS <= 2 && geom.Cox > 0 && geom.W > 0 {
			// Linear region: ID = mu*Cox*(W/L)*Vov*VDS, slope dID/d|VGS| =
			// mu*Cox*(W/L)*VDS.
			p.MuLin = bestSlope * geom.L / (geom.Cox * geom.W * c.VDS)
		}
	}
	return p
}

// String renders the parameters in the style of the paper's Figure 3
// annotation block.
func (p DCParams) String() string {
	return fmt.Sprintf("mu_lin=%.3g cm^2/Vs SS=%.0f mV/dec on/off=%.2g VT=%.2f V",
		p.MuLin*1e4, p.SS*1e3, p.OnOffRatio, p.VT)
}
