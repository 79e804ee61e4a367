package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOxideCapacitance(t *testing.T) {
	// 50 nm Al2O3 (epsR 9): ~1.59e-3 F/m^2.
	got := OxideCapacitance(9, 50e-9)
	if got < 1.5e-3 || got > 1.7e-3 {
		t.Fatalf("Al2O3 Cox = %g, want ~1.59e-3", got)
	}
	// Thinner oxide means more capacitance.
	if OxideCapacitance(9, 25e-9) <= got {
		t.Fatal("capacitance should increase as oxide thins")
	}
}

func TestGeometryGateCap(t *testing.T) {
	g := PentaceneGeometry()
	c := g.GateCap()
	// 1000um x 80um with ~1.59e-3 F/m^2 => ~127 pF.
	if c < 100e-12 || c > 160e-12 {
		t.Fatalf("pentacene gate cap = %g, want ~127 pF", c)
	}
}

func TestLevel1Regions(t *testing.T) {
	m := &Level1{Geom: PentaceneGeometry(), VT: 1.3, Mu: PentaceneMuLin, Lambda: 0}
	if got := m.ID(0.5, 5); got != 0 {
		t.Fatalf("below threshold: ID = %g, want 0", got)
	}
	// Linear region grows with vds below saturation.
	lin1 := m.ID(5, 1)
	lin2 := m.ID(5, 2)
	if !(lin2 > lin1 && lin1 > 0) {
		t.Fatalf("linear region not increasing: %g, %g", lin1, lin2)
	}
	// Saturation: flat beyond vov with lambda = 0.
	sat1 := m.ID(5, 3.7)
	sat2 := m.ID(5, 8)
	if math.Abs(sat1-sat2) > 1e-12*sat1 {
		t.Fatalf("saturation not flat: %g vs %g", sat1, sat2)
	}
	// Continuity at the linear/saturation boundary.
	vov := 5 - m.VT
	if d := math.Abs(m.ID(5, vov-1e-9) - m.ID(5, vov+1e-9)); d > 1e-9*sat1 {
		t.Fatalf("discontinuity at vds = vov: %g", d)
	}
	// Negative vds clamps to zero bias.
	if got := m.ID(5, -1); got != 0 {
		t.Fatalf("negative vds should clamp: %g", got)
	}
}

func TestLevel61SubthresholdSlope(t *testing.T) {
	m := PentaceneGolden()
	// Deep subthreshold at vds = 1: successive 0.35 V steps of gate drive
	// should change the current by ~1 decade.
	id1 := m.ID(-1.0, 1) - m.ILeak - m.Gmin*1
	id2 := m.ID(-1.0-PentaceneSS, 1) - m.ILeak - m.Gmin*1
	ratio := id1 / id2
	if ratio < 7 || ratio > 13 {
		t.Fatalf("subthreshold decade ratio = %g, want ~10", ratio)
	}
}

func TestLevel61LeakageFloor(t *testing.T) {
	m := PentaceneGolden()
	off := m.ID(-10, 1)
	if off < m.ILeak || off > 10*m.ILeak {
		t.Fatalf("off current %g should sit near the leakage floor %g", off, m.ILeak)
	}
}

func TestLevel61DIBL(t *testing.T) {
	m := PentaceneGolden()
	// Effective threshold falls with vds: deep in subthreshold (both
	// bias points saturated), the threshold shift multiplies the current
	// by exp((2+Gamma)*DIBL*dVDS/nVt) >> the ohmic factor.
	lo := m.ID(-2.0, 1) - m.ILeak - m.Gmin*1
	hi := m.ID(-2.0, 10) - m.ILeak - m.Gmin*10
	if hi < 20*lo {
		t.Fatalf("DIBL too weak: ID(10V)/ID(1V) = %g", hi/lo)
	}
	// The clamp stops the shift beyond the characterized range.
	h15 := m.ID(-2.0, 15) - m.ILeak - m.Gmin*15
	if h15 > 3*hi {
		t.Fatalf("DIBL clamp ineffective: ID(15V)/ID(10V) = %g", h15/hi)
	}
}

func TestPentaceneGoldenMatchesPaperFigure3(t *testing.T) {
	curve := SynthesizeTransfer(PentaceneGolden(), 1, 201, 0)
	p := ExtractDCParams(curve, PentaceneGeometry())
	if p.OnOffRatio < 1e5 || p.OnOffRatio > 5e7 {
		t.Errorf("on/off ratio = %.3g, paper reports ~1e6", p.OnOffRatio)
	}
	if p.SS < 0.25 || p.SS > 0.50 {
		t.Errorf("SS = %.0f mV/dec, paper reports 350", p.SS*1e3)
	}
	mu := p.MuLin * 1e4 // cm^2/Vs
	if mu < 0.08 || mu > 0.30 {
		t.Errorf("mu_lin = %.3f cm^2/Vs, paper reports 0.16", mu)
	}
	if p.VT < -2.5 || p.VT > 0 {
		t.Errorf("VT = %.2f V, paper reports -1.3 V at VDS=1V", p.VT)
	}
	// On current magnitude sanity: paper Fig 3 shows ~1e-6..1e-5 A.
	if p.OnCurrent < 5e-7 || p.OnCurrent > 5e-5 {
		t.Errorf("on current = %.3g A, expect ~1e-6..1e-5", p.OnCurrent)
	}
}

func TestSynthesizeTransferDeterministic(t *testing.T) {
	a := SynthesizeTransfer(PentaceneGolden(), 1, 51, 0.05)
	b := SynthesizeTransfer(PentaceneGolden(), 1, 51, 0.05)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("synthetic measurement must be deterministic")
		}
	}
}

func TestFitLevel61BeatsLevel1(t *testing.T) {
	curves := []TransferCurve{SynthesizeTransfer(PentaceneGolden(), 1, 81, 0.03)}
	geom := PentaceneGeometry()
	r1 := FitLevel1(curves, geom)
	r61 := FitLevel61(curves, geom)
	t.Logf("level1: %v", r1)
	t.Logf("level61: %v", r61)
	if r61.RMSLogErr >= r1.RMSLogErr {
		t.Fatalf("level61 fit (%.3f) should beat level1 (%.3f)", r61.RMSLogErr, r1.RMSLogErr)
	}
	// The paper's point: level 61 fits the device "well" at VDS = 1 V.
	if r61.RMSLogErr > 0.35 {
		t.Errorf("level61 rms log error = %.3f, want < 0.35 decades", r61.RMSLogErr)
	}
	// ...while level 1 cannot represent sub-VT conduction and leakage.
	if r1.RMSLogErr < 2*r61.RMSLogErr {
		t.Errorf("level1 (%.3f) should be far worse than level61 (%.3f)", r1.RMSLogErr, r61.RMSLogErr)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1) + 0.5
	}
	x, _, _ := NelderMead(f, []float64{0, 0}, []float64{1, 1}, 500)
	if math.Abs(x[0]-3) > 1e-3 || math.Abs(x[1]+1) > 1e-3 {
		t.Fatalf("minimum = %v, want (3, -1)", x)
	}
}

func TestVelSatLimitsCurrent(t *testing.T) {
	plain := SiliconNMOS(SiliconWN)
	unlimited := plain.Level1.ID(SiliconVDD, SiliconVDD)
	limited := plain.ID(SiliconVDD, SiliconVDD)
	if limited >= unlimited {
		t.Fatalf("velocity saturation should reduce on current: %g vs %g", limited, unlimited)
	}
	if limited <= 0 {
		t.Fatal("on current must remain positive")
	}
}

func TestSiliconOnCurrentScale(t *testing.T) {
	// 45 nm-class unit NMOS on-current should land in ~0.1-1 mA/um range.
	m := SiliconNMOS(1e-6)
	ion := m.ID(SiliconVDD, SiliconVDD)
	perUm := ion / 1.0 // device is 1 um wide
	if perUm < 1e-4 || perUm > 2e-3 {
		t.Fatalf("on current %.3g A/um outside 45 nm-class range", perUm)
	}
}

// Property: drain current is non-negative and monotonically
// non-decreasing in gate drive for both model classes.
func TestModelMonotoneInGateDrive(t *testing.T) {
	models := []evalModel{
		PentaceneGolden(),
		&Level1{Geom: PentaceneGeometry(), VT: 1.3, Mu: PentaceneMuLin},
		SiliconNMOS(SiliconWN),
	}
	for _, m := range models {
		m := m
		prop := func(a, b, d uint8) bool {
			vgs := -10 + float64(a)*20.0/255.0
			dv := float64(b) * 5.0 / 255.0
			vds := float64(d) * 10.0 / 255.0
			lo := m.ID(vgs, vds)
			hi := m.ID(vgs+dv, vds)
			return lo >= 0 && hi >= lo-1e-18
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// Property: current is monotone non-decreasing in vds for fixed gate
// drive (no negative differential resistance in these models).
func TestModelMonotoneInDrainBias(t *testing.T) {
	m := PentaceneGolden()
	prop := func(a, b, d uint8) bool {
		vgs := -5 + float64(a)*15.0/255.0
		vds := float64(b) * 10.0 / 255.0
		dv := float64(d) * 3.0 / 255.0
		return m.ID(vgs, vds+dv) >= m.ID(vgs, vds)-1e-18
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtractDCParamsEmpty(t *testing.T) {
	var p DCParams
	if got := ExtractDCParams(TransferCurve{}, PentaceneGeometry()); got != p {
		t.Fatalf("empty curve should extract zero params, got %+v", got)
	}
}
