package cells

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/liberty"
)

func TestInverterStyleComparison(t *testing.T) {
	// Paper Figure 6(d), at VDD = 15 V: pseudo-E dominates biased-load
	// dominates diode-load in both gain and noise margin; pseudo-E noise
	// margin improves ~10x over diode-load and gain ~2.5x.
	diode, _, err := AnalyzeOrganicInverter(DiodeLoad, 15, 0, 121)
	if err != nil {
		t.Fatal(err)
	}
	biased, _, err := AnalyzeOrganicInverter(BiasedLoad, 15, -5, 121)
	if err != nil {
		t.Fatal(err)
	}
	pseudo, _, err := AnalyzeOrganicInverter(PseudoE, 15, -15, 121)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("diode:  %v", diode)
	t.Logf("biased: %v", biased)
	t.Logf("pseudo: %v", pseudo)
	if !(pseudo.Gain > biased.Gain && biased.Gain > diode.Gain) {
		t.Errorf("gain ordering violated: %g, %g, %g", diode.Gain, biased.Gain, pseudo.Gain)
	}
	minNM := func(nmh, nml float64) float64 { return math.Min(nmh, nml) }
	if !(minNM(pseudo.NMH, pseudo.NML) > minNM(biased.NMH, biased.NML)) {
		t.Errorf("pseudo-E NM %g/%g should beat biased %g/%g", pseudo.NMH, pseudo.NML, biased.NMH, biased.NML)
	}
	if minNM(pseudo.NMH, pseudo.NML) < 4*minNM(diode.NMH, diode.NML)+0.5 {
		t.Errorf("pseudo-E NM should be several times the diode-load NM: %g vs %g",
			minNM(pseudo.NMH, pseudo.NML), minNM(diode.NMH, diode.NML))
	}
	// Pseudo-E reaches (near) full swing; the ratioed designs do not.
	if pseudo.VOH < 14.0 {
		t.Errorf("pseudo-E VOH = %g, want ~VDD", pseudo.VOH)
	}
	if pseudo.VOL > 1.0 {
		t.Errorf("pseudo-E VOL = %g, want ~0", pseudo.VOL)
	}
	// Diode-load gain barely exceeds 1 (paper: 1.2).
	if diode.Gain < 0.8 || diode.Gain > 2.5 {
		t.Errorf("diode-load gain = %g, paper reports ~1.2", diode.Gain)
	}
	// Worst-case static power at input low, microwatt scale.
	if pseudo.PowLow < 1e-6 || pseudo.PowLow > 5e-3 {
		t.Errorf("pseudo-E static power (low) = %g W, want uW scale", pseudo.PowLow)
	}
	if pseudo.PowHigh > pseudo.PowLow/10 {
		t.Errorf("pseudo-E static power should collapse at input high: %g vs %g", pseudo.PowHigh, pseudo.PowLow)
	}
}

func TestPseudoEAcrossVDD(t *testing.T) {
	// Paper Figure 7: the pseudo-E VTC keeps its shape across VDD with
	// gain ~3 and noise margins 20-25% of VDD; static power at input low
	// drops dramatically at VDD = 5 V vs 15 V.
	type row struct {
		vdd, vss float64
	}
	rows := []row{{5, -15}, {10, -20}, {15, -15}}
	var prevPow float64
	for i, r := range rows {
		dc, _, err := AnalyzeOrganicInverter(PseudoE, r.vdd, r.vss, 121)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("VDD=%2.0f VSS=%3.0f: %v", r.vdd, r.vss, dc)
		if dc.Gain < 1.5 {
			t.Errorf("VDD=%g: gain %g too low", r.vdd, dc.Gain)
		}
		frac := math.Min(dc.NMH, dc.NML) / r.vdd
		if frac < 0.05 || frac > 0.45 {
			t.Errorf("VDD=%g: NM fraction %g outside plausible band", r.vdd, frac)
		}
		if i > 0 && dc.PowLow < prevPow {
			// Power must grow with VDD along this list (5 -> 10 -> 15).
			t.Errorf("static power should rise with VDD: %g then %g", prevPow, dc.PowLow)
		}
		prevPow = dc.PowLow
	}
}

func TestVMVersusVSSLinear(t *testing.T) {
	// Paper Figure 8(b): VM vs VSS is linear with slope ~0.22 (VDD = 5 V,
	// the library operating point, as in Figure 8(a)).
	vss := []float64{-20, -17.5, -15, -12.5, -10}
	vms, slope, intercept, err := VMVersusVSS(5, vss, 101)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("vms=%v slope=%.3f intercept=%.2f", vms, slope, intercept)
	if slope < 0.04 || slope > 0.6 {
		t.Errorf("slope = %g, paper reports 0.22", slope)
	}
	// Check linearity: residuals from the fit stay small.
	for i, x := range vss {
		fit := slope*x + intercept
		if math.Abs(fit-vms[i]) > 0.4 {
			t.Errorf("VM(%g) = %g deviates from linear fit %g", x, vms[i], fit)
		}
	}
	// VM must increase as VSS increases (less negative).
	for i := 1; i < len(vms); i++ {
		if vms[i] <= vms[i-1] {
			t.Errorf("VM not monotone in VSS: %v", vms)
		}
	}
}

func TestProtoLogicFunctions(t *testing.T) {
	for _, tech := range []*Technology{Organic(), Silicon()} {
		for _, p := range tech.Protos {
			n := len(p.Inputs)
			for mask := 0; mask < 1<<n; mask++ {
				in := map[string]bool{}
				allTrue, anyTrue := true, false
				for i, pin := range p.Inputs {
					v := mask&(1<<i) != 0
					in[pin] = v
					allTrue = allTrue && v
					anyTrue = anyTrue || v
				}
				got := p.Eval(in)
				var want bool
				switch p.Name {
				case "INV":
					want = !anyTrue
				case "NAND2", "NAND3":
					want = !allTrue
				case "NOR2", "NOR3":
					want = !anyTrue
				default:
					t.Fatalf("unexpected proto %s", p.Name)
				}
				if got != want {
					t.Errorf("%s/%s mask %b: got %v want %v", tech.Name, p.Name, mask, got, want)
				}
			}
		}
	}
}

func TestNonControlling(t *testing.T) {
	tech := Silicon()
	for _, p := range tech.Protos {
		for _, pin := range p.Inputs {
			asg, err := nonControlling(p, pin)
			if err != nil {
				t.Fatalf("%s pin %s: %v", p.Name, pin, err)
			}
			asg[pin] = false
			lo := p.Eval(asg)
			asg[pin] = true
			if p.Eval(asg) == lo {
				t.Errorf("%s pin %s: assignment does not toggle output", p.Name, pin)
			}
		}
	}
}

func TestAreaAndCapScaling(t *testing.T) {
	for _, tech := range []*Technology{Organic(), Silicon()} {
		byName := map[string]*Proto{}
		for _, p := range tech.Protos {
			byName[p.Name] = p
		}
		if !(byName["NAND3"].Area > byName["NAND2"].Area && byName["NAND2"].Area > byName["INV"].Area) {
			t.Errorf("%s: NAND area should grow with fan-in", tech.Name)
		}
		if byName["NOR3"].Area <= byName["NAND3"].Area {
			t.Errorf("%s: NOR3 (stacked, widened) should be bigger than NAND3", tech.Name)
		}
		for _, p := range tech.Protos {
			if p.InputCap <= 0 {
				t.Errorf("%s/%s: input cap not set", tech.Name, p.Name)
			}
			if p.Transistors < 2 {
				t.Errorf("%s/%s: transistor count %d", tech.Name, p.Name, p.Transistors)
			}
		}
		if tech.DFFArea <= byName["NAND3"].Area || tech.DFFTransistors < 30 {
			t.Errorf("%s: DFF composition looks wrong (area %g, transistors %d)",
				tech.Name, tech.DFFArea, tech.DFFTransistors)
		}
	}
}

func TestCharacterizedLibraries(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	org := Library(Organic())
	sil := Library(Silicon())
	t.Logf("organic library:\n%s", org.Summary())
	t.Logf("silicon library:\n%s", sil.Summary())
	for _, lib := range []struct {
		name string
		l    interface {
			FO4() float64
		}
	}{{"organic", org}, {"silicon", sil}} {
		if fo4 := lib.l.FO4(); fo4 <= 0 {
			t.Errorf("%s: FO4 = %g", lib.name, fo4)
		}
	}
	// The headline technology gap: organic gate delay ~1e5-1e7x silicon.
	ratio := org.FO4() / sil.FO4()
	t.Logf("FO4 organic=%.3g s silicon=%.3g s ratio=%.3g", org.FO4(), sil.FO4(), ratio)
	if ratio < 1e4 || ratio > 1e9 {
		t.Errorf("FO4 ratio = %g, expect organic ~1e6x slower", ratio)
	}
	// Silicon FO4 should land in the published 45 nm range, loosely.
	if fo4 := sil.FO4(); fo4 < 3e-12 || fo4 > 80e-12 {
		t.Errorf("silicon FO4 = %g s, want ~5-50 ps", fo4)
	}
	// All LUT entries must be positive and grow with load at fixed slew.
	for name, cell := range org.Cells {
		if cell.Sequential {
			if cell.ClkToQ <= 0 || cell.Setup <= 0 {
				t.Errorf("organic %s: bad sequential timing", name)
			}
			continue
		}
		for pin, arc := range cell.Arcs {
			for i := range arc.DelayRise.Value {
				for j := range arc.DelayRise.Value[i] {
					if arc.DelayRise.Value[i][j] <= 0 || arc.DelayFall.Value[i][j] <= 0 {
						t.Errorf("organic %s/%s [%d][%d]: non-positive delay", name, pin, i, j)
					}
					if j > 0 && arc.DelayRise.Value[i][j] < arc.DelayRise.Value[i][j-1] {
						t.Errorf("organic %s/%s: rise delay not monotone in load", name, pin)
					}
				}
			}
		}
	}
}

func TestLibraryDiskCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	lib := Library(Silicon())
	dir := t.TempDir()
	path := dir + "/silicon45.lib"
	if err := saveLibraryFile(path, lib); err != nil {
		t.Fatal(err)
	}
	got, err := loadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != lib.Name || len(got.Cells) != len(lib.Cells) {
		t.Fatalf("cache round trip lost cells: %d vs %d", len(got.Cells), len(lib.Cells))
	}
	// Timing must survive exactly: compare the INV arc over a grid.
	a := lib.MustCell("INV").Arcs["A"]
	b := got.MustCell("INV").Arcs["A"]
	for _, s := range []float64{0, 1e-12, 7e-12} {
		for _, l := range []float64{1e-15, 3e-15} {
			if math.Abs(a.WorstDelay(s, l)-b.WorstDelay(s, l)) > 1e-18 {
				t.Fatalf("delay diverges at (%g, %g)", s, l)
			}
		}
	}
	if math.Abs(got.FO4()-lib.FO4()) > 1e-18 {
		t.Fatalf("FO4 diverges: %g vs %g", got.FO4(), lib.FO4())
	}
}

// TestLibraryCacheConcurrentSaves: writers sharing one -libcache
// directory (two daemons, or a daemon and a replicate run) save the
// same library at once. Every save succeeds, the surviving file loads,
// and no temp file is left behind.
func TestLibraryCacheConcurrentSaves(t *testing.T) {
	lib := &liberty.Library{Name: "x", VDD: 1, Cells: map[string]*liberty.Cell{}}
	dir := t.TempDir()
	path := filepath.Join(dir, "x.lib")
	var wg sync.WaitGroup
	errs := make(chan error, 8*50)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				errs <- saveLibraryFile(path, lib)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent save: %v", err)
		}
	}
	got, err := loadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != lib.Name {
		t.Errorf("loaded library %q, want %q", got.Name, lib.Name)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("cache directory holds %v, want only x.lib", names)
	}
}

func TestSwitchEnergyPhysicalBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	// Dynamic energy per transition should be within an order of
	// magnitude of C*VDD^2 at the characterized load.
	for _, tech := range []*Technology{Silicon(), Organic()} {
		lib := Library(tech)
		for _, name := range []string{"INV", "NAND2", "NOR2"} {
			c := lib.MustCell(name)
			cv2 := (2*c.InputCap + c.InputCap) * tech.VDD * tech.VDD // load + self
			if c.SwitchEnergy <= 0 {
				t.Errorf("%s/%s: no switching energy", tech.Name, name)
				continue
			}
			ratio := c.SwitchEnergy / cv2
			if ratio < 0.1 || ratio > 20 {
				t.Errorf("%s/%s: E_switch %.3g J vs CV^2 %.3g J (ratio %.2f)",
					tech.Name, name, c.SwitchEnergy, cv2, ratio)
			}
		}
		// Organic burns far more static power per cell than silicon.
		if tech.Name == "organic" {
			if lib.MustCell("NAND2").LeakLow < 1e-6 {
				t.Error("organic static power should be microwatt scale")
			}
		} else if lib.MustCell("NAND2").LeakLow > 1e-9 {
			t.Error("silicon static power should be sub-nanowatt")
		}
	}
}

func TestVariationTrim(t *testing.T) {
	// Paper Section 4.1: VT spread within 0.5 V across a sample;
	// Section 4.3.3: VSS tuning compensates the resulting VM variation.
	shifts := []float64{-0.25, 0, 0.25}
	pts, err := VariationTrim(5, -15, shifts, 101)
	if err != nil {
		t.Fatal(err)
	}
	nominal := pts[1]
	if nominal.VTShift != 0 {
		t.Fatal("middle sample should be nominal")
	}
	for _, p := range pts {
		t.Logf("dVT=%+.2f: VM=%.3f -> trim VSS=%.2f -> VM=%.3f", p.VTShift, p.VM, p.VSSTrim, p.VMTrimmed)
		if p.VTShift != 0 && math.Abs(p.VM-nominal.VM) < 0.05 {
			t.Errorf("dVT=%g: VM should move without trimming (%.3f vs %.3f)", p.VTShift, p.VM, nominal.VM)
		}
		// Trimming must pull VM back toward nominal.
		if math.Abs(p.VMTrimmed-nominal.VM) > 0.6*math.Abs(p.VM-nominal.VM)+0.05 {
			t.Errorf("dVT=%g: trim ineffective: %.3f -> %.3f (nominal %.3f)",
				p.VTShift, p.VM, p.VMTrimmed, nominal.VM)
		}
	}
}

func TestDynamicOrGate(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive (static comparison)")
	}
	res, err := AnalyzeDynamicOr(5, -15)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dynamic OR: eval %.3g s (%d T, %.3g J/eval) vs static %.3g s (%d T, %.3g W static)",
		res.EvalDelay, res.Transistors, res.EnergyPerEval,
		res.StaticDelay, res.StaticTrans, res.StaticPower)
	// Paper Section 7: roughly half the transistors...
	if res.Transistors*2 > res.StaticTrans+2 {
		t.Errorf("dynamic gate should use ~half the transistors: %d vs %d", res.Transistors, res.StaticTrans)
	}
	// ...and faster switching.
	if res.EvalDelay <= 0 || res.EvalDelay >= res.StaticDelay {
		t.Errorf("dynamic evaluate (%.3g) should beat the static path (%.3g)", res.EvalDelay, res.StaticDelay)
	}
	if res.EnergyPerEval <= 0 {
		t.Error("dynamic evaluation must consume energy")
	}
}

// TestCharacterizeReproducible: characterizing the organic library
// twice serializes to the same bytes, so a -libcache file depends only
// on the code that wrote it. Organic has two supply rails, which is
// where a map-ordered energy sum would show.
func TestCharacterizeReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	var libs [2]bytes.Buffer
	for i := range libs {
		lib, err := CharacterizeCtx(context.Background(), Organic(), DefaultCharConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := liberty.Write(&libs[i], lib); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(libs[0].Bytes(), libs[1].Bytes()) {
		t.Error("two organic characterizations serialized to different bytes")
	}
}
