package cells

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/spice"
)

// proto returns the technology's prototype named name.
func proto(t *testing.T, tech *Technology, name string) *Proto {
	t.Helper()
	for _, p := range tech.Protos {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("%s has no %s prototype", tech.Name, name)
	return nil
}

// fullArcPoint is measureArcPoint over the full recorded transient:
// every step of the window runs, and CrossTime and Slew2080 read the
// waveform afterwards.
func fullArcPoint(t *Technology, p *Proto, pin string, others map[string]bool, outRising bool, tramp, cl float64, steps int) (delay, slew float64, err error) {
	window := 6*tramp + 60*t.TimeScale
	for attempt := 0; attempt < 4; attempt++ {
		c, out, hold := arcCircuit(t, p, pin, others, outRising, tramp, cl, window)
		tr, err := c.Transient(window, window/float64(steps), out)
		if err != nil {
			return 0, 0, err
		}
		v := tr.V(out)
		tOut := spice.CrossTime(tr.Times, v, t.VDD/2, outRising, hold)
		oslew := spice.Slew2080(tr.Times, v, 0, t.VDD, outRising, hold)
		if !math.IsNaN(tOut) && !math.IsNaN(oslew) && oslew > 0 {
			return tOut - (hold + tramp/2), oslew, nil
		}
		window *= 4
	}
	return 0, 0, fmt.Errorf("output never settled (pin %s, rising=%v)", pin, outRising)
}

// TestStreamedArcPointsMatchFullTransient: stopping each arc-point
// transient at its last measured crossing changes no bit of a delay or
// slew. Every cell of both technologies is checked at the four corners
// of the slew x load grid, every pin, both output directions, against
// the full recorded transient.
func TestStreamedArcPointsMatchFullTransient(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	cfg := DefaultCharConfig()
	slewMults := []float64{cfg.SlewMults[0], cfg.SlewMults[len(cfg.SlewMults)-1]}
	loadMults := []float64{cfg.LoadMults[0], cfg.LoadMults[len(cfg.LoadMults)-1]}
	for _, tech := range []*Technology{Organic(), Silicon()} {
		invCap := proto(t, tech, "INV").InputCap
		for _, p := range tech.Protos {
			for _, pin := range p.Inputs {
				others, err := nonControlling(p, pin)
				if err != nil {
					t.Fatal(err)
				}
				for _, sm := range slewMults {
					for _, lm := range loadMults {
						for _, rising := range []bool{true, false} {
							tramp, cl := sm*tech.TimeScale/0.6, lm*invCap
							gotDelay, gotSlew, err := measureArcPoint(tech, p, pin, others, rising, tramp, cl, cfg.Steps)
							if err != nil {
								t.Fatalf("%s/%s/%s: %v", tech.Name, p.Name, pin, err)
							}
							wantDelay, wantSlew, err := fullArcPoint(tech, p, pin, others, rising, tramp, cl, cfg.Steps)
							if err != nil {
								t.Fatalf("%s/%s/%s: full transient: %v", tech.Name, p.Name, pin, err)
							}
							if math.Float64bits(gotDelay) != math.Float64bits(wantDelay) ||
								math.Float64bits(gotSlew) != math.Float64bits(wantSlew) {
								t.Errorf("%s/%s/%s slew %gx load %gx rising=%v: streamed delay %g slew %g, full delay %g slew %g",
									tech.Name, p.Name, pin, sm, lm, rising, gotDelay, gotSlew, wantDelay, wantSlew)
							}
						}
					}
				}
			}
		}
	}
}

// TestArcPointStopsEarly pins the early stop: the organic INV at the
// smallest slew and load finishes its output edge well inside the
// window, so its transient takes fewer than the configured steps,
// solved or replayed. The hold before the input ramp replays some.
func TestArcPointStopsEarly(t *testing.T) {
	tech, cfg := Organic(), DefaultCharConfig()
	p := proto(t, tech, "INV")
	others, err := nonControlling(p, "A")
	if err != nil {
		t.Fatal(err)
	}
	solved0, repeats0 := obs.Count(obs.StageSpiceTranStep), obs.Count(obs.StageSpiceTranRepeat)
	if _, _, err := measureArcPoint(tech, p, "A", others, true,
		cfg.SlewMults[0]*tech.TimeScale/0.6, cfg.LoadMults[0]*p.InputCap, cfg.Steps); err != nil {
		t.Fatal(err)
	}
	solved := obs.Count(obs.StageSpiceTranStep) - solved0
	repeats := obs.Count(obs.StageSpiceTranRepeat) - repeats0
	if steps := solved + repeats; steps >= int64(cfg.Steps) {
		t.Errorf("arc point took %d transient steps, want fewer than the %d of a full window", steps, cfg.Steps)
	} else {
		t.Logf("arc point took %d of %d transient steps, %d of them replayed", steps, cfg.Steps, repeats)
	}
	if repeats == 0 {
		t.Error("no step of the hold before the input ramp was replayed")
	}
}

// updateLibs rewrites the testdata goldens from this run.
var updateLibs = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// golden compares got with the committed testdata/<file>, or rewrites
// that file under -update. It returns the golden and whether got
// equals it byte for byte.
func golden(t *testing.T, file string, got []byte) ([]byte, bool) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateLibs {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return got, true
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	return want, bytes.Equal(got, want)
}

// TestLibraryGoldens pins every number of both characterized libraries:
// DefaultCharConfig characterization, serialized with liberty.Write,
// must equal the committed testdata/<tech>.lib byte for byte. The
// serialization holds every number at full precision, switch energy and
// both leakage states included, so this is the check that sees a
// change of any bit. On a difference it reads both back and reports,
// per quantity, how many numbers moved and by how much. A deliberate
// numerical change regenerates the files with
//
//	go test ./internal/cells/ -run 'TestLibraryGoldens|TestSynopsysGolden' -update
func TestLibraryGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	for _, tc := range []struct {
		file string
		tech *Technology
	}{{"organic.lib", Organic()}, {"silicon.lib", Silicon()}} {
		lib, err := CharacterizeCtx(context.Background(), tc.tech, DefaultCharConfig())
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := liberty.Write(&got, lib); err != nil {
			t.Fatal(err)
		}
		want, ok := golden(t, tc.file, got.Bytes())
		if ok {
			continue
		}
		wantLib, err := liberty.Read(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		gotLib, err := liberty.Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("%s: this run's rendering: %v", tc.file, err)
		}
		t.Errorf("%s differs from its golden (run with -update to accept):\n%s", tc.file, libDelta(gotLib, wantLib))
	}
}

// TestSynopsysGolden pins the Synopsys rendering that replicate -lib
// prints (unit scaling, number format, function strings, the leakage
// average) on the silicon library, the cheap one to characterize: it
// must equal the committed testdata/silicon_synopsys.lib byte for byte.
// TestLibraryGoldens pins the numbers; this pins their rendering.
func TestSynopsysGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	lib, err := CharacterizeCtx(context.Background(), Silicon(), DefaultCharConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := liberty.WriteSynopsys(&got, lib); err != nil {
		t.Fatal(err)
	}
	want, ok := golden(t, "silicon_synopsys.lib", got.Bytes())
	if ok {
		return
	}
	line, g, w := firstDiff(got.Bytes(), want)
	t.Fatalf("silicon_synopsys.lib differs from its golden first at line %d (run with -update to accept):\n got %q\nwant %q", line, g, w)
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, with that line of each ("" past the end of one).
func firstDiff(got, want []byte) (line int, g, w string) {
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		g, w = "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

// TestInverterGoldens pins, at full precision, every number the
// inverter experiments tabulate (fig6, fig7, fig8 and the variation
// extension, at the rails, shifts and sweep points of
// internal/core/experiments.go). Their tables print three or four
// significant digits; this must equal testdata/inverters.golden byte
// for byte. A deliberate numerical change regenerates it with
//
//	go test ./internal/cells/ -run TestInverterGoldens -update
func TestInverterGoldens(t *testing.T) {
	var b strings.Builder
	put := func(label string, v float64) {
		fmt.Fprintf(&b, "%s %s\n", label, strconv.FormatFloat(v, 'g', -1, 64))
	}
	putDC := func(label string, dc spice.InverterDC) {
		for _, f := range []struct {
			name string
			v    float64
		}{{"VM", dc.VM}, {"gain", dc.Gain}, {"NMH", dc.NMH}, {"NML", dc.NML},
			{"VOH", dc.VOH}, {"VOL", dc.VOL}, {"PowLow", dc.PowLow}, {"PowHigh", dc.PowHigh}} {
			put(label+" "+f.name, f.v)
		}
	}
	for _, c := range []struct {
		fig      string
		style    InverterStyle
		vdd, vss float64
	}{
		{"fig6", DiodeLoad, 15, 0}, {"fig6", BiasedLoad, 15, -5}, {"fig6", PseudoE, 15, -15},
		{"fig7", PseudoE, 5, -15}, {"fig7", PseudoE, 10, -20}, {"fig7", PseudoE, 15, -15},
	} {
		dc, _, err := AnalyzeOrganicInverter(c.style, c.vdd, c.vss, 151)
		if err != nil {
			t.Fatal(err)
		}
		putDC(fmt.Sprintf("%s %s VDD=%g VSS=%g", c.fig, c.style, c.vdd, c.vss), dc)
	}
	vss := []float64{-20, -17.5, -15, -12.5, -10}
	vms, slope, intercept, err := VMVersusVSS(5, vss, 121)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vss {
		put(fmt.Sprintf("fig8 VSS=%g VM", v), vms[i])
	}
	put("fig8 slope", slope)
	put("fig8 intercept", intercept)
	pts, err := VariationTrim(5, -15, []float64{-0.25, -0.125, 0, 0.125, 0.25}, 121)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		label := fmt.Sprintf("variation dVT=%g", p.VTShift)
		put(label+" VM", p.VM)
		put(label+" VSSTrim", p.VSSTrim)
		put(label+" VMTrimmed", p.VMTrimmed)
	}
	want, ok := golden(t, "inverters.golden", []byte(b.String()))
	if !ok {
		line, g, w := firstDiff([]byte(b.String()), want)
		t.Fatalf("inverters.golden differs from this run first at line %d (run with -update to accept):\n got %q\nwant %q", line, g, w)
	}
}

// libQuantities are the quantities libNumbers groups a library's
// numbers into, in report order.
var libQuantities = []string{"delays", "slews", "leakage", "switch energy", "caps", "other"}

// libNumbers lists every number a library serializes, grouped by
// quantity, in a fixed order: two libraries of the same cells and grid
// list their numbers pairwise. Delays include the flip-flop's
// clock-to-Q, setup and hold; caps include the load axes; "other" is
// the rails, areas and slew axes.
func libNumbers(lib *liberty.Library) map[string][]float64 {
	q := map[string][]float64{}
	add := func(name string, v ...float64) { q[name] = append(q[name], v...) }
	table := func(name string, l *liberty.LUT) {
		add("other", l.Slews...)
		add("caps", l.Loads...)
		for _, row := range l.Value {
			add(name, row...)
		}
	}
	add("other", lib.VDD, lib.VSS)
	for _, name := range lib.Names() {
		c := lib.Cells[name]
		add("other", c.Area)
		add("caps", c.InputCap)
		add("leakage", c.LeakLow, c.LeakHigh)
		add("switch energy", c.SwitchEnergy)
		add("delays", c.ClkToQ, c.Setup, c.Hold)
		for _, pin := range c.Inputs {
			if a := c.Arcs[pin]; a != nil {
				table("delays", a.DelayRise)
				table("delays", a.DelayFall)
				table("slews", a.SlewRise)
				table("slews", a.SlewFall)
			}
		}
	}
	return q
}

// libDelta reports, per quantity, how many numbers differ between two
// libraries in any bit and the worst relative change among them.
func libDelta(got, want *liberty.Library) string {
	g, w := libNumbers(got), libNumbers(want)
	var b strings.Builder
	for _, name := range libQuantities {
		gv, wv := g[name], w[name]
		if len(gv) != len(wv) {
			fmt.Fprintf(&b, "  %s: %d numbers, want %d\n", name, len(gv), len(wv))
			continue
		}
		moved, worst := 0, 0.0
		for i := range gv {
			if math.Float64bits(gv[i]) == math.Float64bits(wv[i]) {
				continue
			}
			moved++
			worst = math.Max(worst, math.Abs(gv[i]-wv[i])/math.Abs(wv[i]))
		}
		fmt.Fprintf(&b, "  %s: %d of %d moved, worst %.2g relative\n", name, moved, len(gv), worst)
	}
	return b.String()
}

// TestCharacterizeWorkerCountIndependent: every arc point and power
// task writes only its own slot, so the serialized library is the same
// bytes on one worker and on four.
func TestCharacterizeWorkerCountIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	var libs [2]bytes.Buffer
	for i, workers := range []int{1, 4} {
		ctx := config.WithContext(context.Background(), config.Config{Workers: workers})
		lib, err := CharacterizeCtx(ctx, Silicon(), DefaultCharConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := liberty.Write(&libs[i], lib); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(libs[0].Bytes(), libs[1].Bytes()) {
		t.Error("silicon characterized on 1 and 4 workers serialized to different bytes")
	}
}

// TestCharacterizeRejectsDegenerateConfig: a grid that cannot
// characterize fails up front, naming its field, before any transient.
func TestCharacterizeRejectsDegenerateConfig(t *testing.T) {
	good := DefaultCharConfig()
	for _, tc := range []struct {
		field string
		cfg   CharConfig
	}{
		{"SlewMults", CharConfig{LoadMults: []float64{1}, Steps: 100}},
		{"LoadMults", CharConfig{SlewMults: []float64{1}, Steps: 100}},
		{"SlewMults", CharConfig{SlewMults: []float64{1, -0.5}, LoadMults: good.LoadMults, Steps: 100}},
		{"LoadMults", CharConfig{SlewMults: good.SlewMults, LoadMults: []float64{0}, Steps: 100}},
		{"LoadMults", CharConfig{SlewMults: good.SlewMults, LoadMults: []float64{math.NaN()}, Steps: 100}},
		{"SlewMults", CharConfig{SlewMults: []float64{math.Inf(1)}, LoadMults: good.LoadMults, Steps: 100}},
		{"Steps", CharConfig{SlewMults: good.SlewMults, LoadMults: good.LoadMults, Steps: 0}},
		{"Steps", CharConfig{SlewMults: good.SlewMults, LoadMults: good.LoadMults, Steps: 1}},
	} {
		steps0 := obs.Count(obs.StageSpiceTranStep)
		lib, err := CharacterizeCtx(context.Background(), Silicon(), tc.cfg)
		if err == nil || !strings.Contains(err.Error(), "CharConfig."+tc.field) {
			t.Errorf("%+v: got library %v, error %v; want an error naming CharConfig.%s", tc.cfg, lib != nil, err, tc.field)
		}
		if steps := obs.Count(obs.StageSpiceTranStep) - steps0; steps != 0 {
			t.Errorf("%+v: %d transient steps ran before the config was rejected", tc.cfg, steps)
		}
	}
}
