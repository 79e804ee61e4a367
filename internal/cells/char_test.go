package cells

import (
	"bytes"
	"context"
	"fmt"
	"math"
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
func fullArcPoint(t *Technology, p *Proto, pin string, others map[string]bool, outRising bool, tramp, cl float64, steps int) (charPoint, error) {
	window := 6*tramp + 60*t.TimeScale
	for attempt := 0; attempt < 4; attempt++ {
		c, out, hold := arcCircuit(t, p, pin, others, outRising, tramp, cl, window)
		tr, err := c.Transient(window, window/float64(steps), out)
		if err != nil {
			return charPoint{}, err
		}
		v := tr.V(out)
		tOut := spice.CrossTime(tr.Times, v, t.VDD/2, outRising, hold)
		oslew := spice.Slew2080(tr.Times, v, 0, t.VDD, outRising, hold)
		if !math.IsNaN(tOut) && !math.IsNaN(oslew) && oslew > 0 {
			return charPoint{delay: tOut - (hold + tramp/2), slew: oslew}, nil
		}
		window *= 4
	}
	return charPoint{}, fmt.Errorf("output never settled (pin %s, rising=%v)", pin, outRising)
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
							got, err := measureArcPoint(tech, p, pin, others, rising, tramp, cl, cfg.Steps)
							if err != nil {
								t.Fatalf("%s/%s/%s: %v", tech.Name, p.Name, pin, err)
							}
							want, err := fullArcPoint(tech, p, pin, others, rising, tramp, cl, cfg.Steps)
							if err != nil {
								t.Fatalf("%s/%s/%s: full transient: %v", tech.Name, p.Name, pin, err)
							}
							if math.Float64bits(got.delay) != math.Float64bits(want.delay) ||
								math.Float64bits(got.slew) != math.Float64bits(want.slew) {
								t.Errorf("%s/%s/%s slew %gx load %gx rising=%v: streamed %+v, full %+v",
									tech.Name, p.Name, pin, sm, lm, rising, got, want)
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
// window, so its transient takes fewer than the configured steps.
func TestArcPointStopsEarly(t *testing.T) {
	tech, cfg := Organic(), DefaultCharConfig()
	p := proto(t, tech, "INV")
	others, err := nonControlling(p, "A")
	if err != nil {
		t.Fatal(err)
	}
	steps0 := obs.Count(obs.StageSpiceTranStep)
	if _, err := measureArcPoint(tech, p, "A", others, true,
		cfg.SlewMults[0]*tech.TimeScale/0.6, cfg.LoadMults[0]*p.InputCap, cfg.Steps); err != nil {
		t.Fatal(err)
	}
	if steps := obs.Count(obs.StageSpiceTranStep) - steps0; steps >= int64(cfg.Steps) {
		t.Errorf("arc point took %d transient steps, want fewer than the %d of a full window", steps, cfg.Steps)
	} else {
		t.Logf("arc point took %d of %d transient steps", steps, cfg.Steps)
	}
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
		lib, err := Characterize(Silicon(), tc.cfg)
		if err == nil || !strings.Contains(err.Error(), "CharConfig."+tc.field) {
			t.Errorf("%+v: got library %v, error %v; want an error naming CharConfig.%s", tc.cfg, lib != nil, err, tc.field)
		}
		if steps := obs.Count(obs.StageSpiceTranStep) - steps0; steps != 0 {
			t.Errorf("%+v: %d transient steps ran before the config was rejected", tc.cfg, steps)
		}
	}
}
