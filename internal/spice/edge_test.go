package spice

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// crossTimeTwoPass and slew2080TwoPass state the crossing rule over a
// whole recorded waveform, one search per crossing: the specification
// the streaming detectors behind CrossTime, Slew2080 and MeasureEdge
// must match bit for bit.
func crossTimeTwoPass(times, v []float64, level float64, rising bool, tStart float64) float64 {
	for i := 1; i < len(v); i++ {
		if times[i] < tStart {
			continue
		}
		a, b := v[i-1], v[i]
		var hit bool
		if rising {
			hit = a < level && b >= level
		} else {
			hit = a > level && b <= level
		}
		if hit {
			if b == a {
				return times[i]
			}
			return times[i-1] + (times[i]-times[i-1])*(level-a)/(b-a)
		}
	}
	return math.NaN()
}

func slew2080TwoPass(times, v []float64, vLow, vHigh float64, rising bool, tStart float64) float64 {
	l20 := vLow + 0.2*(vHigh-vLow)
	l80 := vLow + 0.8*(vHigh-vLow)
	if rising {
		t1 := crossTimeTwoPass(times, v, l20, true, tStart)
		return crossTimeTwoPass(times, v, l80, true, t1) - t1
	}
	t1 := crossTimeTwoPass(times, v, l80, false, tStart)
	return crossTimeTwoPass(times, v, l20, false, t1) - t1
}

// sameBits reports whether two results are the same float64, NaN
// matching NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestCrossingRuleEdgeCases pins the crossing rule on hand-made
// waveforms at its edges, and checks CrossTime and Slew2080 against the
// two-pass statement of the rule on each.
func TestCrossingRuleEdgeCases(t *testing.T) {
	below08 := math.Nextafter(0.8, 0)
	cases := []struct {
		name          string
		times, v      []float64
		rising        bool
		vLow, vHigh   float64
		tStart        float64
		wantT50, want float64 // CrossTime at the 50% level, Slew2080
	}{
		{
			name:  "both slew crossings in one sample pair",
			times: []float64{0, 1, 2, 3}, v: []float64{0, 0, 1, 1},
			rising: true, vHigh: 1,
			wantT50: 1.5, want: (1 + 0.8) - (1 + 0.2),
		},
		{
			name:  "both falling slew crossings in one sample pair",
			times: []float64{0, 1, 2, 3}, v: []float64{1, 1, 0, 0},
			rising: false, vHigh: 1,
			wantT50: 1.5, want: (1 + 0.8) - (1 + 0.2),
		},
		{
			name:  "a pair whose later sample is exactly at tStart counts",
			times: []float64{0, 1, 2, 3}, v: []float64{0, 1, 1, 1},
			rising: true, vHigh: 1, tStart: 1,
			wantT50: 0.5, want: 0.8 - 0.2,
		},
		{
			name:  "a pair ending just before tStart does not",
			times: []float64{0, 1, 2, 3}, v: []float64{0, 1, 1, 1},
			rising: true, vHigh: 1, tStart: math.Nextafter(1, 2),
			wantT50: math.NaN(), want: math.NaN(),
		},
		{
			name:  "a flat pair sitting on the level is no crossing",
			times: []float64{0, 1, 2, 3}, v: []float64{0, 0.5, 0.5, 1},
			rising: true, vHigh: 1, tStart: 1.5,
			wantT50: math.NaN(), want: math.NaN(),
		},
		{
			name:  "a glitch across 50% before tStart is ignored",
			times: []float64{0, 1, 2, 3, 4}, v: []float64{0, 1, 0, 0, 1},
			rising: true, vHigh: 1, tStart: 2,
			wantT50: 3.5, want: (3 + 0.8) - (3 + 0.2),
		},
		{
			// Rails given high-to-low put the 20% level above the 80%
			// one. The opening crossing interpolates onto its pair's
			// first sample, so the closing search starts there and
			// finds its crossing in the pair before.
			name:  "the closing search starts on the opening pair's first sample",
			times: []float64{0, 1, 2, 3}, v: []float64{0, below08, 1e300, 1e300},
			rising: true, vLow: 1, vHigh: 0,
			wantT50: 0.5 / below08, want: 0.2/below08 - 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mid := tc.vLow + 0.5*(tc.vHigh-tc.vLow)
			t50 := CrossTime(tc.times, tc.v, mid, tc.rising, tc.tStart)
			slew := Slew2080(tc.times, tc.v, tc.vLow, tc.vHigh, tc.rising, tc.tStart)
			if ref := crossTimeTwoPass(tc.times, tc.v, mid, tc.rising, tc.tStart); !sameBits(t50, ref) {
				t.Errorf("CrossTime = %v, two-pass rule %v", t50, ref)
			}
			if ref := slew2080TwoPass(tc.times, tc.v, tc.vLow, tc.vHigh, tc.rising, tc.tStart); !sameBits(slew, ref) {
				t.Errorf("Slew2080 = %v, two-pass rule %v", slew, ref)
			}
			if !sameBits(t50, tc.wantT50) && math.Abs(t50-tc.wantT50) > 1e-12 {
				t.Errorf("CrossTime = %v, want %v", t50, tc.wantT50)
			}
			if !sameBits(slew, tc.want) && math.Abs(slew-tc.want) > 1e-12 {
				t.Errorf("Slew2080 = %v, want %v", slew, tc.want)
			}
		})
	}
}

// pwl is a piecewise-linear stimulus through the knots (ts[k], vs[k]),
// held flat outside them.
type pwl struct{ ts, vs []float64 }

func (w pwl) At(t float64) float64 { return interp(w.ts, w.vs, t) }

// randomEdgeCircuit drives node out with a random piecewise-linear
// waveform over [0, 1] that wanders across the 0..1 V rails: through an
// RC low-pass when filtered, else directly, so that one step can carry
// the output across several levels at once.
func randomEdgeCircuit(seed int64, filtered bool) (*Circuit, Node) {
	rng := rand.New(rand.NewSource(seed))
	knots := 4 + rng.Intn(12)
	w := pwl{ts: make([]float64, knots), vs: make([]float64, knots)}
	for k := range w.ts {
		w.ts[k] = float64(k) / float64(knots-1)
		w.vs[k] = -0.2 + 1.4*rng.Float64()
	}
	c := NewCircuit()
	out := c.Node("out")
	if !filtered {
		c.V("VOUT", out, Ground, w)
		return c, out
	}
	in := c.Node("in")
	c.V("VIN", in, Ground, w)
	c.R("R", in, out, 1e3)
	c.C("C", out, Ground, 1e-3/float64(knots)/1e3) // tau a tenth of a knot
	return c, out
}

// visitedSteps returns the transient steps taken so far, solved or
// replayed, and the replayed ones among them.
func visitedSteps() (steps, repeats int64) {
	repeats = obs.Count(obs.StageSpiceTranRepeat)
	return obs.Count(obs.StageSpiceTranStep) + repeats, repeats
}

// TestMeasureEdgeMatchesRecordedTransient is the property behind the
// early stop: on random waveforms, MeasureEdge returns the bits that
// CrossTime and Slew2080 read from the full recorded transient (and
// the two-pass rule agrees), while never taking more steps than it.
func TestMeasureEdgeMatchesRecordedTransient(t *testing.T) {
	const runs = 300
	stopped, measured := 0, 0
	for seed := int64(0); seed < runs; seed++ {
		filtered := seed%2 == 0
		rng := rand.New(rand.NewSource(-seed))
		// Coarse steps put several crossings into one sample pair.
		tstop, dt, rising := 1.0, 1/float64(8+rng.Intn(300)), rng.Intn(2) == 0

		c, out := randomEdgeCircuit(seed, filtered)
		steps0, _ := visitedSteps()
		tr, err := c.Transient(tstop, dt, out)
		if err != nil {
			t.Fatal(err)
		}
		fullSteps, _ := visitedSteps()
		fullSteps -= steps0
		tStart := rng.Float64()
		if seed%3 == 0 { // a start exactly on a sample
			tStart = tr.Times[rng.Intn(len(tr.Times))]
		}
		v := tr.V(out)
		t50 := CrossTime(tr.Times, v, 0.5, rising, tStart)
		slew := Slew2080(tr.Times, v, 0, 1, rising, tStart)
		if ref := crossTimeTwoPass(tr.Times, v, 0.5, rising, tStart); !sameBits(t50, ref) {
			t.Fatalf("seed %d: CrossTime %v, two-pass rule %v", seed, t50, ref)
		}
		if ref := slew2080TwoPass(tr.Times, v, 0, 1, rising, tStart); !sameBits(slew, ref) {
			t.Fatalf("seed %d: Slew2080 %v, two-pass rule %v", seed, slew, ref)
		}

		c, out = randomEdgeCircuit(seed, filtered)
		steps0, _ = visitedSteps()
		m50, mslew, err := c.MeasureEdge(tstop, dt, out, rising, 0, 1, tStart)
		if err != nil {
			t.Fatal(err)
		}
		steps, _ := visitedSteps()
		steps -= steps0
		if !sameBits(m50, t50) || !sameBits(mslew, slew) {
			t.Fatalf("seed %d (filtered=%v rising=%v tStart=%g): MeasureEdge (%v, %v), recorded waveform (%v, %v)",
				seed, filtered, rising, tStart, m50, mslew, t50, slew)
		}
		if steps > fullSteps {
			t.Fatalf("seed %d: MeasureEdge took %d steps, the full run %d", seed, steps, fullSteps)
		}
		if steps < fullSteps {
			stopped++
		}
		if !math.IsNaN(t50) && !math.IsNaN(slew) {
			measured++
		}
	}
	if stopped == 0 || measured == 0 {
		t.Errorf("%d of %d runs stopped early and %d measured both crossings, want some of each", stopped, runs, measured)
	}
	t.Logf("%d of %d runs stopped early; %d measured both crossings", stopped, runs, measured)
}

// TestMeasureEdgeNeverCrossing: an output that never reaches the levels
// runs the whole window, exactly as many steps as Transient, and
// reports NaN, which is what sends a caller to a wider window. Its
// constant source replays most of those steps.
func TestMeasureEdgeNeverCrossing(t *testing.T) {
	c := NewCircuit()
	out := c.Node("out")
	c.V("VOUT", out, Ground, DC(0.1))
	steps0, repeats0 := visitedSteps()
	t50, slew, err := c.MeasureEdge(1, 1.0/600, out, true, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	steps, repeats := visitedSteps()
	if steps-steps0 != 600 {
		t.Errorf("spice.tran_step + spice.tran_repeat grew by %d, want the full 600", steps-steps0)
	}
	if repeats == repeats0 {
		t.Error("spice.tran_repeat did not grow under a constant source")
	}
	if !math.IsNaN(t50) || !math.IsNaN(slew) {
		t.Errorf("MeasureEdge = (%v, %v), want NaN for an output that never crosses", t50, slew)
	}
	if _, _, err := c.MeasureEdge(1, 0, out, true, 0, 1, 0); err == nil {
		t.Error("MeasureEdge accepted dt = 0")
	}
}
