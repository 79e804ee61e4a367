package spice

import (
	"fmt"
	"math"
	"sort"
)

// VTC is a sampled voltage transfer characteristic of an inverting stage.
type VTC struct {
	In  []float64
	Out []float64
}

// VTCFromSweep extracts a VTC from a DC sweep, reading the output node.
func VTCFromSweep(sweep []SweepPoint, out Node) VTC {
	v := VTC{In: make([]float64, len(sweep)), Out: make([]float64, len(sweep))}
	for i, p := range sweep {
		v.In[i] = p.Value
		v.Out[i] = p.V(out)
	}
	return v
}

// interp linearly interpolates y(x) over sorted xs.
func interp(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	i := sort.SearchFloat64s(xs, x)
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	if x1 == x0 {
		return y0
	}
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// At returns the interpolated output voltage for the given input.
func (v VTC) At(in float64) float64 { return interp(v.In, v.Out, in) }

// SwitchingThreshold returns VM, the input voltage where Vout = Vin
// (the intersection with the mirrored VTC).
func (v VTC) SwitchingThreshold() float64 {
	for i := 1; i < len(v.In); i++ {
		d0 := v.Out[i-1] - v.In[i-1]
		d1 := v.Out[i] - v.In[i]
		if d0 >= 0 && d1 <= 0 {
			if d0 == d1 {
				return v.In[i]
			}
			return v.In[i-1] + (v.In[i]-v.In[i-1])*d0/(d0-d1)
		}
	}
	return math.NaN()
}

// MaxGain returns the maximum |dVout/dVin| along the characteristic.
func (v VTC) MaxGain() float64 {
	g := 0.0
	for i := 1; i < len(v.In); i++ {
		dx := v.In[i] - v.In[i-1]
		if dx == 0 {
			continue
		}
		if s := math.Abs((v.Out[i] - v.Out[i-1]) / dx); s > g {
			g = s
		}
	}
	return g
}

// Levels returns the output high and low levels (VOH, VOL) at the ends
// of the swept input range.
func (v VTC) Levels() (voh, vol float64) {
	if len(v.Out) == 0 {
		return 0, 0
	}
	voh = v.Out[0]
	vol = v.Out[len(v.Out)-1]
	if vol > voh {
		voh, vol = vol, voh
	}
	return voh, vol
}

// monotoneInverse samples the inverse characteristic Vin(Vout) of a
// monotonically falling VTC, returning sorted (out, in) arrays. Flat
// rail regions of the VTC become vertical segments in the mirror; the
// traversal direction selects which end of each vertical segment is
// kept: ascending input keeps the branch adjacent to the transition for
// low outputs (the high-eye boundary), descending input keeps the branch
// adjacent to the transition for high outputs (the low-eye boundary).
func (v VTC) monotoneInverse(descending bool) (outs, ins []float64) {
	n := len(v.In)
	if descending {
		for k := n - 1; k >= 0; k-- {
			if len(outs) > 0 && v.Out[k] <= outs[len(outs)-1] {
				continue
			}
			outs = append(outs, v.Out[k])
			ins = append(ins, v.In[k])
		}
		return outs, ins
	}
	for k := 0; k < n; k++ {
		o, i := v.Out[k], v.In[k]
		// Walking toward lower outputs: collect in reverse, then flip.
		outs = append(outs, o)
		ins = append(ins, i)
	}
	// Keep only strictly decreasing outs (drop repeats of the rails).
	fo, fi := outs[:0], ins[:0]
	for k := 0; k < len(outs); k++ {
		if len(fo) > 0 && outs[k] >= fo[len(fo)-1] {
			continue
		}
		fo = append(fo, outs[k])
		fi = append(fi, ins[k])
	}
	// Reverse into ascending order for interpolation.
	for l, r := 0, len(fo)-1; l < r; l, r = l+1, r-1 {
		fo[l], fo[r] = fo[r], fo[l]
		fi[l], fi[r] = fi[r], fi[l]
	}
	return fo, fi
}

// NoiseMargins computes (NMH, NML) using the maximum equal criterion
// (MEC, Hauser 1993): the side of the largest square that fits in each
// closed eye of the butterfly formed by the VTC A(x) = f(x) and its
// mirror B(x) = f^-1(x).
//
// An eye only exists where the two curves enclose a region: the high eye
// spans from the left closure to the central crossing (VM), bounded
// above by A and below by B; the low eye is its mirror image. A closure
// is either an interior intersection of the curves or a rail touch,
// where the mirror's vertical rail segment reaches up/down to A at the
// domain edge. Shallow ratioed inverters whose loop gain never exceeds
// one have no closed eyes and get zero margins — matching the MEC's
// bistability interpretation.
func (v VTC) NoiseMargins() (nmh, nml float64) {
	if len(v.In) < 3 {
		return 0, 0
	}
	hiOuts, hiIns := v.monotoneInverse(false)
	loOuts, loIns := v.monotoneInverse(true)
	finvHigh := func(x float64) float64 { return interp(hiOuts, hiIns, x) }
	finvLow := func(x float64) float64 { return interp(loOuts, loIns, x) }
	f := v.At
	vm := v.SwitchingThreshold()
	if math.IsNaN(vm) {
		return 0, 0
	}
	inLo, inHi := v.In[0], v.In[len(v.In)-1]
	outLo, outHi := hiOuts[0], hiOuts[len(hiOuts)-1]
	xLo := math.Max(inLo, outLo)
	xHi := math.Min(inHi, outHi)
	swing := outHi - outLo
	tol := 0.02 * swing
	const steps = 600

	// High eye: find its left closure a in [xLo, vm]: the last point
	// walking left from vm where A - B_h <= 0 (interior intersection),
	// or xLo if B_l reaches A there (rail touch); otherwise no eye.
	high := func() float64 {
		a := math.NaN()
		prev := vm
		for k := 0; k <= steps; k++ {
			x := vm - (vm-xLo)*float64(k)/float64(steps)
			if f(x)-finvHigh(x) <= 0 && x < vm {
				a = prev // eye starts just right of the intersection
				break
			}
			prev = x
		}
		if math.IsNaN(a) {
			// No interior intersection: closed only if the mirror's
			// vertical rail segment meets A at the left domain edge.
			if finvLow(xLo) >= f(xLo)-tol {
				a = xLo
			} else {
				return 0
			}
		}
		fits := func(s float64) bool {
			for k := 0; k <= steps; k++ {
				x := a + (vm-a)*float64(k)/float64(steps)
				if x+s > vm {
					break
				}
				if f(x+s)-finvHigh(x) >= s {
					return true
				}
			}
			return false
		}
		return bisectMax(fits, vm-a)
	}

	// Low eye: mirror image, right of the crossing.
	low := func() float64 {
		b := math.NaN()
		prev := vm
		for k := 0; k <= steps; k++ {
			x := vm + (xHi-vm)*float64(k)/float64(steps)
			if finvLow(x)-f(x) <= 0 && x > vm {
				b = prev
				break
			}
			prev = x
		}
		if math.IsNaN(b) {
			if finvHigh(xHi) <= f(xHi)+tol {
				b = xHi
			} else {
				return 0
			}
		}
		fits := func(s float64) bool {
			for k := 0; k <= steps; k++ {
				x := vm + (b-vm)*float64(k)/float64(steps)
				if x+s > b {
					break
				}
				if finvLow(x+s)-f(x) >= s {
					return true
				}
			}
			return false
		}
		return bisectMax(fits, b-vm)
	}
	return high(), low()
}

// bisectMax returns the largest s in [0, max] for which fits(s) holds,
// assuming fits is monotone (true below the answer).
func bisectMax(fits func(float64) bool, max float64) float64 {
	if max <= 0 || !fits(0) {
		return 0
	}
	lo, hi := 0.0, max
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// InverterDC bundles the DC figures of merit the paper tabulates in
// Figures 6(d) and 7(d).
type InverterDC struct {
	VM      float64 // switching threshold, V
	Gain    float64 // maximum |dVout/dVin|
	NMH     float64 // high noise margin (MEC), V
	NML     float64 // low noise margin (MEC), V
	VOH     float64
	VOL     float64
	PowLow  float64 // static power with input low, W
	PowHigh float64 // static power with input high, W
}

func (d InverterDC) String() string {
	return fmt.Sprintf("VM=%.2fV gain=%.2f NMH=%.2fV NML=%.2fV VOH=%.2fV VOL=%.2fV P(lo)=%.3gW P(hi)=%.3gW",
		d.VM, d.Gain, d.NMH, d.NML, d.VOH, d.VOL, d.PowLow, d.PowHigh)
}

// crossing finds, one sample pair at a time, the first crossing of
// level in one direction on a pair whose later time is at or after
// tStart, interpolated linearly within that pair. It is the one
// implementation of the rule behind CrossTime, Slew2080 and MeasureEdge.
type crossing struct {
	level  float64
	rising bool
	tStart float64
	t      float64 // the crossing time, once found
	found  bool
}

// pair tests the sample pair (t0, a) -> (t1, b), unless the crossing is
// already found, and reports whether it is found.
func (d *crossing) pair(t0, a, t1, b float64) bool {
	if d.found || t1 < d.tStart {
		return d.found
	}
	if d.rising {
		d.found = a < d.level && b >= d.level
	} else {
		d.found = a > d.level && b <= d.level
	}
	if d.found {
		d.t = t1
		if b != a {
			d.t = t0 + (t1-t0)*(d.level-a)/(b-a)
		}
	}
	return d.found
}

// time returns the crossing time, or NaN if it has not been found.
func (d *crossing) time() float64 {
	if !d.found {
		return math.NaN()
	}
	return d.t
}

// slew2080 finds, one sample pair at a time, the 20%-80% transition of
// Slew2080: the opening crossing (20% rising, 80% falling) from tStart,
// then the closing one from the interpolated opening time.
type slew2080 struct {
	open, close crossing
	t0, v0      float64 // first sample of the previous pair
	seen        bool    // whether a previous pair exists
}

func newSlew2080(vLow, vHigh float64, rising bool, tStart float64) slew2080 {
	l20 := vLow + 0.2*(vHigh-vLow)
	l80 := vLow + 0.8*(vHigh-vLow)
	if !rising {
		l20, l80 = l80, l20
	}
	return slew2080{
		open:  crossing{level: l20, rising: rising, tStart: tStart},
		close: crossing{level: l80, rising: rising},
	}
}

// pair feeds the sample pair (t0, a) -> (t1, b) and reports whether
// both crossings are found.
func (s *slew2080) pair(t0, a, t1, b float64) bool {
	if !s.open.found {
		tp, vp, seen := s.t0, s.v0, s.seen
		s.t0, s.v0, s.seen = t0, a, true
		if !s.open.pair(t0, a, t1, b) {
			return false
		}
		// The closing search starts at the interpolated opening time,
		// which lies in this pair, so this pair is tested too. When the
		// interpolation rounds onto t0 exactly, the previous pair ends
		// at or after the start and is tested first.
		s.close.tStart = s.open.t
		if seen {
			s.close.pair(tp, vp, t0, a)
		}
	}
	return s.close.pair(t0, a, t1, b)
}

// value returns the transition time, or NaN if a crossing is missing.
func (s *slew2080) value() float64 { return s.close.time() - s.open.time() }

// CrossTime returns the first time the waveform crosses level in the
// given direction after tStart, or NaN: the first sample pair whose
// later time is at or after tStart and that goes from strictly below
// level to at or above it (rising; mirrored for falling), interpolated
// linearly within the pair.
func CrossTime(times, v []float64, level float64, rising bool, tStart float64) float64 {
	d := crossing{level: level, rising: rising, tStart: tStart}
	for i := 1; i < len(v) && !d.pair(times[i-1], v[i-1], times[i], v[i]); i++ {
	}
	return d.time()
}

// Slew2080 returns the 20%-80% transition time of the waveform between
// the given rail levels, for the first transition in the given direction
// after tStart: the CrossTime of the closing level searched from the
// CrossTime of the opening one. The times must increase strictly, as a
// transient's do.
func Slew2080(times, v []float64, vLow, vHigh float64, rising bool, tStart float64) float64 {
	s := newSlew2080(vLow, vHigh, rising, tStart)
	for i := 1; i < len(v) && !s.pair(times[i-1], v[i-1], times[i], v[i]); i++ {
	}
	return s.value()
}
