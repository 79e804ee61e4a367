package device

import (
	"fmt"
	"math"
	"sort"
)

// FitResult reports the outcome of fitting a compact model to measured
// transfer curves.
type FitResult struct {
	Model      Model
	RMSLogErr  float64 // root-mean-square error in log10(ID)
	Iterations int
	Evals      int
}

func (r FitResult) String() string {
	return fmt.Sprintf("%s: rms(log10 ID) = %.3f over %d evals", r.Model.Name(), r.RMSLogErr, r.Evals)
}

// logCurrentError returns the RMS log10-current error of model m against
// the measured curves. Points at or below floor are clamped so the
// level 1 model's exact zeros remain finite (and appropriately penalized).
func logCurrentError(m Model, curves []TransferCurve, floor float64) float64 {
	var sum float64
	var n int
	for _, c := range curves {
		for _, pt := range c.Points {
			want := math.Max(pt.ID, floor)
			id, _, _ := m.Eval(-pt.VGS, pt.VDS)
			got := math.Max(id, floor)
			d := math.Log10(got) - math.Log10(want)
			sum += d * d
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(sum / float64(n))
}

// FitLevel1 extracts a level 1 (Shichman-Hodges) model from measured
// transfer curves by direct linear-region extraction followed by a
// Nelder-Mead refinement of (VT, Mu, Lambda). As in the paper, the fit is
// qualitative: the square law cannot represent subthreshold conduction or
// the leakage floor, so its RMS log error stays large.
func FitLevel1(curves []TransferCurve, geom Geometry) FitResult {
	// Seed from the low-VDS curve's linear extraction.
	seedVT, seedMu := 1.0, 0.1e-4
	for _, c := range curves {
		if c.VDS <= 2 {
			p := ExtractDCParams(c, geom)
			if p.MuLin > 0 {
				seedMu = p.MuLin
			}
			// Paper-convention VT maps to +VT in n-normalized drive.
			seedVT = -p.VT
		}
	}
	build := func(x []float64) Model {
		return &Level1{
			Geom:   geom,
			VT:     x[0],
			Mu:     math.Exp(x[1]),
			Lambda: math.Abs(x[2]),
		}
	}
	obj := func(x []float64) float64 {
		return logCurrentError(build(x), curves, 1e-14)
	}
	x0 := []float64{seedVT, math.Log(seedMu), 0.01}
	x, iters, evals := NelderMead(obj, x0, []float64{0.5, 0.3, 0.02}, 400)
	m := build(x)
	return FitResult{Model: m, RMSLogErr: logCurrentError(m, curves, 1e-14), Iterations: iters, Evals: evals}
}

// FitLevel61 extracts an RPI-style TFT model from measured transfer
// curves by Nelder-Mead least squares on log current over
// (VT0, DIBL, SS, Mu0, Gamma, Lambda, ILeak). It captures the sub-VT
// region and leakage that level 1 misses (paper Figure 4).
func FitLevel61(curves []TransferCurve, geom Geometry) FitResult {
	build := func(x []float64) Model {
		return &Level61{
			Geom:     geom,
			VT0:      x[0],
			DIBL:     math.Abs(x[1]),
			SS:       math.Exp(x[2]),
			Mu0:      math.Exp(x[3]),
			VAA:      7.0,
			Gamma:    math.Abs(x[4]),
			AlphaSat: 1.0,
			MSat:     2.5,
			Lambda:   math.Abs(x[5]),
			ILeak:    math.Exp(x[6]),
			Gmin:     1e-14,
		}
	}
	obj := func(x []float64) float64 {
		return logCurrentError(build(x), curves, 1e-14)
	}
	x0 := []float64{1.5, 0.25, math.Log(0.3), math.Log(0.1e-4), 0.3, 0.01, math.Log(1e-12)}
	step := []float64{0.4, 0.1, 0.3, 0.4, 0.15, 0.01, 0.8}
	x, iters, evals := NelderMead(obj, x0, step, 1200)
	m := build(x)
	return FitResult{Model: m, RMSLogErr: logCurrentError(m, curves, 1e-14), Iterations: iters, Evals: evals}
}

// NelderMead minimizes f starting from x0 with the given initial simplex
// steps, returning the best point found, the number of iterations, and
// the number of function evaluations. It is a standard downhill-simplex
// implementation with adaptive restart-free coefficients, sufficient for
// the low-dimensional model-fitting problems in this package.
func NelderMead(f func([]float64) float64, x0, step []float64, maxIter int) (best []float64, iters, evals int) {
	n := len(x0)
	type vertex struct {
		x []float64
		v float64
	}
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	simplex := make([]vertex, n+1)
	for i := range simplex {
		x := append([]float64(nil), x0...)
		if i > 0 {
			x[i-1] += step[i-1]
		}
		simplex[i] = vertex{x: x, v: eval(x)}
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	for iters = 0; iters < maxIter; iters++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
		if simplex[n].v-simplex[0].v < 1e-10 {
			break
		}
		// Centroid of all but worst.
		cen := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cen[j] += simplex[i].x[j] / float64(n)
			}
		}
		worst := simplex[n]
		refl := make([]float64, n)
		for j := 0; j < n; j++ {
			refl[j] = cen[j] + alpha*(cen[j]-worst.x[j])
		}
		vr := eval(refl)
		switch {
		case vr < simplex[0].v:
			exp := make([]float64, n)
			for j := 0; j < n; j++ {
				exp[j] = cen[j] + gamma*(refl[j]-cen[j])
			}
			if ve := eval(exp); ve < vr {
				simplex[n] = vertex{exp, ve}
			} else {
				simplex[n] = vertex{refl, vr}
			}
		case vr < simplex[n-1].v:
			simplex[n] = vertex{refl, vr}
		default:
			con := make([]float64, n)
			for j := 0; j < n; j++ {
				con[j] = cen[j] + rho*(worst.x[j]-cen[j])
			}
			if vc := eval(con); vc < worst.v {
				simplex[n] = vertex{con, vc}
			} else {
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].v = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
	return simplex[0].x, iters, evals
}
