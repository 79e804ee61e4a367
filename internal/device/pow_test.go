package device

import (
	"math"
	"testing"
)

// powExponents are the pentacene exponents (Gamma, MSat and 1/MSat),
// pow's early returns, integer exponents, two that fold yf > 0.5 into
// yf-1 (0.7 and 2.7) and two negative ones.
var powExponents = []float64{0.12, 0.4, 2.5, 0, 0.5, -0.5, 1, 2, 3, 0.7, 2.7, -0.12, -2.5}

// checkPow reports pow(x, y) against math.Pow(x, y), bit for bit.
func checkPow(t *testing.T, x, y float64) {
	t.Helper()
	if got, want := pow(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pow(%v, %v) = %v (%#016x), math.Pow %v (%#016x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPowMatchesMathPow checks pow against math.Pow at the edges of
// the float64 range and over a dense log-uniform sweep of x > 0.
func TestPowMatchesMathPow(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), -1, -2.5,
		math.SmallestNonzeroFloat64, 0x1p-1050, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
		0x1p-200, 0x1p200, 1, math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	// 2^18 points spaced evenly in log2 x over every positive float64,
	// each with its neighbours one ulp away.
	const n = 1 << 18
	for k := 0; k <= n; k++ {
		x := math.Exp2(-1074 + 2098*float64(k)/n)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	for _, y := range powExponents {
		for _, x := range xs {
			checkPow(t, x, y)
		}
	}
}

// FuzzPow checks pow against math.Pow, bit for bit, at arbitrary
// (x, y): special values, out-of-guard exponents and all.
func FuzzPow(f *testing.F) {
	for _, y := range powExponents {
		for _, x := range []float64{0, 0x1p-1074, 0x1p-200, 1e-9, 0.3, 1, 7, 0x1p200, math.Inf(1), math.NaN(), -3} {
			f.Add(x, y)
		}
	}
	f.Add(1.5, 998.5)
	f.Add(0x1p-30, 31.9)
	f.Add(2.0, -1100.0)
	f.Fuzz(checkPow)
}
