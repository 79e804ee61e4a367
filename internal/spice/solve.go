package spice

import (
	"errors"
	"fmt"
	"math"
)

// errSingular is returned when the MNA matrix cannot be factored.
var errSingular = errors.New("spice: singular matrix")

// solveDense solves A*x = b in place using Gaussian elimination with
// partial pivoting. A is n*n in row-major order, n = len(b). A and b
// are overwritten. The returned slice aliases b.
func solveDense(a, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pivAbs := col, math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pivAbs {
				piv, pivAbs = r, v
			}
		}
		if pivAbs < 1e-30 {
			return nil, fmt.Errorf("%w: pivot %d", errSingular, col)
		}
		rc := a[col*n : col*n+n]
		if piv != col {
			// Columns left of col are already zero in both rows.
			rp := a[piv*n : piv*n+n]
			for c := col; c < n; c++ {
				rp[c], rc[c] = rc[c], rp[c]
			}
			b[piv], b[col] = b[col], b[piv]
		}
		inv := 1 / rc[col]
		for r := col + 1; r < n; r++ {
			row := a[r*n : r*n+n]
			f := row[col] * inv
			if f == 0 {
				continue
			}
			row[col] = 0
			dst := row[col+1:]
			src := rc[col+1 : col+1+len(dst)] // same length: no bounds checks
			for c := range dst {
				dst[c] -= f * src[c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		row := a[r*n : r*n+n]
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= row[c] * b[c]
		}
		b[r] = sum / row[r]
	}
	return b, nil
}
