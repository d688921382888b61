// Package interp provides 1-D piecewise-linear interpolation, the Go
// equivalent of SciPy's interp1d that the paper's implementation uses to
// model energy and performance between profiled load points (§IV-E).
package interp

import (
	"errors"
	"fmt"
	"sort"
)

// Table is an immutable piecewise-linear function built from (x, y) samples.
type Table struct {
	xs, ys []float64
}

// ErrTooFewPoints is returned when fewer than one sample is supplied.
var ErrTooFewPoints = errors.New("interp: need at least one sample point")

// New builds a table from sample points. The xs need not be sorted but must
// be distinct; the pairs are sorted by x internally.
func New(xs, ys []float64) (*Table, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("interp: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if len(xs) < 1 {
		return nil, ErrTooFewPoints
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	t := &Table{xs: make([]float64, len(pts)), ys: make([]float64, len(pts))}
	for i, p := range pts {
		if i > 0 && p.x == pts[i-1].x {
			return nil, fmt.Errorf("interp: duplicate x value %v", p.x)
		}
		t.xs[i], t.ys[i] = p.x, p.y
	}
	return t, nil
}

// MustNew is New but panics on error; for tables built from literals.
func MustNew(xs, ys []float64) *Table {
	t, err := New(xs, ys)
	if err != nil {
		panic(err)
	}
	return t
}

// At evaluates the function at x. Outside the sampled range the function
// extrapolates linearly from the outermost segment (matching interp1d with
// fill_value="extrapolate", which the profile consumers rely on to reason
// about loads slightly beyond the profiled maximum).
func (t *Table) At(x float64) float64 {
	n := len(t.xs)
	if n == 1 {
		return t.ys[0]
	}
	// Find the segment: the largest i with xs[i] <= x, clamped to [0, n-2].
	i := sort.SearchFloat64s(t.xs, x)
	switch {
	case i <= 0:
		i = 0
	case i >= n:
		i = n - 2
	default:
		i--
	}
	if i > n-2 {
		i = n - 2
	}
	x0, x1 := t.xs[i], t.xs[i+1]
	y0, y1 := t.ys[i], t.ys[i+1]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}
