package interp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactAtSamplePoints(t *testing.T) {
	tab := MustNew([]float64{0, 1, 2, 4}, []float64{10, 20, 15, 55})
	for i, x := range []float64{0, 1, 2, 4} {
		want := []float64{10, 20, 15, 55}[i]
		if got := tab.At(x); got != want {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLinearBetween(t *testing.T) {
	tab := MustNew([]float64{0, 10}, []float64{0, 100})
	if got := tab.At(2.5); got != 25 {
		t.Errorf("At(2.5) = %v, want 25", got)
	}
}

func TestExtrapolation(t *testing.T) {
	tab := MustNew([]float64{1, 2}, []float64{10, 20})
	if got := tab.At(3); got != 30 {
		t.Errorf("right extrapolation = %v, want 30", got)
	}
	if got := tab.At(0); got != 0 {
		t.Errorf("left extrapolation = %v, want 0", got)
	}
}

func TestUnsortedInput(t *testing.T) {
	tab := MustNew([]float64{2, 0, 1}, []float64{20, 0, 10})
	if got := tab.At(0.5); got != 5 {
		t.Errorf("At(0.5) = %v, want 5", got)
	}
	if tab.At(0) != 0 || tab.At(2) != 20 {
		t.Errorf("bounds = [%v,%v], want [0,20]", tab.At(0), tab.At(2))
	}
}

func TestErrors(t *testing.T) {
	if _, err := New([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := New(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := New([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("duplicate x accepted")
	}
}

func TestSinglePoint(t *testing.T) {
	tab := MustNew([]float64{5}, []float64{42})
	for _, x := range []float64{-10, 5, 99} {
		if got := tab.At(x); got != 42 {
			t.Errorf("At(%v) = %v, want 42", x, got)
		}
	}
}

// Property: interpolation of a linear function reproduces it exactly
// (within float tolerance), including extrapolation.
func TestReproducesLinearFunctions(t *testing.T) {
	f := func(a, b float64, probe uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		xs := []float64{0, 1, 3, 7}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		tab := MustNew(xs, ys)
		x := float64(probe) / 16.0
		want := a*x + b
		got := tab.At(x)
		return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: within the sampled domain, the result is bounded by the
// neighbouring sample values.
func TestBoundedBySegmentEndpoints(t *testing.T) {
	tab := MustNew([]float64{0, 1, 2, 3}, []float64{5, -2, 8, 8})
	f := func(u uint16) bool {
		x := float64(u) / float64(1<<16) * 3
		y := tab.At(x)
		return y >= -2-1e-9 && y <= 8+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
