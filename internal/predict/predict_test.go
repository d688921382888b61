package predict

import (
	"math"
	"testing"

	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

func TestPerfectPredictor(t *testing.T) {
	p := NewLengthPredictor(1.0, 1)
	for _, out := range []int{5, 99, 100, 349, 350, 2000} {
		if got := p.PredictBucket(out); got != workload.BucketOutput(out) {
			t.Errorf("perfect predictor wrong for %d: %v", out, got)
		}
	}
}

func TestAccuracyRealized(t *testing.T) {
	for _, acc := range []float64{0.9, 0.8, 0.6, 0.5} {
		p := NewLengthPredictor(acc, 42)
		r := simclock.NewRNG(7)
		const n = 20000
		correct := 0
		for i := 0; i < n; i++ {
			out := r.Intn(1000) + 1
			if p.PredictBucket(out) == workload.BucketOutput(out) {
				correct++
			}
		}
		got := float64(correct) / n
		if math.Abs(got-acc) > 0.02 {
			t.Errorf("configured accuracy %v, realized %v", acc, got)
		}
	}
}

func TestMispredictionsGoToAdjacentBuckets(t *testing.T) {
	p := NewLengthPredictor(0.0001, 3) // almost always wrong
	sawMedium := false
	for i := 0; i < 200; i++ {
		got := p.PredictBucket(10) // truth: Short
		if got == workload.Long {
			t.Fatal("short output mispredicted as long (non-adjacent)")
		}
		if got == workload.Medium {
			sawMedium = true
		}
		if got2 := p.PredictBucket(5000); got2 == workload.Short {
			t.Fatal("long output mispredicted as short (non-adjacent)")
		}
	}
	if !sawMedium {
		t.Error("mispredictions never moved bucket")
	}
}

func TestPredictClassUsesTrueInput(t *testing.T) {
	p := NewLengthPredictor(1.0, 1)
	cls := p.PredictClass(512, 700)
	if cls != workload.ML {
		t.Errorf("PredictClass(512,700) = %v, want ML", cls)
	}
}

func TestAccuracyClamping(t *testing.T) {
	if p := NewLengthPredictor(2.0, 1); p.Accuracy != 1 {
		t.Errorf("accuracy not clamped: %v", p.Accuracy)
	}
	if p := NewLengthPredictor(-1, 1); p.Accuracy <= 0 || p.Accuracy > 1 {
		t.Errorf("non-positive accuracy not defaulted: %v", p.Accuracy)
	}
}

func TestLoadPredictorLearnsWeeklyPattern(t *testing.T) {
	p := NewLoadPredictor(1800)
	// Deterministic weekly pattern: high at hour 14, low at hour 3.
	rate := func(tm simclock.Time, c workload.Class) float64 {
		if c != workload.MM {
			return 0
		}
		h := math.Mod(float64(tm)/3600, 24)
		return 10 + 50*math.Exp(-(h-14)*(h-14)/8)
	}
	p.Warm(rate)
	// Prediction at hour 14 next week should be near 60 x headroom. A
	// one-slot window reads exactly that slot's template.
	at := simclock.Time((7*24 + 14) * 3600)
	got := p.PredictPeak(at, p.SlotWidth, workload.MM)
	if math.Abs(got-60*p.Headroom) > 6*p.Headroom {
		t.Errorf("predicted peak at hour 14 = %v, want ~60 x headroom", got)
	}
	night := p.PredictPeak(simclock.Time((7*24+3)*3600), p.SlotWidth, workload.MM)
	if night > 20*p.Headroom {
		t.Errorf("predicted night peak = %v, want ~10 x headroom", night)
	}
}

func TestPredictPeakTakesWindowMax(t *testing.T) {
	p := NewLoadPredictor(1800)
	p.Observe(0, workload.SS, 5)
	p.Observe(1800, workload.SS, 50)
	p.Observe(3600, workload.SS, 8)
	peak := p.PredictPeak(0, 3*1800, workload.SS)
	want := 50 * p.Headroom
	if math.Abs(peak-want) > 1e-9 {
		t.Errorf("peak = %v, want %v", peak, want)
	}
}

func TestPredictPeakColdStartFallsBack(t *testing.T) {
	p := NewLoadPredictor(1800)
	p.Observe(0, workload.LL, 4)
	// Ask about a window far from slot 0 with no template data.
	peak := p.PredictPeak(simclock.Time(3*24*3600), 1800, workload.LL)
	if peak < 4 {
		t.Errorf("cold-start peak = %v, want >= last observation", peak)
	}
}

func TestObserveSmoothsAcrossWeeks(t *testing.T) {
	p := NewLoadPredictor(1800)
	p.Observe(0, workload.MM, 100)
	p.Observe(simclock.Time(7*24*3600), workload.MM, 0) // same slot, week later
	got := p.PredictPeak(0, p.SlotWidth, workload.MM)
	if want := 50 * p.Headroom; got != want {
		t.Errorf("smoothed one-slot peak = %v, want %v (50 x headroom, alpha=0.5)", got, want)
	}
}

func TestSlotWrapsNegativeAndOverflow(t *testing.T) {
	p := NewLoadPredictor(1800)
	p.Observe(simclock.Time(-10), workload.SS, 1) // must not panic
	p.Observe(simclock.Time(100*24*3600), workload.SS, 1)
}

func TestDefaultSlotWidth(t *testing.T) {
	p := NewLoadPredictor(0)
	if p.SlotWidth != 1800 {
		t.Errorf("default slot width = %v", p.SlotWidth)
	}
}
