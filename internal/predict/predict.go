// Package predict implements DynamoLLM's two predictors:
//
//   - an output-length classifier standing in for the BERT proxy model of
//     §IV-D/[55]: it classifies an incoming prompt's output as short,
//     medium, or long, with configurable accuracy (Fig. 11 sweeps it from
//     100% down to 50%);
//   - a template-based load predictor (§IV-B/[62]) that forecasts each
//     request type's load for the next scheduling epoch from historical
//     weekly patterns.
package predict

import (
	"math"

	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// LengthPredictor classifies the output-length bucket of a request. The
// simulator knows the true output length; the predictor perturbs it with a
// configurable error rate, modeling proxy-model misclassification. A real
// deployment would swap this for an actual proxy-model client.
type LengthPredictor struct {
	// Accuracy is the probability the true bucket is returned (0..1].
	Accuracy float64
	rng      *simclock.RNG
}

// NewLengthPredictor returns a predictor with the given accuracy; accuracy
// is clamped into (0, 1]. Errors go to adjacent buckets (a long output is
// mistaken for medium far more often than for short), matching how
// regression-style proxies fail.
func NewLengthPredictor(accuracy float64, seed uint64) *LengthPredictor {
	if accuracy <= 0 {
		accuracy = 1.0 / 3
	}
	if accuracy > 1 {
		accuracy = 1
	}
	return &LengthPredictor{Accuracy: accuracy, rng: simclock.NewRNG(seed)}
}

// PredictBucket returns the predicted output bucket given the true output
// token count.
func (p *LengthPredictor) PredictBucket(trueOutput int) workload.LengthBucket {
	truth := workload.BucketOutput(trueOutput)
	if p.rng.Float64() < p.Accuracy {
		return truth
	}
	// Misprediction: move to an adjacent bucket; at the extremes there is
	// only one neighbour.
	switch truth {
	case workload.Short:
		return workload.Medium
	case workload.Long:
		return workload.Medium
	default:
		if p.rng.Float64() < 0.5 {
			return workload.Short
		}
		return workload.Long
	}
}

// PredictClass combines the known input length with the predicted output
// bucket — exactly the router's information at arrival time (§IV-D).
func (p *LengthPredictor) PredictClass(inputTokens, trueOutput int) workload.Class {
	return workload.MakeClass(workload.BucketInput(inputTokens), p.PredictBucket(trueOutput))
}

// --- Load prediction ----------------------------------------------------------

// LoadPredictor forecasts per-class request rates using weekly templates:
// one slot per (day-of-week granularity is folded into the weekly horizon)
// time-of-week bucket per class, exponentially averaged across weeks, plus
// a short-term last-value correction. This is the "lightweight load
// template" approach the paper adopts from SmartOClock [62].
type LoadPredictor struct {
	// SlotWidth is the template resolution in seconds.
	SlotWidth float64
	// Headroom multiplies forecasts to bias toward over-provisioning
	// (under-provisioning risks SLOs; the paper provisions for peaks).
	Headroom float64
	// alpha is the exponential averaging weight for template updates.
	alpha float64

	slots     int
	templates [workload.NumClasses][]float64
	seen      [workload.NumClasses][]bool
	// last observed rate per class, for cold-start fallback.
	last [workload.NumClasses]float64
}

// NewLoadPredictor returns a predictor with the given template resolution.
func NewLoadPredictor(slotWidth float64) *LoadPredictor {
	if slotWidth <= 0 {
		slotWidth = 1800
	}
	slots := int(math.Ceil(7 * 24 * 3600 / slotWidth))
	p := &LoadPredictor{
		SlotWidth: slotWidth,
		Headroom:  1.15,
		alpha:     0.5,
		slots:     slots,
	}
	for c := range p.templates {
		p.templates[c] = make([]float64, slots)
		p.seen[c] = make([]bool, slots)
	}
	return p
}

func (p *LoadPredictor) slot(t simclock.Time) int {
	week := 7 * 24 * 3600.0
	pos := math.Mod(float64(t), week)
	if pos < 0 {
		pos += week
	}
	s := int(pos / p.SlotWidth)
	if s >= p.slots {
		s = p.slots - 1
	}
	return s
}

// Observe records that class c ran at `rate` req/s around time t.
func (p *LoadPredictor) Observe(t simclock.Time, c workload.Class, rate float64) {
	s := p.slot(t)
	if p.seen[c][s] {
		p.templates[c][s] = p.alpha*rate + (1-p.alpha)*p.templates[c][s]
	} else {
		p.templates[c][s] = rate
		p.seen[c][s] = true
	}
	p.last[c] = rate
}

// PredictPeak forecasts the PEAK rate of class c over [t, t+horizon): the
// max of the template slots the window covers (with headroom), falling
// back to the last observation when the template is cold.
func (p *LoadPredictor) PredictPeak(t simclock.Time, horizon float64, c workload.Class) float64 {
	peak := 0.0
	any := false
	for off := 0.0; off < horizon; off += p.SlotWidth {
		s := p.slot(t + simclock.Time(off))
		if p.seen[c][s] {
			any = true
			if p.templates[c][s] > peak {
				peak = p.templates[c][s]
			}
		}
	}
	if !any {
		// Cold start: assume the last rate persists, with extra margin
		// because we know nothing about the window.
		return p.last[c] * p.Headroom * 1.3
	}
	return peak * p.Headroom
}

// Warm pre-loads the template from a known rate function (e.g. a prior
// week's trace), stepping at the slot width. The paper's predictor is
// trained on historical data before deployment.
func (p *LoadPredictor) Warm(rate func(t simclock.Time, c workload.Class) float64) {
	for s := 0; s < p.slots; s++ {
		t := simclock.Time(float64(s) * p.SlotWidth)
		for _, c := range workload.AllClasses {
			p.Observe(t, c, rate(t, c))
		}
	}
}
