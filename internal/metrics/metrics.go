// Package metrics provides the measurement utilities the experiments use:
// streaming percentile estimation over logarithmic-bin histograms,
// time-bucketed series, and weighted time-averages for power accounting.
//
// Both Dist and Series are built for week-scale simulations: Add/Observe
// are O(1) and allocation-free in steady state, and memory is bounded by
// the histogram resolution (Dist) or the simulated horizon (Series), never
// by the sample count.
package metrics

import "math"

// Histogram resolution. Bins are geometric with 2% width over
// [histMin, histMin*histGrowth^histBins); any positive sample therefore
// lands in a bin whose geometric midpoint is within sqrt(histGrowth)-1
// (<1%) of the sample's value. 2200 bins cover 1e-9 .. ~8e9, far beyond
// every latency (seconds) and power (watts) signal the simulator records.
// Samples at or below histMin share the lowest bin; the top bin takes
// every sample at or above its lower edge, +Inf included.
const (
	histGrowth = 1.02
	histMin    = 1e-9
	histBins   = 2200
)

// MaxRelativeError is the documented worst-case relative error of
// Percentile against the sample at the selected rank: half a bin width,
// sqrt(1.02)-1 < 1%.
//
//dynamolint:api the error bound the Percentile tests assert
var MaxRelativeError = math.Sqrt(histGrowth) - 1

var (
	logGrowth    = math.Log(histGrowth)
	invLogGrowth = 1 / math.Log(histGrowth)
)

// logBin is the definition of a sample's bin for v > histMin (before the
// top-bin clamp): whole log(histGrowth) steps above histMin. Only init
// calls it, to build the tables bin reads; bin equals it exactly.
func logBin(v float64) int {
	return int(math.Log(v/histMin) * invLogGrowth)
}

// idxShift keeps a float64's exponent and its top 6 mantissa bits: one
// binStart cell spans a relative width of at most 1/64, less than one
// 2% bin, so it holds at most one bin edge.
const idxShift = 52 - 6

var (
	// binLo[b] (1 <= b < histBins) is the smallest float64 whose logBin
	// is >= b; binLo[histBins] = +Inf caps the top bin. binLo[0] is unused.
	binLo [histBins + 1]float64
	// binStart[k] is the bin of the smallest float64 whose bits>>idxShift
	// equal idxBase+k. The cells run from the one holding histMin to the
	// one holding binLo[histBins-1].
	binStart []uint16
	idxBase  uint64
)

// init builds the bin tables eagerly, so no measured run pays for them
// on its first Add (~0.4 ms). Each edge is seeded at histMin*histGrowth^b,
// taken as exp(b*logGrowth): within ~30 ulps of the true edge, where
// math.Pow drifts by hundreds. The walk steps down 4 ulps at a time until
// below the edge, then up one ulp at a time onto it.
func init() {
	for b := 1; b < histBins; b++ {
		u := math.Float64bits(histMin * math.Exp(float64(b)*logGrowth))
		for logBin(math.Float64frombits(u)) >= b {
			u -= 4
		}
		for logBin(math.Float64frombits(u)) < b {
			u++
		}
		binLo[b] = math.Float64frombits(u)
	}
	binLo[histBins] = math.Inf(1)

	idxBase = math.Float64bits(histMin) >> idxShift
	top := math.Float64bits(binLo[histBins-1]) >> idxShift
	binStart = make([]uint16, top-idxBase+1)
	b := 0
	for k := range binStart {
		lo := math.Float64frombits((idxBase + uint64(k)) << idxShift)
		for binLo[b+1] <= lo {
			b++
		}
		if k > 0 && b > int(binStart[k-1])+1 {
			panic("metrics: a bin-index cell holds two bin edges")
		}
		binStart[k] = uint16(b)
	}
}

// Dist collects samples into a fixed-size logarithmic-bin histogram and
// answers percentile queries in O(bins), independent of the sample count.
// The evaluation figures report P50/P90/P99 latencies and powers.
//
// Percentile returns a value within MaxRelativeError (<1%) of the sample
// at the nearest rank. Min, Max, Mean, and N are exact. Samples are
// expected to be non-negative (latencies, watts, joules); values at or
// below histMin share the lowest bin, +Inf lands in the top bin, and a
// NaN sample panics.
type Dist struct {
	counts [histBins]int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// NewDist returns an empty distribution.
func NewDist() *Dist { return &Dist{} }

// bin maps a sample to its histogram bin: the logBin of v clamped to
// [0, histBins-1], read from the tables with one index lookup and one
// edge compare (a cell holds at most one edge).
//
//dynamolint:steadystate
func bin(v float64) int {
	if k := math.Float64bits(v)>>idxShift - idxBase; k < uint64(len(binStart)) {
		b := int(binStart[k])
		if v >= binLo[b+1] {
			b++
		}
		return b
	}
	// Outside the table: above it (+Inf included), below it (zero and
	// negatives included), or NaN.
	if v >= binLo[histBins-1] {
		return histBins - 1
	}
	if v != v {
		panic("metrics: NaN sample")
	}
	return 0
}

// binValue returns the geometric midpoint of a bin.
func binValue(b int) float64 {
	return histMin * math.Exp((float64(b)+0.5)*logGrowth)
}

// Add records a sample in O(1) without allocating.
//
//dynamolint:steadystate
func (d *Dist) Add(v float64) { d.AddN(v, 1) }

// AddN records n copies of a sample (n <= 0 records nothing). The result
// equals n calls of Add(v): the sum is built by n sequential additions,
// not v*n, so Mean stays bit-identical.
//
//dynamolint:steadystate
func (d *Dist) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	b := bin(v) // first: a NaN panics before d changes
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n += int64(n)
	for range n {
		d.sum += v
	}
	d.counts[b] += int64(n)
}

// N returns the sample count.
func (d *Dist) N() int { return int(d.n) }

// Percentile returns the p-th percentile (0 <= p <= 100): the histogram
// bin holding the sample at rank ceil(p/100*(n-1)), evaluated at its
// geometric midpoint and clamped to the exact observed [min, max]. It
// returns 0 for an empty distribution.
func (d *Dist) Percentile(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	if p <= 0 {
		return d.min
	}
	if p >= 100 {
		return d.max
	}
	rank := p / 100 * float64(d.n-1)
	var cum int64
	for b := 0; b < histBins; b++ {
		c := d.counts[b]
		if c == 0 {
			continue
		}
		// Samples in this bin occupy ranks [cum, cum+c-1].
		if float64(cum+c-1) >= rank {
			v := binValue(b)
			if v < d.min {
				v = d.min
			}
			if v > d.max {
				v = d.max
			}
			return v
		}
		cum += c
	}
	return d.max
}

// Mean returns the arithmetic mean, or 0 when empty. Exact.
func (d *Dist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Max returns the largest sample, or 0 when empty. Exact.
func (d *Dist) Max() float64 {
	if d.n == 0 {
		return 0
	}
	return d.max
}

// --- Time series -------------------------------------------------------------

// Series accumulates (time, value) observations into fixed-width buckets,
// averaging within each bucket. Used for the "X over time" figures
// (frequency, GPU counts, energy per interval, carbon).
//
// Buckets are a dense slice anchored at the first observed bucket, so
// Observe/Accumulate are O(1) and allocation-free once the horizon has
// been reached (or pre-sized with Reserve).
type Series struct {
	Width float64 // bucket width in seconds

	base    int // bucket index of slot 0
	started bool
	sums    []float64
	counts  []float64
	touched []bool
}

// NewSeries returns a series with the given bucket width in seconds.
func NewSeries(width float64) *Series {
	if width <= 0 {
		panic("metrics: non-positive bucket width")
	}
	return &Series{Width: width}
}

// slot resolves the dense index for time t, growing the bucket storage as
// needed. Observations earlier than the first observed bucket shift the
// anchor (rare: simulations advance monotonically).
func (s *Series) slot(t float64) int {
	b := int(math.Floor(t / s.Width))
	if !s.started {
		s.base = b
		s.started = true
	}
	i := b - s.base
	if i < 0 {
		shift := -i
		s.sums = prepend(s.sums, shift)
		s.counts = prepend(s.counts, shift)
		s.touched = prependBool(s.touched, shift)
		s.base = b
		i = 0
	}
	if i >= len(s.sums) {
		s.grow(i + 1)
	}
	return i
}

func prepend(xs []float64, shift int) []float64 {
	out := make([]float64, len(xs)+shift)
	copy(out[shift:], xs)
	return out
}

func prependBool(xs []bool, shift int) []bool {
	out := make([]bool, len(xs)+shift)
	copy(out[shift:], xs)
	return out
}

// grow extends the bucket storage to at least n slots.
func (s *Series) grow(n int) {
	if n <= len(s.sums) {
		return
	}
	if n <= cap(s.sums) {
		s.sums = s.sums[:n]
		s.counts = s.counts[:n]
		s.touched = s.touched[:n]
		return
	}
	c := 2 * cap(s.sums)
	if c < n {
		c = n
	}
	sums := make([]float64, n, c)
	copy(sums, s.sums)
	counts := make([]float64, n, c)
	copy(counts, s.counts)
	touched := make([]bool, n, c)
	copy(touched, s.touched)
	s.sums, s.counts, s.touched = sums, counts, touched
}

// Reserve pre-sizes the bucket storage to cover [0, tMax] (or
// [anchor, tMax] if observations have already arrived), so subsequent
// Observe/Accumulate calls within the horizon never allocate. A series
// reserved before any observation is anchored at t=0, matching the
// simulator's non-negative clock; negative times still work via the
// prepend path.
func (s *Series) Reserve(tMax float64) {
	if !s.started {
		s.base = 0
		s.started = true
	}
	if i := int(math.Floor(tMax/s.Width)) - s.base; i >= len(s.sums) {
		s.grow(i + 1)
	}
}

// Observe records value at time t (seconds), weighted by w.
func (s *Series) Observe(t, value, w float64) {
	if w <= 0 {
		return
	}
	i := s.slot(t)
	s.sums[i] += value * w
	s.counts[i] += w
	s.touched[i] = true
}

// Accumulate adds value into the bucket at time t without averaging
// (for additive quantities like energy per interval).
func (s *Series) Accumulate(t, value float64) {
	i := s.slot(t)
	s.sums[i] += value
	s.touched[i] = true
}

// Point is one bucketed observation.
type Point struct {
	Time  float64 // bucket start, seconds
	Value float64
}

// Points returns the bucketed series in time order. Averaged buckets divide
// by weight; accumulated buckets report raw sums.
func (s *Series) Points() []Point {
	pts := make([]Point, 0, len(s.sums))
	for i, ok := range s.touched {
		if !ok {
			continue
		}
		v := s.sums[i]
		if c := s.counts[i]; c > 0 {
			v /= c
		}
		pts = append(pts, Point{Time: float64(s.base+i) * s.Width, Value: v})
	}
	return pts
}

// --- Time-weighted average ---------------------------------------------------

// TimeAvg tracks the time-weighted average of a piecewise-constant signal
// (e.g., instantaneous power, GPU count).
type TimeAvg struct {
	lastT   float64
	lastV   float64
	area    float64
	started bool
}

// Set records that the signal takes value v from time t onward.
func (a *TimeAvg) Set(t, v float64) {
	if a.started && t > a.lastT {
		a.area += a.lastV * (t - a.lastT)
	}
	a.lastT, a.lastV, a.started = t, v, true
}

// Area returns the integral so far (e.g., joules if the signal is watts).
func (a *TimeAvg) Area() float64 { return a.area }
