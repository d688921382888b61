// Package metrics provides the measurement utilities the experiments use:
// streaming percentile estimation over logarithmic-bin histograms,
// time-bucketed series, and weighted time-averages for power accounting.
//
// Both Dist and Series are built for week-scale simulations: Add/Observe
// are O(1) and allocation-free in steady state, and memory is bounded by
// the histogram resolution (Dist) or the simulated horizon (Series), never
// by the sample count.
package metrics

import (
	"math"
	"math/bits"
)

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
// at the nearest rank. Min, Max and N are exact, and so is the sum behind
// Mean: finite samples accumulate into a fixed-point integer that holds
// every float64 exactly, so Mean is the exact mean rounded once, and a
// Dist's state does not depend on the order its samples arrived in. Add
// and AddN are O(1) whatever n is. Samples are expected to be
// non-negative (latencies, watts, joules); values at or below histMin
// share the lowest bin (negative samples still add into the sum), +Inf
// lands in the top bin, and a NaN sample panics.
type Dist struct {
	counts [histBins]int64
	n      int64
	// sum is the exact sum of the finite samples, in units of the
	// smallest subnormal (2^-1074), as a two's-complement integer of
	// accWords little-endian words.
	sum [accWords]uint64
	// posInf and negInf count the infinite samples, which sum leaves out.
	posInf, negInf int64
	min, max       float64
}

// accWords sizes Dist.sum. A finite float64 is an integer below 2^2098
// in units of 2^-1074, the at most 2^63 samples of a Dist add 63 bits, and
// the sign takes one: 2162 bits fit in 34 words.
const accWords = 34

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

// AddN records n copies of a sample (n <= 0 records nothing) in O(1): the
// state equals n calls of Add(v), because the sum adds the exact product
// v*n.
//
//dynamolint:steadystate
func (d *Dist) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	b := bin(v) // first: a NaN panics before d changes
	if d.n == 0 {
		d.min, d.max = v, v
	} else if v < d.min {
		d.min = v
	} else if v > d.max {
		d.max = v
	}
	d.n += int64(n)
	d.counts[b] += int64(n)

	u := math.Float64bits(v)
	if e := u >> 52; e-1 < 0x7fe && n == 1 {
		// One positive normal sample, the common case: its 53-bit
		// significand lands at bit e-1 of sum and spans two words.
		at := uint(e - 1)
		s := at % 64
		m := u&(1<<52-1) | 1<<52
		k := at / 64
		var c uint64
		d.sum[k], c = bits.Add64(d.sum[k], m<<s, 0)
		d.sum[k+1], c = bits.Add64(d.sum[k+1], m>>1>>(63-s), c) // >>1>>(63-s): 0 at s == 0
		if c != 0 {
			d.carry(k + 2)
		}
		return
	}

	exp := int(u>>52) & 0x7ff
	mant := u & (1<<52 - 1)
	switch {
	case exp == 0x7ff: // ±Inf; NaN panicked in bin
		if u>>63 == 0 {
			d.posInf += int64(n)
		} else {
			d.negInf += int64(n)
		}
		return
	case exp == 0: // ±0 or subnormal: mant units of 2^-1074
		if mant == 0 {
			return
		}
		exp = 1
	default:
		mant |= 1 << 52
	}
	// |v|*n = mant*n * 2^(exp-1): a product of at most 116 bits, placed at
	// bit exp-1 of sum, spans three words.
	at := uint(exp - 1)
	s := at % 64
	hi, lo := bits.Mul64(mant, uint64(n))
	p0, p1, p2 := lo<<s, hi<<s|lo>>1>>(63-s), hi>>1>>(63-s)
	k := at / 64
	var c uint64
	if u>>63 == 0 {
		d.sum[k], c = bits.Add64(d.sum[k], p0, 0)
		d.sum[k+1], c = bits.Add64(d.sum[k+1], p1, c)
		d.sum[k+2], c = bits.Add64(d.sum[k+2], p2, c)
		if c != 0 {
			d.carry(k + 3)
		}
		return
	}
	d.sum[k], c = bits.Sub64(d.sum[k], p0, 0)
	d.sum[k+1], c = bits.Sub64(d.sum[k+1], p1, c)
	d.sum[k+2], c = bits.Sub64(d.sum[k+2], p2, c)
	if c != 0 {
		d.borrow(k + 3)
	}
}

// carry adds 1 to the sum at word k and ripples it up; a carry out of
// the top word is the two's-complement wrap of a sum crossing zero. It
// stays out of line: inlined, the rare ripple slows every Add.
func (d *Dist) carry(k uint) {
	for ; k < accWords; k++ {
		if d.sum[k]++; d.sum[k] != 0 {
			return
		}
	}
}

// borrow subtracts 1 from the sum at word k and ripples it up.
func (d *Dist) borrow(k uint) {
	for ; k < accWords; k++ {
		if d.sum[k]--; d.sum[k] != math.MaxUint64 {
			return
		}
	}
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

// Mean returns the arithmetic mean, or 0 when empty: the exact mean of
// the samples, correctly rounded (an infinite sample makes it that
// infinity, and both infinities make it NaN). The division is O(accWords),
// so Mean belongs on report paths, not per sample.
func (d *Dist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	if v, ok := d.infinite(); ok {
		return v
	}
	// Divide |sum| * 2^64 by n: the 64 extra fraction bits put the
	// rounding bit of every float64 result, subnormals included, inside
	// the quotient, and the remainder is the rest of the sticky bit.
	q, neg := d.scaledSum()
	var r uint64
	for i := len(q) - 1; i >= 0; i-- {
		q[i], r = bits.Div64(r, q[i], uint64(d.n))
	}
	return signed(roundQuotient(q[:], r != 0), neg)
}

// Sum returns the sum of the samples, or 0 when empty: the exact sum,
// correctly rounded once (a sum beyond the float64 range rounds to an
// infinity; infinite samples give Mean's special values).
func (d *Dist) Sum() float64 {
	if v, ok := d.infinite(); ok {
		return v
	}
	q, neg := d.scaledSum()
	return signed(roundQuotient(q[:], false), neg)
}

// infinite reports the value infinite samples force on Mean and Sum: an
// infinity, or NaN when both are present.
func (d *Dist) infinite() (float64, bool) {
	switch {
	case d.posInf > 0 && d.negInf > 0:
		return math.NaN(), true
	case d.posInf > 0:
		return math.Inf(1), true
	case d.negInf > 0:
		return math.Inf(-1), true
	}
	return 0, false
}

// scaledSum returns |sum| * 2^64, the scale roundQuotient reads, and
// whether the sum is negative.
func (d *Dist) scaledSum() (q [accWords + 1]uint64, neg bool) {
	copy(q[1:], d.sum[:])
	return q, negate(q[1:])
}

// signed gives m the sign neg says.
func signed(m float64, neg bool) float64 {
	if neg {
		return -m
	}
	return m
}

// negate makes x, a two's-complement integer, its magnitude, and reports
// whether it was negative.
func negate(x []uint64) bool {
	if x[len(x)-1]>>63 == 0 {
		return false
	}
	var c uint64 = 1
	for i := range x {
		x[i], c = bits.Add64(^x[i], 0, c)
	}
	return true
}

// roundQuotient returns x*2^(-1074-64) (Mean's quotient or Sum's scaled
// sum) correctly rounded to a float64 (ties to even); sticky marks a
// non-zero remainder below x's lowest bit.
func roundQuotient(x []uint64, sticky bool) float64 {
	top := len(x) - 1
	for top >= 0 && x[top] == 0 {
		top--
	}
	if top < 0 {
		return 0 // a zero sum
	}
	p := 64*top + bits.Len64(x[top]) - 1 // x's highest set bit
	// k is the lowest bit the float64 keeps: 53 bits down from p, or the
	// subnormal floor 2^-1074, bit 64.
	k := max(p-52, 64)
	m := x[k/64] >> (k % 64) // bits k..p; nothing is set above p
	if k/64+1 < len(x) {
		m |= x[k/64+1] << (64 - k%64)
	}
	half := x[(k-1)/64]>>((k-1)%64)&1 == 1
	for i := 0; i < (k-1)/64 && !sticky; i++ {
		sticky = x[i] != 0
	}
	sticky = sticky || x[(k-1)/64]&(1<<((k-1)%64)-1) != 0
	if half && (sticky || m&1 == 1) {
		m++
	}
	return math.Ldexp(float64(m), k-1074-64) // m <= 2^53: exact
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
// Buckets are a dense slice anchored at t = 0 (the simulator's clock
// never runs negative; a negative t panics), so Observe/Accumulate are
// O(1) and allocation-free once the horizon has been reached (or
// pre-sized with Reserve).
type Series struct {
	Width float64 // bucket width in seconds

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
// needed.
func (s *Series) slot(t float64) int {
	if t < 0 {
		panic("metrics: negative series time")
	}
	i := int(math.Floor(t / s.Width))
	if i >= len(s.sums) {
		s.grow(i + 1)
	}
	return i
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

// Reserve pre-sizes the bucket storage to cover [0, tMax], so subsequent
// Observe/Accumulate calls within the horizon never allocate.
func (s *Series) Reserve(tMax float64) {
	if i := int(math.Floor(tMax / s.Width)); i >= len(s.sums) {
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
		pts = append(pts, Point{Time: float64(i) * s.Width, Value: v})
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
