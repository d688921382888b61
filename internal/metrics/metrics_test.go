package metrics

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"

	"dynamollm/internal/simclock"
)

// relErr returns |got-want|/|want| (absolute error when want == 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// exactNearestRank is the reference implementation of Dist.Percentile's
// documented semantics: the sample at rank ceil(p/100*(n-1)).
func exactNearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n-1)))
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

func TestPercentileWithinErrorBound(t *testing.T) {
	d := NewDist()
	vals := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
		vals = append(vals, float64(i))
	}
	sort.Float64s(vals)
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		want := exactNearestRank(vals, p)
		if got := d.Percentile(p); relErr(got, want) > MaxRelativeError {
			t.Errorf("P%v = %v, want within %.2f%% of %v", p, got, MaxRelativeError*100, want)
		}
	}
	// The extremes are exact.
	if d.Percentile(0) != 1 || d.Percentile(100) != 100 {
		t.Errorf("P0/P100 = %v/%v, want exact 1/100", d.Percentile(0), d.Percentile(100))
	}
}

func TestPercentileEmpty(t *testing.T) {
	d := NewDist()
	if d.Percentile(50) != 0 || d.Mean() != 0 || d.Max() != 0 {
		t.Error("empty dist should return zeros")
	}
}

func TestPercentileSingle(t *testing.T) {
	d := NewDist()
	d.Add(42)
	for _, p := range []float64{0, 50, 99, 100} {
		if d.Percentile(p) != 42 {
			t.Errorf("P%v of single sample = %v, want 42", p, d.Percentile(p))
		}
	}
}

// Property: every percentile is within the documented relative-error bound
// of the exact nearest-rank value, monotone in p, and inside the sample
// range.
func TestPercentileAgainstReference(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := simclock.NewRNG(seed)
		count := int(n%200) + 2
		d := NewDist()
		vals := make([]float64, count)
		for i := range vals {
			// Span several orders of magnitude, like latencies and watts.
			vals[i] = math.Exp(r.Float64()*12 - 6)
			d.Add(vals[i])
		}
		sort.Float64s(vals)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 3.7 {
			got := d.Percentile(p)
			if got < prev-1e-12 {
				return false // not monotone in p
			}
			prev = got
			if got < vals[0]-1e-12 || got > vals[count-1]+1e-12 {
				return false // outside sample range
			}
			if relErr(got, exactNearestRank(vals, p)) > MaxRelativeError {
				return false // beyond the documented error bound
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLateInsertMovesMin(t *testing.T) {
	d := NewDist()
	d.Add(5)
	_ = d.Percentile(50)
	d.Add(1)
	if got := d.Percentile(0); got != 1 {
		t.Errorf("P0 after late insert = %v, want 1", got)
	}
}

func TestMeanMax(t *testing.T) {
	d := NewDist()
	for _, v := range []float64{2, 4, 9} {
		d.Add(v)
	}
	if d.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", d.Mean())
	}
	if d.Max() != 9 {
		t.Errorf("Max = %v, want 9", d.Max())
	}
	if d.N() != 3 {
		t.Errorf("N = %v, want 3", d.N())
	}
}

func TestZeroSamples(t *testing.T) {
	d := NewDist()
	d.Add(0)
	d.Add(0)
	d.Add(10)
	if d.Percentile(0) != 0 {
		t.Errorf("P0 = %v, want exact 0", d.Percentile(0))
	}
	if got := d.Percentile(10); got > 1e-8 {
		t.Errorf("P10 = %v, want ~0", got)
	}
	if d.Max() != 10 {
		t.Errorf("Max = %v, want 10", d.Max())
	}
}

// Dist.Add must not allocate: the tick loop calls it per request.
func TestDistAddAllocationFree(t *testing.T) {
	d := NewDist()
	v := 0.001
	if avg := testing.AllocsPerRun(1000, func() {
		d.Add(v)
		v *= 1.001
	}); avg != 0 {
		t.Errorf("Dist.Add allocates %v per op, want 0", avg)
	}
}

func TestSeriesAveraging(t *testing.T) {
	s := NewSeries(10)
	s.Observe(1, 100, 1)
	s.Observe(5, 200, 1)
	s.Observe(15, 50, 1)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].Time != 0 || pts[0].Value != 150 {
		t.Errorf("bucket 0 = %+v, want (0, 150)", pts[0])
	}
	if pts[1].Time != 10 || pts[1].Value != 50 {
		t.Errorf("bucket 1 = %+v, want (10, 50)", pts[1])
	}
}

func TestSeriesWeighted(t *testing.T) {
	s := NewSeries(10)
	s.Observe(0, 100, 3)
	s.Observe(0, 200, 1)
	if got := s.Points()[0].Value; got != 125 {
		t.Errorf("weighted avg = %v, want 125", got)
	}
	s.Observe(0, 999, 0) // zero weight ignored
	if got := s.Points()[0].Value; got != 125 {
		t.Errorf("zero weight changed avg to %v", got)
	}
}

func TestSeriesAccumulate(t *testing.T) {
	s := NewSeries(60)
	s.Accumulate(10, 5)
	s.Accumulate(20, 7)
	s.Accumulate(70, 1)
	pts := s.Points()
	if pts[0].Value != 12 || pts[1].Value != 1 {
		t.Errorf("accumulated = %v", pts)
	}
}

// Buckets only ever touched by Accumulate(t, 0) must still appear in
// Points (presence means "observed", even at value zero).
func TestSeriesAccumulateZeroMarksBucket(t *testing.T) {
	s := NewSeries(60)
	s.Accumulate(10, 0)
	pts := s.Points()
	if len(pts) != 1 || pts[0].Value != 0 {
		t.Errorf("points = %v, want one zero-valued bucket", pts)
	}
}

// Observations out of time order and gaps between buckets must both
// round-trip through Points in time order.
func TestSeriesOutOfOrderAndGaps(t *testing.T) {
	s := NewSeries(10)
	s.Observe(50, 5, 1)
	s.Observe(5, 1, 1)   // earlier than the first observation
	s.Observe(200, 2, 1) // far past it
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].Time != 0 || pts[0].Value != 1 ||
		pts[1].Time != 50 || pts[1].Value != 5 ||
		pts[2].Time != 200 || pts[2].Value != 2 {
		t.Errorf("points = %v", pts)
	}
}

// Series.Observe must not allocate once the horizon is reserved.
func TestSeriesObserveAllocationFree(t *testing.T) {
	s := NewSeries(60)
	s.Observe(0, 1, 1)
	s.Reserve(100 * 3600)
	tm := 0.0
	if avg := testing.AllocsPerRun(1000, func() {
		s.Observe(tm, 5, 1)
		s.Accumulate(tm, 1)
		tm += 300
	}); avg != 0 {
		t.Errorf("Series.Observe allocates %v per op after Reserve, want 0", avg)
	}
}

// The series is anchored at t = 0: a negative time is a caller bug.
func TestSeriesPanicsOnNegativeTime(t *testing.T) {
	for _, f := range []func(*Series){
		func(s *Series) { s.Observe(-1, 1, 1) },
		func(s *Series) { s.Accumulate(-0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on negative time")
				}
			}()
			s := NewSeries(10)
			s.Observe(5, 1, 1)
			f(s)
		}()
	}
}

func TestSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeries(0)
}

func TestTimeAvg(t *testing.T) {
	var a TimeAvg
	a.Set(0, 100)
	a.Set(10, 200) // 100 W for 10 s
	a.Set(30, 0)   // 200 W for 20 s
	a.Set(40, 50)  // 0 W for 10 s
	if math.Abs(a.Area()-5000) > 1e-9 {
		t.Errorf("area = %v, want 5000", a.Area())
	}
}

func TestTimeAvgNoSamples(t *testing.T) {
	var a TimeAvg
	a.Set(10, 100) // the first sample opens the signal: nothing accrues
	if got := a.Area(); got != 0 {
		t.Errorf("area after one sample = %v, want 0", got)
	}
}

func TestTimeAvgOutOfOrderIgnored(t *testing.T) {
	var a TimeAvg
	a.Set(10, 100)
	a.Set(5, 999) // earlier time: no area accrues, value replaces
	a.Set(15, 0)
	// From t=5 (last set) to 15: value 999 for 10s.
	if math.Abs(a.Area()-9990) > 1e-9 {
		t.Errorf("area = %v, want 9990", a.Area())
	}
}

// refBin is bin's definition: logBin clamped to [0, histBins-1], with
// every sample at or below histMin in bin 0. It panics (as the original
// per-sample code did) once v/histMin overflows, so callers stay below
// refBinMax.
func refBin(v float64) int {
	if v <= histMin {
		return 0
	}
	return min(logBin(v), histBins-1)
}

const refBinMax = 1e299

// checkBin fails the test on a sample whose table bin differs from its
// definition.
func checkBin(t *testing.T, v float64) {
	if got, want := bin(v), refBin(v); got != want {
		t.Fatalf("bin(%v [bits %#x]) = %d, logBin says %d", v, math.Float64bits(v), got, want)
	}
}

// The table-driven bin equals the logBin definition exactly. logBin is
// monotone and math.Log errs by under an ulp, so any disagreement would
// sit within a few ulps of a bin edge or at a table-cell boundary: both
// are swept, ±2000 ulps around every edge and ±2 around every cell start,
// plus log-uniform and random-bit samples over the whole range.
func TestBinMatchesLogBin(t *testing.T) {
	const span = 2000
	for b := 1; b < histBins; b++ {
		u := math.Float64bits(binLo[b])
		for d := -span; d <= span; d++ {
			checkBin(t, math.Float64frombits(u+uint64(d)))
		}
	}
	for k := range binStart {
		u := (idxBase + uint64(k)) << idxShift
		for d := -2; d <= 2; d++ {
			checkBin(t, math.Float64frombits(u+uint64(d)))
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	r := simclock.NewRNG(19)
	lo, hi := math.Log(1e-9), math.Log(8e9)
	for i := 0; i < n; i++ {
		checkBin(t, math.Exp(lo+r.Float64()*(hi-lo)))
	}
	for i := 0; i < n/2; i++ {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.Abs(v) >= refBinMax {
			continue
		}
		checkBin(t, v)
	}
}

// Samples the original per-sample formula could not bin: every value at
// or above the top bin's lower edge lands in the top bin, +Inf included;
// -Inf joins the other non-positive samples in bin 0.
func TestAddHugeAndInfinite(t *testing.T) {
	for _, v := range []float64{binLo[histBins-1], 1e12, 1.8e299, math.MaxFloat64, math.Inf(1)} {
		if got := bin(v); got != histBins-1 {
			t.Errorf("bin(%v) = %d, want top bin %d", v, got, histBins-1)
		}
	}
	if got := bin(math.Nextafter(binLo[histBins-1], 0)); got != histBins-2 {
		t.Errorf("just below the top edge: bin = %d, want %d", got, histBins-2)
	}
	for _, v := range []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, histMin} {
		if got := bin(v); got != 0 {
			t.Errorf("bin(%v) = %d, want 0", v, got)
		}
	}
	d := NewDist()
	d.Add(1)
	d.Add(math.Inf(1))
	if d.N() != 2 || !math.IsInf(d.Max(), 1) || d.counts[histBins-1] != 1 {
		t.Errorf("after Add(+Inf): n=%d max=%v top=%d", d.N(), d.Max(), d.counts[histBins-1])
	}
	if got := d.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
}

// A NaN sample panics with a clear message and leaves the Dist unchanged.
func TestAddNaNPanics(t *testing.T) {
	d := NewDist()
	d.Add(3)
	before := *d
	defer func() {
		if msg := recover(); msg != "metrics: NaN sample" {
			t.Errorf("recover() = %v, want the NaN-sample panic", msg)
		}
		if *d != before {
			t.Error("a NaN sample changed the Dist")
		}
	}()
	d.Add(math.NaN())
}

// AddN(v, n) leaves the same state as n calls of Add(v), sum and Mean
// bits included, whatever came before.
func TestAddNMatchesAdd(t *testing.T) {
	r := simclock.NewRNG(5)
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 1e-12, 0.1, 0.1 + 1e-17, 0.3, -2.5, 7, 1e10, math.MaxFloat64, math.Inf(1)}
	var bulk, single Dist
	for i := 0; i < 2000; i++ {
		v := vals[r.Intn(len(vals))]
		if r.Intn(3) == 0 {
			v = math.Exp(r.Float64()*20 - 10)
		}
		n := r.Intn(50)
		bulk.AddN(v, n)
		for range n {
			single.Add(v)
		}
		if bulk != single || math.Float64bits(bulk.Mean()) != math.Float64bits(single.Mean()) {
			t.Fatalf("step %d: AddN(%v, %d) diverged from %d Adds", i, v, n, n)
		}
	}
	bulk.AddN(1, -3)
	if bulk != single {
		t.Error("AddN with n < 0 changed the Dist")
	}
}

// mixedSample draws from the whole float64 line: signed zeros,
// subnormals, latency-like values, random finite bit patterns of either
// sign (up to MaxFloat64) and, when inf is set, the infinities.
func mixedSample(r *simclock.RNG, inf bool) float64 {
	switch k := r.Intn(8); {
	case k == 0:
		return math.Copysign(0, float64(r.Intn(2)*2-1))
	case k == 1:
		return math.Float64frombits(r.Uint64()&(1<<52-1) | r.Uint64()&(1<<63)) // subnormal
	case k == 2 && inf:
		return math.Inf(r.Intn(2)*2 - 1)
	case k <= 4:
		return math.Exp(r.Float64()*20 - 10)
	case k == 5:
		return -math.Exp(r.Float64()*20 - 10)
	}
	for {
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

// sumOf returns d's exact sum of finite samples as a big.Float.
func sumOf(d *Dist) *big.Float {
	var mag [accWords]uint64
	copy(mag[:], d.sum[:])
	neg := negate(mag[:])
	words := make([]big.Word, 0, 2*accWords)
	for _, w := range mag {
		if bits.UintSize == 32 {
			words = append(words, big.Word(w), big.Word(w>>32))
		} else {
			words = append(words, big.Word(w))
		}
	}
	z := new(big.Int).SetBits(words)
	if neg {
		z.Neg(z)
	}
	f := new(big.Float).SetPrec(4096).SetInt(z)
	return f.SetMantExp(f, -1074)
}

// The sum is exact and Mean is the exact mean correctly rounded: both
// equal a math/big reference on mixed input — signed zeros, subnormals,
// negatives, values up to MaxFloat64, infinities, repeat counts up to
// 2^31.
func TestSumAndMeanMatchBigFloat(t *testing.T) {
	r := simclock.NewRNG(23)
	for trial := 0; trial < 400; trial++ {
		var d Dist
		ref := new(big.Float).SetPrec(4096)
		var n int64
		var posInf, negInf bool
		inf := trial%4 == 0
		for i, count := 0, 1+r.Intn(40); i < count; i++ {
			v := mixedSample(r, inf)
			k := 1 + r.Intn(3)
			switch r.Intn(4) {
			case 0:
				k = 1 + r.Intn(1<<31)
			case 1:
				k = 1 << 31
			}
			d.AddN(v, k)
			n += int64(k)
			switch {
			case math.IsInf(v, 1):
				posInf = true
			case math.IsInf(v, -1):
				negInf = true
			default:
				ref.Add(ref, new(big.Float).SetPrec(4096).Mul(big.NewFloat(v), new(big.Float).SetInt64(int64(k))))
			}
		}
		if got := sumOf(&d); got.Cmp(ref) != 0 {
			t.Fatalf("trial %d: sum %v, want %v", trial, got, ref)
		}
		var want float64
		switch {
		case posInf && negInf:
			want = math.NaN()
		case posInf:
			want = math.Inf(1)
		case negInf:
			want = math.Inf(-1)
		default:
			want, _ = new(big.Float).SetPrec(4096).Quo(ref, new(big.Float).SetInt64(n)).Float64()
			if want == 0 {
				want = 0 // big.Float keeps the sign of a zero quotient; an exact zero sum is +0
			}
		}
		if got := d.Mean(); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: Mean = %v (%#x), want %v (%#x)", trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		wantSum := want
		if !posInf && !negInf {
			wantSum, _ = ref.Float64() // rounds to nearest even, past the range to ±Inf
			if wantSum == 0 {
				wantSum = 0
			}
		}
		if got := d.Sum(); math.Float64bits(got) != math.Float64bits(wantSum) && !(math.IsNaN(got) && math.IsNaN(wantSum)) {
			t.Fatalf("trial %d: Sum = %v (%#x), want %v (%#x)", trial, got, math.Float64bits(got), wantSum, math.Float64bits(wantSum))
		}
	}
}

// Sum's special values: the exact sum rounds once, so a sum past the
// float64 range is an infinity and a tie at the subnormal floor rounds
// to even, and infinite samples act as in Mean.
func TestSumSpecialValues(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{math.Copysign(0, -1)}, 0},
		{[]float64{-1, 1}, 0},
		{[]float64{0.1, 0.2}, 0.30000000000000004},
		{[]float64{1, 1e-16, 1e-16}, 1.0000000000000002}, // an ordered float sum gives 1
		{[]float64{-3, -5}, -8},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{[]float64{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
		{[]float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
		{[]float64{1, math.Inf(1)}, math.Inf(1)},
		{[]float64{1, math.Inf(-1)}, math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
	} {
		var d Dist
		for _, v := range tc.vals {
			d.Add(v)
		}
		got := d.Sum()
		if math.Float64bits(got) != math.Float64bits(tc.want) && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("Sum%v = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

// Mean's special values: an exact zero sum is +0 whatever the zeros'
// signs, an infinity wins over every finite sample, and both infinities
// give NaN.
func TestMeanSpecialValues(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{[]float64{-1, 1}, 0},
		{[]float64{-3, -5}, -4},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.MaxFloat64},
		{[]float64{5e-324, 5e-324, 5e-324, 0}, 5e-324}, // 0.75 ulp rounds up
		{[]float64{5e-324, 0}, 0},                      // a tie rounds to even
		{[]float64{1, math.Inf(1)}, math.Inf(1)},
		{[]float64{1, math.Inf(-1)}, math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
	} {
		var d Dist
		for _, v := range tc.vals {
			d.Add(v)
		}
		got := d.Mean()
		if math.Float64bits(got) != math.Float64bits(tc.want) && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("Mean%v = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

// merge folds src into dst word by word: the sum is an integer, so shards
// combine exactly.
func merge(dst, src *Dist) {
	if src.n == 0 {
		return
	}
	if dst.n == 0 || src.min < dst.min {
		dst.min = src.min
	}
	if dst.n == 0 || src.max > dst.max {
		dst.max = src.max
	}
	dst.n += src.n
	for b := range dst.counts {
		dst.counts[b] += src.counts[b]
	}
	var c uint64
	for i := range dst.sum {
		dst.sum[i], c = bits.Add64(dst.sum[i], src.sum[i], c)
	}
	dst.posInf += src.posInf
	dst.negInf += src.negInf
}

// perm returns a random permutation of [0, n).
func perm(r *simclock.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// A Dist does not depend on sample order: random permutations of one
// sample multiset, and random splits into shards merged back in another
// order, give == distributions with bit-identical Mean.
func TestDistOrderFree(t *testing.T) {
	r := simclock.NewRNG(29)
	for trial := 0; trial < 200; trial++ {
		type sample struct {
			v float64
			n int
		}
		inf := trial%5 == 0
		samples := make([]sample, 1+r.Intn(300))
		for i := range samples {
			samples[i] = sample{mixedSample(r, inf), 1 + r.Intn(4)}
			if r.Intn(4) == 0 {
				samples[i].v = math.Exp(r.Float64()*4 - 6) // latency-like
			}
		}
		var want Dist
		for _, s := range samples {
			want.AddN(s.v, s.n)
		}
		check := func(how string, got *Dist) {
			if *got != want || math.Float64bits(got.Mean()) != math.Float64bits(want.Mean()) {
				t.Fatalf("trial %d: %s gives a different Dist (mean %v vs %v)", trial, how, got.Mean(), want.Mean())
			}
		}

		var permuted Dist
		for _, i := range perm(r, len(samples)) {
			for range samples[i].n {
				permuted.Add(samples[i].v)
			}
		}
		check("a permutation", &permuted)

		shards := make([]Dist, 1+r.Intn(6))
		for _, i := range perm(r, len(samples)) {
			shards[r.Intn(len(shards))].AddN(samples[i].v, samples[i].n)
		}
		var merged Dist
		for _, i := range perm(r, len(shards)) {
			merge(&merged, &shards[i])
		}
		check("a split merged in another order", &merged)
	}
}

// BenchmarkDistAdd times one Add over log-spread latency-like values
// (10 µs .. 100 s).
func BenchmarkDistAdd(b *testing.B) {
	r := simclock.NewRNG(1)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Exp(math.Log(1e-5) + r.Float64()*math.Log(1e7))
	}
	d := NewDist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(vals[i&(len(vals)-1)])
	}
}

// BenchmarkDistAddN times one AddN over the same values at a repeat count
// of 1 (the fluid backend's per-completion Add) and 256 (a steady decode
// batch's one report per class and iteration).
func BenchmarkDistAddN(b *testing.B) {
	r := simclock.NewRNG(1)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Exp(math.Log(1e-5) + r.Float64()*math.Log(1e7))
	}
	for _, n := range []int{1, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := NewDist()
			for i := 0; i < b.N; i++ {
				d.AddN(vals[i&(len(vals)-1)], n)
			}
		})
	}
}
