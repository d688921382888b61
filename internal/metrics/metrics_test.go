package metrics

import (
	"math"
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

// Observations earlier than the anchor bucket and gaps between buckets
// must both round-trip through Points in time order.
func TestSeriesOutOfOrderAndGaps(t *testing.T) {
	s := NewSeries(10)
	s.Observe(50, 5, 1)
	s.Observe(5, 1, 1)   // before the anchor
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

// AddN(v, n) leaves the same state as n calls of Add(v), sum bits
// included, whatever came before.
func TestAddNMatchesAdd(t *testing.T) {
	r := simclock.NewRNG(5)
	vals := []float64{0, math.Copysign(0, -1), 1e-12, 0.1, 0.1 + 1e-17, 0.3, 7, 1e10, math.Inf(1)}
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
		if bulk != single || math.Float64bits(bulk.sum) != math.Float64bits(single.sum) {
			t.Fatalf("step %d: AddN(%v, %d) diverged from %d Adds", i, v, n, n)
		}
	}
	bulk.AddN(1, -3)
	if bulk != single {
		t.Error("AddN with n < 0 changed the Dist")
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
