package simclock

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestClockOrdering(t *testing.T) {
	c := New()
	var got []int
	c.At(5, func() { got = append(got, 2) })
	c.At(1, func() { got = append(got, 0) })
	c.At(3, func() { got = append(got, 1) })
	for c.Step() {
	}
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 5 {
		t.Errorf("Now() = %v, want 5", c.Now())
	}
}

func TestClockFIFOAmongEqualTimes(t *testing.T) {
	c := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(7, func() { got = append(got, i) })
	}
	for c.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestClockAfterAndNesting(t *testing.T) {
	c := New()
	var fired []Time
	c.After(2, func() {
		fired = append(fired, c.Now())
		c.After(3, func() { fired = append(fired, c.Now()) })
	})
	for c.Step() {
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired = %v, want [2 5]", fired)
	}
}

func TestClockSchedulePastPanics(t *testing.T) {
	c := New()
	c.At(10, func() {})
	for c.Step() {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	c.At(5, func() {})
}

// TestClockAgendaAllocationFree: events live in the agenda by value, so
// once the backing array has grown, scheduling an already-bound callback
// and firing it allocate nothing.
func TestClockAgendaAllocationFree(t *testing.T) {
	c := New()
	var k counter
	fire := k.inc // method value bound once, as the engine binds its callbacks
	for i := 0; i < 64; i++ {
		c.After(Duration(i), fire)
	}
	for c.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.After(1, fire)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocates %v per event, want 0", allocs)
	}
	if k == 0 {
		t.Fatal("callback never fired")
	}
}

type counter int

func (k *counter) inc() { *k++ }

// TestClockOrderMatchesStableSort is the reference for the agenda heap:
// with times drawn from a small set (many ties) and callbacks scheduling
// nested events, the firing order must equal a stable sort of the
// scheduling log by time — (at, seq) order, FIFO among equal times.
func TestClockOrderMatchesStableSort(t *testing.T) {
	type entry struct {
		id int
		at Time
	}
	rng := NewRNG(17)
	c := New()
	var log []entry
	var fired []int
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		id := len(log)
		log = append(log, entry{id, at})
		c.At(at, func() {
			fired = append(fired, id)
			for depth < 3 && rng.Intn(3) > 0 {
				schedule(c.Now()+Time(rng.Intn(4)), depth+1)
			}
		})
	}
	for i := 0; i < 400; i++ {
		schedule(Time(rng.Intn(6)), 0)
	}
	for c.Step() {
	}
	want := slices.Clone(log)
	slices.SortStableFunc(want, func(a, b entry) int { return cmp.Compare(a.at, b.at) })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(fired), len(want))
	}
	for i, w := range want {
		if fired[i] != w.id {
			t.Fatalf("firing %d: event %d, want %d (stable sort of the scheduling log)", i, fired[i], w.id)
		}
	}
	if len(log) < 800 {
		t.Fatalf("only %d events scheduled: nesting too shallow to exercise the heap", len(log))
	}
}

func TestClockEvery(t *testing.T) {
	c := New()
	n := 0
	var cancel func()
	cancel = c.Every(10, func() {
		n++
		if n == 3 {
			cancel()
		}
	})
	c.RunUntil(100)
	if n != 3 {
		t.Fatalf("Every fired %d times, want 3", n)
	}
	if c.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", c.Now())
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	c := New()
	c.RunUntil(42)
	if c.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", c.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	cStream := NewRNG(124)
	same := 0
	a2 := NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == cStream.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values of 1000", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const rate = 2.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(8)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Norm var = %v, want ~4", variance)
	}
}

func TestRNGPickProportions(t *testing.T) {
	r := NewRNG(9)
	weights := []float64{1, 3, 6}
	counts := make([]int, 3)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[r.Pick(weights)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / 10
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Pick[%d] = %v, want ~%v", i, got, want)
		}
	}
}

func TestRNGPickZeroTotalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-weight Pick")
		}
	}()
	NewRNG(1).Pick([]float64{0, 0})
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 1; i < 50; i++ {
			v := r.Intn(i)
			if v < 0 || v >= i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(42)
	a := r.Split(1)
	b := r.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d identical of 1000", same)
	}
}

func TestStepsCount(t *testing.T) {
	c := New()
	for i := 0; i < 5; i++ {
		c.At(Time(i), func() {})
	}
	for c.Step() {
	}
	if c.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", c.Steps())
	}
}
