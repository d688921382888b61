package simclock

import (
	"cmp"
	"fmt"
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
// once the backing arrays have grown, scheduling an already-bound callback
// and firing it allocate nothing — through the run alone, and through a
// warm agenda whose events alternate between the run and the heap and
// whose run compacts as it slides.
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

	// A standing agenda of 32 run events 8 apart: each pass appends one
	// more to the run's tail, pushes one behind it onto the heap, and
	// fires two, so the run slides and compacts at capacity.
	for i := 1; i <= 32; i++ {
		c.After(Duration(8*i), fire)
	}
	var heapPushes, compactions int
	pass := func() {
		head := c.head
		c.After(8*32, fire)
		if c.head == 0 && head > 0 {
			compactions++
		}
		h := len(c.heap)
		c.After(3, fire)
		if len(c.heap) > h {
			heapPushes++
		}
		c.Step()
		c.Step()
	}
	for i := 0; i < 200; i++ { // warm: grow both arrays to their peak
		pass()
	}
	heapPushes, compactions = 0, 0
	if allocs := testing.AllocsPerRun(1000, pass); allocs != 0 {
		t.Fatalf("a warm run+heap agenda allocates %v per pass, want 0", allocs)
	}
	if heapPushes == 0 {
		t.Fatal("no event went to the heap: the agenda never alternated")
	}
	if compactions == 0 {
		t.Fatal("the run never compacted")
	}
}

type counter int

func (k *counter) inc() { *k++ }

// checkStableOrder fails unless fired, the event ids in firing order,
// equals a stable sort by time of the scheduling log, where log[id] is
// the time event id was scheduled at: (at, seq) order, FIFO among equal
// times.
func checkStableOrder(t *testing.T, log []Time, fired []int) {
	t.Helper()
	want := make([]int, len(log))
	for id := range want {
		want[id] = id
	}
	slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(log[a], log[b]) })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(fired), len(want))
	}
	for i, id := range want {
		if fired[i] != id {
			t.Fatalf("firing %d: event %d, want %d (stable sort of the scheduling log)", i, fired[i], id)
		}
	}
}

// TestClockOrderMatchesStableSort is the reference for the agenda: with
// times drawn from a small set (many ties) and callbacks scheduling
// nested events, the firing order must equal a stable sort of the
// scheduling log by time.
func TestClockOrderMatchesStableSort(t *testing.T) {
	rng := NewRNG(17)
	c := New()
	var log []Time
	var fired []int
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		id := len(log)
		log = append(log, at)
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
	checkStableOrder(t, log, fired)
	if len(log) < 800 {
		t.Fatalf("only %d events scheduled: nesting too shallow to exercise the heap", len(log))
	}
}

// TestClockRunAndHeapMatchStableSort checks the two-queue agenda against
// the same reference over random schedules shaped to reach every path:
// events scheduled from callbacks, mostly at or after the run's tail (run
// appends that slide the run until it compacts at capacity) and sometimes
// behind it (heap pushes), on a coarse time grid so that equal instants
// land in both queues.
func TestClockRunAndHeapMatchStableSort(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed)
			c := New()
			var log []Time
			var fired []int
			var nested, heapPushes, splitTies, compactions int
			var schedule func(at Time)
			schedule = func(at Time) {
				id := len(log)
				log = append(log, at)
				h, head := len(c.heap), c.head
				c.At(at, func() {
					fired = append(fired, id)
					for n := rng.Intn(3); n > 0 && len(log) < 3000; n-- {
						nested++
						// Mostly ahead of the run's tail; one in four behind it.
						d := Time(rng.Intn(4))
						if rng.Intn(4) > 0 {
							d += 24
						}
						schedule(c.Now() + d)
					}
				})
				if len(c.heap) > h {
					heapPushes++
				}
				if c.head == 0 && head > 0 {
					compactions++
				}
			}
			for i := 0; i < 40; i++ {
				schedule(Time(rng.Intn(8)))
			}
			for {
				if c.head < len(c.run) && len(c.heap) > 0 && c.run[c.head].at == c.heap[0].at {
					splitTies++
				}
				if !c.Step() {
					break
				}
			}
			checkStableOrder(t, log, fired)
			if nested == 0 || heapPushes == 0 || splitTies == 0 || compactions == 0 {
				t.Fatalf("schedule missed a path: %d nested, %d heap pushes, %d run/heap ties, %d compactions",
					nested, heapPushes, splitTies, compactions)
			}
		})
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
	steps := 0
	for i := 0; i < 5; i++ {
		c.At(Time(i), func() { steps++ })
	}
	for c.Step() {
	}
	if steps != 5 {
		t.Fatalf("Step ran %d events, want 5", steps)
	}
}

// tickChain is a self-rescheduling event chain, the shape of an engine's
// iteration ends: each firing schedules the next a short step later,
// until the tick boundary.
type tickChain struct {
	c        *Clock
	step     Duration
	end      Time
	fire     func()
	fired    int
	arrivals counter
}

func (ch *tickChain) next() {
	ch.fired++
	if t := ch.c.Now() + Time(ch.step); t < ch.end {
		ch.c.At(t, ch.fire)
	}
}

// BenchmarkClockTick times the clock on an event-fidelity tick of one
// engine (ns/event; one op is one tick): the tick's 256 arrivals go onto
// the agenda up front in time order, as the cluster's deliver phase puts
// them, then the clock runs to the tick boundary while a chain of
// near-now events (iteration ends, one every 7 ms) fires between them.
func BenchmarkClockTick(b *testing.B) {
	const arrivals = 256
	c := New()
	ch := &tickChain{c: c, step: 0.007}
	ch.fire = ch.next
	arrive := ch.arrivals.inc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := c.Now()
		ch.end = base + 1
		for j := 0; j < arrivals; j++ {
			c.At(base+Time((float64(j)+0.5)/arrivals), arrive)
		}
		c.At(base, ch.fire)
		c.RunUntil(ch.end)
	}
	events := int(ch.arrivals) + ch.fired
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
