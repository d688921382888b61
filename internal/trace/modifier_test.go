package trace

import (
	"testing"

	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

func testTrace(t *testing.T) Trace {
	t.Helper()
	return Generate(GenConfig{
		Service:  Conversation,
		Start:    OpenSourceHourStart,
		Duration: simclock.Hour,
		PeakRPS:  20,
		Seed:     7,
	})
}

func countWindow(tr Trace, from, to simclock.Time) int {
	n := 0
	for _, e := range tr {
		if e.At >= from && e.At < to {
			n++
		}
	}
	return n
}

func TestAmplifyWindowScalesRate(t *testing.T) {
	tr := testTrace(t)
	from, to := simclock.Time(600), simclock.Time(1800)
	before := countWindow(tr, from, to)

	up := AmplifyWindow(from, to, 3, 42)(tr)
	after := countWindow(up, from, to)
	if ratio := float64(after) / float64(before); ratio < 2.6 || ratio > 3.4 {
		t.Errorf("amplify x3: window count %d -> %d (ratio %.2f), want ~3x", before, after, ratio)
	}
	// Outside the window nothing changes.
	if got, want := countWindow(up, 0, from), countWindow(tr, 0, from); got != want {
		t.Errorf("pre-window count changed: %d != %d", got, want)
	}
	// Output stays time-ordered.
	for i := 1; i < len(up); i++ {
		if up[i].At < up[i-1].At {
			t.Fatalf("amplified trace out of order at %d", i)
		}
	}

	down := AmplifyWindow(from, to, 0.25, 42)(tr)
	after = countWindow(down, from, to)
	if ratio := float64(after) / float64(before); ratio < 0.15 || ratio > 0.35 {
		t.Errorf("thin x0.25: window count %d -> %d (ratio %.2f), want ~0.25x", before, after, ratio)
	}
}

func TestAmplifyWindowIdentity(t *testing.T) {
	tr := testTrace(t)
	if got := AmplifyWindow(0, 3600, 1, 42)(tr); len(got) != len(tr) {
		t.Errorf("mult=1 changed the trace: %d -> %d entries", len(tr), len(got))
	}
}

func TestAmplifyWindowDeterministic(t *testing.T) {
	tr := testTrace(t)
	a := AmplifyWindow(600, 1800, 2.5, 99)(tr)
	b := AmplifyWindow(600, 1800, 2.5, 99)(tr)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestShiftMixWindow(t *testing.T) {
	tr := testTrace(t)
	var weights [workload.NumClasses]float64
	weights[workload.LL] = 1 // every re-drawn request becomes LL

	from, to := simclock.Time(0), simclock.Time(3600)
	shifted := ShiftMixWindow(from, to, weights, 0.8, 5)(tr)
	if len(shifted) != len(tr) {
		t.Fatalf("mix shift changed the request count: %d -> %d", len(tr), len(shifted))
	}
	ll := 0
	for _, e := range shifted {
		if e.Class() == workload.LL {
			ll++
		}
	}
	share := float64(ll) / float64(len(shifted))
	if share < 0.7 {
		t.Errorf("LL share after 80%% shift = %.2f, want >= 0.7", share)
	}
	// Arrival times are untouched.
	for i := range shifted {
		if shifted[i].At != tr[i].At {
			t.Fatalf("mix shift moved arrival %d", i)
		}
	}
	// The input trace itself is unchanged (no aliasing).
	orig := testTrace(t)
	for i := range tr {
		if tr[i] != orig[i] {
			t.Fatalf("ShiftMixWindow mutated its input at %d", i)
		}
	}
}

func TestComposeOrder(t *testing.T) {
	tr := testTrace(t)
	mod := Compose(
		AmplifyWindow(600, 1800, 2, 1),
		AmplifyWindow(600, 1800, 0.5, 2),
	)
	got := mod(tr)
	// 2x then 0.5x is ~1x on expectation; mostly this asserts the chain
	// runs left to right without panicking and stays ordered.
	if len(got) == 0 {
		t.Fatal("composed modifier emptied the trace")
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("composed trace out of order at %d", i)
		}
	}
	if id := Compose(); len(id(tr)) != len(tr) {
		t.Error("empty Compose is not identity")
	}
}
