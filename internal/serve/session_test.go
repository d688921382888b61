package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/profile"
	"dynamollm/internal/scenario"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// fakeClock is an injectable wall clock so tests control virtual time
// deterministically (no sleeping, no pacer goroutine).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Shared profile repository: building the model profile is the expensive
// part and is identical for every test.
var (
	testRepoOnce sync.Once
	testRepo     *profile.Repository
)

func sharedRepo() *profile.Repository {
	testRepoOnce.Do(func() { testRepo = profile.NewRepository(nil) })
	return testRepo
}

// testTrace builds n arrivals spaced evenly, starting at `spacing`.
func testTrace(n int, spacing float64) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		tr[i] = trace.Entry{At: simclock.Time(float64(i+1) * spacing), InputTokens: 128, OutputTokens: 16}
	}
	return tr
}

// singlePool is the singlepool preset the session tests run: a fixed
// fleet, so runs stay small and comparable.
func singlePool() core.Options {
	opts, _ := core.SystemByName("singlepool")
	return opts
}

// testSession builds an unstarted session on a fake clock; tests drive it
// with clock.advance + session.Advance (or Stats, which advances).
func testSession(t *testing.T, f core.Fidelity, tr trace.Trace, loop bool, speed float64) (*Session, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	opts := singlePool()
	opts.Seed = 7
	opts.Fidelity = f
	s := New(Config{
		Name:      "singlepool",
		Opts:      opts,
		Trace:     tr,
		Speed:     speed,
		Loop:      loop,
		Repo:      sharedRepo(),
		WallClock: clock.now,
		Logf:      t.Logf,
	})
	return s, clock
}

// TestSessionIncremental pins the tentpole property at the session level:
// a query with no elapsed wall time advances zero ticks, and a query
// after dt advances exactly dt*speed worth of ticks — never the full
// history (the old dynamoserve re-simulated everything per query).
func TestSessionIncremental(t *testing.T) {
	s, clock := testSession(t, core.FidelityFluid, testTrace(10, 5), false, 60)
	if got := s.Advance(); got != 0 {
		t.Errorf("advance with no elapsed wall time ran %d ticks, want 0", got)
	}
	clock.advance(time.Second) // 60 virtual s = 12 ticks of 5 s
	if got := s.Advance(); got != 12 {
		t.Errorf("1 s wall at speed 60 ran %d ticks, want 12", got)
	}
	if got := s.Advance(); got != 0 {
		t.Errorf("repeat advance ran %d ticks, want 0", got)
	}
	clock.advance(500 * time.Millisecond) // 30 virtual s = 6 ticks
	if got := s.Advance(); got != 6 {
		t.Errorf("0.5 s wall ran %d ticks, want 6", got)
	}
}

// TestSessionFreshArrivalStamp is the stale-clock regression test: the
// old dynamoserve stamped injections with the virtual time of the *last*
// /stats call; the session must stamp them with the virtual time at
// receipt.
func TestSessionFreshArrivalStamp(t *testing.T) {
	s, clock := testSession(t, core.FidelityFluid, testTrace(10, 5), false, 60)
	clock.advance(10 * time.Second)
	s.Stats() // the old server's clock froze here, at virtual 600
	clock.advance(10 * time.Second)
	// No query in between: virtual now is 1200.
	acc, _, err := s.Inject(128, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if acc.At != 1200 {
		t.Errorf("injection stamped at virtual %v, want 1200 (virtual time at receipt)", acc.At)
	}
}

// TestSessionCompletion (event fidelity): an injected request resolves
// with streamed token events and a completion carrying real TTFT/TBT.
func TestSessionCompletion(t *testing.T) {
	s, clock := testSession(t, core.FidelityEvent, nil, false, 60)
	acc, w, err := s.Inject(128, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Tag == 0 || w == nil {
		t.Fatalf("wait injection returned tag %d, waiter %v", acc.Tag, w)
	}
	clock.advance(2 * time.Second) // 120 virtual s: plenty to serve 16 tokens
	s.Advance()

	var done Completion
	select {
	case done = <-w.Done:
	default:
		t.Fatal("no completion after advancing past the request's service time")
	}
	if done.Tag != acc.Tag || done.Squashed {
		t.Fatalf("completion %+v, want tag %d unsquashed", done, acc.Tag)
	}
	if done.TTFT <= 0 || done.TBT <= 0 {
		t.Errorf("completion lacks latencies: %+v", done)
	}
	tokens := 0
	for range w.Tokens {
		tokens++
	}
	if tokens != 16 {
		t.Errorf("received %d token events, want 16", tokens)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Inflight != 0 {
		t.Errorf("stats after completion: %+v", st)
	}
}

// TestSessionLoop: with Loop set, the base trace replays past its horizon
// so background load never dries up (the horizon-freeze bugfix).
func TestSessionLoop(t *testing.T) {
	base := testTrace(6, 10) // arrivals at 10..60, horizon 60
	s, clock := testSession(t, core.FidelityFluid, base, true, 60)
	clock.advance(5 * time.Second) // virtual 300 = 5 horizons
	s.Advance()
	st := s.Stats()
	if st.TraceLoops < 3 {
		t.Errorf("trace_loops = %d, want >= 3 after 5 horizons", st.TraceLoops)
	}
	if st.Requests < 3*len(base) {
		t.Errorf("requests = %d, want >= %d (looped base arrivals)", st.Requests, 3*len(base))
	}
	if st.HorizonReached {
		t.Error("looping session reported horizon_reached")
	}
}

// TestSessionHorizonReached: without Loop, the session keeps advancing
// past the base horizon (no frozen clock), reports the transition, and
// still accepts injections.
func TestSessionHorizonReached(t *testing.T) {
	base := testTrace(6, 10)
	s, clock := testSession(t, core.FidelityFluid, base, false, 60)
	clock.advance(5 * time.Second)
	s.Advance()
	st := s.Stats()
	if !st.HorizonReached {
		t.Error("horizon_reached not reported after passing the base horizon")
	}
	if st.VirtualSeconds < 295 {
		t.Errorf("virtual clock froze at %v, want ~300 (the old 3600-cap bug class)", st.VirtualSeconds)
	}
	if st.Requests != len(base) {
		t.Errorf("requests = %d, want exactly the %d base arrivals", st.Requests, len(base))
	}
	if _, _, err := s.Inject(128, 16, false); err != nil {
		t.Errorf("injection after horizon rejected: %v", err)
	}
}

// TestSessionEvents: live runtime events fire through the scenario
// timeline machinery into the tick hook.
func TestSessionEvents(t *testing.T) {
	s, clock := testSession(t, core.FidelityFluid, testTrace(20, 5), false, 60)
	clock.advance(time.Second)
	s.Advance()
	if _, err := s.InjectEvents([]scenario.Event{
		{Kind: scenario.Outage, Servers: 2},
		{Kind: scenario.Price, PriceMult: 3, DurationHours: 1},
	}); err != nil {
		t.Fatal(err)
	}
	clock.advance(time.Second)
	s.Advance()
	st := s.Stats()
	if st.Outages < 2 {
		t.Errorf("outages = %d, want >= 2 after the injected outage", st.Outages)
	}
	if st.PriceMult != 3 {
		t.Errorf("price_mult = %v, want 3 during the injected surge", st.PriceMult)
	}

	// Trace-level kinds cannot be injected live, and the error names
	// every kind that can.
	_, err := s.InjectEvents([]scenario.Event{{Kind: scenario.Spike, RateMult: 2, DurationHours: 1}})
	if err == nil {
		t.Fatal("spike event accepted for live injection")
	}
	for _, k := range scenario.RuntimeKinds {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("rejection %q does not name runtime kind %s", err, k)
		}
	}
	// Invalid runtime events are rejected whole.
	if _, err := s.InjectEvents([]scenario.Event{{Kind: scenario.Outage}}); err == nil {
		t.Error("outage without servers accepted")
	}
}

// TestSessionCloseDrains: Close serves pending injected arrivals, drains
// the engines, resolves every waiter, and rejects further work.
func TestSessionCloseDrains(t *testing.T) {
	s, clock := testSession(t, core.FidelityEvent, nil, false, 60)
	clock.advance(time.Second)
	_, w, err := s.Inject(128, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	// Close immediately: the arrival is still pending in the trace.
	_, drained := s.Close()
	if drained != 1 {
		t.Errorf("drained = %d, want 1", drained)
	}
	select {
	case done := <-w.Done:
		if done.Squashed {
			t.Errorf("drained request reported squashed: %+v (engines should run it to completion)", done)
		}
	default:
		t.Fatal("waiter unresolved after Close")
	}
	if _, _, err := s.Inject(128, 16, false); err == nil {
		t.Error("injection accepted after Close")
	}
	// Idempotent.
	if _, d := s.Close(); d != 0 {
		t.Errorf("second Close drained %d", d)
	}
}

// TestSessionWindowsCompose: price and SLO windows posted in separate
// /events calls compose exactly like windows inside one scenario — when a
// later-posted window ends, the earlier still-open window's value is
// restored (not clobbered to 1), and only after every window closes does
// the value return to nominal.
func TestSessionWindowsCompose(t *testing.T) {
	cases := []struct {
		kind  scenario.Kind
		event func(val, hours float64) scenario.Event
		read  func(Stats) float64
	}{
		{scenario.Price,
			func(v, h float64) scenario.Event {
				return scenario.Event{Kind: scenario.Price, PriceMult: v, DurationHours: h}
			},
			func(st Stats) float64 { return st.PriceMult }},
		{scenario.SLO,
			func(v, h float64) scenario.Event {
				return scenario.Event{Kind: scenario.SLO, SLOFactor: v, DurationHours: h}
			},
			func(st Stats) float64 { return st.SLOFactor }},
	}
	for _, tc := range cases {
		// speed 3600: one wall second is one virtual hour.
		s, clock := testSession(t, core.FidelityFluid, testTrace(10, 5), false, 3600)
		if _, err := s.InjectEvents([]scenario.Event{tc.event(5, 2)}); err != nil {
			t.Fatal(err)
		}
		clock.advance(500 * time.Millisecond) // t = 0.5 h
		s.Advance()
		if _, err := s.InjectEvents([]scenario.Event{tc.event(3, 0.5)}); err != nil {
			t.Fatal(err)
		}
		clock.advance(100 * time.Millisecond) // t = 0.6 h: both open, B started later
		if got := tc.read(s.Stats()); got != 3 {
			t.Errorf("%s at 0.6 h = %v, want 3 (most recently started window)", tc.kind, got)
		}
		clock.advance(600 * time.Millisecond) // t = 1.2 h: B ended, A still open
		if got := tc.read(s.Stats()); got != 5 {
			t.Errorf("%s at 1.2 h = %v, want 5 (A must survive B's end)", tc.kind, got)
		}
		clock.advance(1100 * time.Millisecond) // t = 2.3 h: all windows closed
		if got := tc.read(s.Stats()); got != 1 {
			t.Errorf("%s at 2.3 h = %v, want 1 (nominal after the last window)", tc.kind, got)
		}
	}
}

// TestSessionLoopWarmLoad: a looping session with no caller-supplied warm
// curve warms the predictor on the base trace's own template, wrapped at
// the replay period — expected load past the first horizon must match the
// first window, never drop to zero.
func TestSessionLoopWarmLoad(t *testing.T) {
	base := testTrace(6, 10)
	s, _ := testSession(t, core.FidelityFluid, base, true, 60)
	warm := s.live.Options().WarmLoad
	if warm == nil {
		t.Fatal("looping session left WarmLoad nil")
	}
	cls := workload.Classify(128, 16)
	first := warm(5, cls)
	if first <= 0 {
		t.Fatalf("warm curve is zero inside the base window")
	}
	if wrapped := warm(5+base.End(), cls); wrapped != first {
		t.Errorf("warm(t+period) = %v, want %v (curve must wrap at the replay period)", wrapped, first)
	}
}
