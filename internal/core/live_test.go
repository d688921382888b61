package core

import (
	"math"
	"testing"

	"dynamollm/internal/metrics"
	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// resultFingerprint captures the fields two runs must agree on to count
// as identical simulations. Class pins the event backend's per-class
// TTFT (Class[0]) and TBT (Class[1]) distributions, which only /metrics
// reports otherwise.
type resultFingerprint struct {
	Requests, Squashed, Completed, SLOMet int
	Reshards, ScaleOuts, Emergencies      int
	EnergyJ                               float64
	TTFTP99, TBTP99                       float64
	GPUSeconds                            float64
	Class                                 [2][workload.NumClasses]distFingerprint
}

// distFingerprint summarizes one distribution; MeanBits tells sums that
// differ only in rounding apart.
type distFingerprint struct {
	N             int
	MeanBits      uint64
	P50, P99, Max float64
}

func fingerprintDist(d *metrics.Dist) distFingerprint {
	if d == nil {
		return distFingerprint{}
	}
	return distFingerprint{N: d.N(), MeanBits: math.Float64bits(d.Mean()), P50: d.Percentile(50), P99: d.Percentile(99), Max: d.Max()}
}

func fingerprint(res *Result) resultFingerprint {
	fp := resultFingerprint{
		Requests: res.Requests, Squashed: res.Squashed,
		Completed: res.Completed, SLOMet: res.SLOMet,
		Reshards: res.Reshards, ScaleOuts: res.ScaleOuts,
		Emergencies: res.Emergencies,
		EnergyJ:     res.EnergyJ,
		TTFTP99:     res.TTFT.Percentile(99),
		TBTP99:      res.TBT.Percentile(99),
		GPUSeconds:  res.GPUSeconds,
	}
	for c := range workload.NumClasses {
		fp.Class[0][c] = fingerprintDist(res.ClassTTFT[c])
		fp.Class[1][c] = fingerprintDist(res.ClassTBT[c])
	}
	return fp
}

// liveOpts are options whose provisioning pre-pass does not depend on the
// trace contents (SinglePool provisions a fixed fleet), so a Live run seeded
// from a partial base trace plus injections is comparable to a batch run on
// the pre-merged trace. WarmLoad is pinned for the same reason.
func liveOpts(f Fidelity) Options {
	opts := preset("singlepool")
	opts.Seed = 7
	opts.Fidelity = f
	opts.WarmLoad = warmConv
	return opts
}

// TestLiveMatchesRun: driving the tick loop incrementally through Live, in
// ragged advance steps, produces the identical Result as the one-shot
// RunWithRepo on the same trace — under both fidelity backends.
func TestLiveMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, _ := fixtures(t)
	tr := trace.OpenSourceHour(6, 11).Window(0, simclock.Time(10*simclock.Minute))
	for _, f := range []Fidelity{FidelityFluid, FidelityEvent} {
		batch := RunWithRepo(tr, liveOpts(f), r)

		live := NewLive(tr, liveOpts(f), r)
		// Ragged increments: some smaller than a tick (no-ops), some
		// spanning many ticks.
		for at := simclock.Time(0); at < simclock.Time(10*simclock.Minute); at += 37 {
			live.AdvanceTo(at)
		}
		live.AdvanceTo(simclock.Time(10 * simclock.Minute))
		res := live.Finish()

		if got, want := fingerprint(res), fingerprint(batch); got != want {
			t.Errorf("fidelity %v: live != batch:\n live  %+v\n batch %+v", f, got, want)
		}
	}
}

// TestLiveInjectSorted is the unsorted-injection regression test: a request
// injected with an earlier timestamp than pending base entries must land in
// time order, so the run is identical to a batch run over the pre-sorted
// merged trace. (The old dynamoserve appended injections after the base
// trace, violating the trace.Trace time-ordering contract.)
func TestLiveInjectSorted(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, _ := fixtures(t)
	base := trace.OpenSourceHour(6, 11).Window(0, simclock.Time(10*simclock.Minute))
	inject := trace.Entry{At: simclock.Time(2 * simclock.Minute), InputTokens: 512, OutputTokens: 187}

	// Batch reference: merged trace, properly sorted.
	merged := make(trace.Trace, 0, len(base)+1)
	for _, e := range base {
		if e.At <= inject.At {
			merged = append(merged, e)
		}
	}
	merged = append(merged, inject)
	for _, e := range base {
		if e.At > inject.At {
			merged = append(merged, e)
		}
	}
	batch := RunWithRepo(merged, liveOpts(FidelityFluid), r)

	// Live: advance a minute, then inject the entry timestamped at 2 min —
	// earlier than most pending base entries.
	live := NewLive(base, liveOpts(FidelityFluid), r)
	live.AdvanceTo(simclock.Time(simclock.Minute))
	at, err := live.Inject(inject)
	if err != nil {
		t.Fatal(err)
	}
	if at != inject.At {
		t.Fatalf("inject clamped %v to %v with boundary %v", inject.At, at, live.Boundary())
	}
	live.AdvanceTo(simclock.Time(10 * simclock.Minute))
	res := live.Finish()

	if got, want := fingerprint(res), fingerprint(batch); got != want {
		t.Errorf("live with sorted injection != pre-merged batch:\n live  %+v\n batch %+v", got, want)
	}
}

// TestLiveInjectClampsPast: an entry timestamped before the boundary is
// clamped to it instead of rewriting served history.
func TestLiveInjectClampsPast(t *testing.T) {
	r, _ := fixtures(t)
	live := NewLive(nil, liveOpts(FidelityFluid), r)
	live.AdvanceTo(100)
	at, err := live.Inject(trace.Entry{At: 3, InputTokens: 10, OutputTokens: 10})
	if err != nil {
		t.Fatal(err)
	}
	if at != live.Boundary() {
		t.Errorf("past injection arrived at %v, want boundary %v", at, live.Boundary())
	}
	live.Finish()
	if _, err := live.Inject(trace.Entry{At: 0, InputTokens: 1, OutputTokens: 1}); err == nil {
		t.Error("inject after Finish accepted")
	}
}

// TestLiveAdvanceCost pins the incremental contract: each AdvanceTo runs
// exactly the whole ticks inside the elapsed delta — independent of how
// long the session has been running — and re-advancing to the same target
// runs zero ticks. This is the property the old dynamoserve lacked (it
// re-simulated the full history on every query).
func TestLiveAdvanceCost(t *testing.T) {
	r, _ := fixtures(t)
	opts := liveOpts(FidelityFluid)
	live := NewLive(nil, opts, r)
	tick := live.TickSeconds()

	boundary := 0.0
	for _, target := range []float64{12, 300, 301, 3600, 3600, 7200} {
		want := int(target/tick) - int(boundary/tick)
		if got := live.AdvanceTo(simclock.Time(target)); got != want {
			t.Errorf("AdvanceTo(%v) from boundary %v ran %d ticks, want %d", target, boundary, got, want)
		}
		boundary = float64(live.Boundary())
	}
	if got := live.AdvanceTo(live.Boundary()); got != 0 {
		t.Errorf("re-advancing to the boundary ran %d ticks, want 0", got)
	}
}

// tokenObserver counts observer callbacks for the event-fidelity test.
type tokenObserver struct {
	tokens int
	done   []uint64
	ttft   float64
}

func (o *tokenObserver) RequestToken(req *workload.Request, produced int, now simclock.Time) {
	o.tokens++
}

func (o *tokenObserver) RequestDone(req *workload.Request, ttft, tbt float64, met bool) {
	if req.Tag != 0 {
		o.done = append(o.done, req.Tag)
		o.ttft = ttft
	}
}

// TestLiveObserverEvent: a tagged injected request under the event backend
// streams per-token events and reports exactly one terminal completion
// with a real TTFT.
func TestLiveObserverEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, _ := fixtures(t)
	obs := &tokenObserver{}
	opts := liveOpts(FidelityEvent)
	opts.Observer = obs
	live := NewLive(nil, opts, r)
	live.AdvanceTo(30)
	if _, err := live.Inject(trace.Entry{At: 31, Tag: 99, InputTokens: 128, OutputTokens: 16}); err != nil {
		t.Fatal(err)
	}
	live.AdvanceTo(simclock.Time(5 * simclock.Minute))
	live.Finish()

	if len(obs.done) != 1 || obs.done[0] != 99 {
		t.Fatalf("terminal notifications = %v, want exactly [99]", obs.done)
	}
	if obs.tokens != 16 {
		t.Errorf("token events = %d, want 16 (one per output token)", obs.tokens)
	}
	if obs.ttft <= 0 {
		t.Errorf("completion TTFT = %v, want > 0", obs.ttft)
	}
}

// BenchmarkLiveAdvanceTick measures the steady per-tick advance cost of a
// live session under load; because AdvanceTo never revisits history, this
// cost is flat no matter how old the session is.
func BenchmarkLiveAdvanceTick(b *testing.B) {
	tr := trace.OpenSourceHour(testPeakRPS, 11)
	live := NewLive(tr, liveOpts(FidelityFluid), profile.NewRepository(nil))
	tick := live.TickSeconds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live.AdvanceTo(simclock.Time(float64(i+1) * tick))
	}
}

// TestLiveLoopReplaysByIndex: a looping Live replays its base trace by
// index. Over 20 passes it serves the caller's slice itself (never a
// copy, never grown), every pass serves all n entries, and steady ticks
// allocate nothing, pass boundaries included.
func TestLiveLoopReplaysByIndex(t *testing.T) {
	r, _ := fixtures(t)
	base := make(trace.Trace, 50)
	for i := range base {
		base[i] = trace.Entry{At: simclock.Time(10 + i), InputTokens: 64, OutputTokens: 8}
	}
	live := NewLoopingLive(base, liveOpts(FidelityFluid), r)
	tick := simclock.Time(live.TickSeconds())
	period := base.End()
	for k := 1; k <= 20; k++ {
		// One tick past pass k-1's last arrival, and before pass k's
		// first (10 s later).
		live.AdvanceTo(simclock.Time(k)*period + tick)
		if len(live.sm.tr) != len(base) || &live.sm.tr[0] != &base[0] {
			t.Fatalf("pass %d: the Live holds %d entries at %p, want the caller's %d at %p",
				k, len(live.sm.tr), &live.sm.tr[0], len(base), &base[0])
		}
		if got := live.Loops(); got != k {
			t.Fatalf("pass %d: Loops() = %d", k, got)
		}
		if got, want := live.Result().Requests, k*len(base); got != want {
			t.Fatalf("pass %d: served %d requests, want %d", k, got, want)
		}
	}
	// The per-minute result series grow with uptime; 250 ticks in, their
	// capacity covers the measured passes. Each run spans a whole period,
	// so even one allocation per pass shows.
	live.AdvanceTo(250 * tick)
	before := live.Loops()
	if avg := testing.AllocsPerRun(5, func() { live.AdvanceTo(live.Boundary() + period) }); avg != 0 {
		t.Errorf("a looping pass allocates %v, want 0", avg)
	}
	if got := live.Loops() - before; got < 5 {
		t.Errorf("measured runs crossed %d pass boundaries, want >= 5", got)
	}
}

// TestLiveInjectQueueCompacts: under sustained injection the queue is
// essentially never empty (the trailing partial tick always holds an
// arrival), so the consumed prefix must be reclaimed incrementally, not
// only on full drain.
func TestLiveInjectQueueCompacts(t *testing.T) {
	r, _ := fixtures(t)
	live := NewLive(nil, liveOpts(FidelityFluid), r)
	for k := 0; k < 2000; k++ {
		at := simclock.Time(float64(k) + 0.5)
		if _, err := live.Inject(trace.Entry{At: at, InputTokens: 64, OutputTokens: 8}); err != nil {
			t.Fatal(err)
		}
		// The boundary always trails the newest arrival, so the queue
		// never fully drains.
		live.AdvanceTo(simclock.Time(float64(k)))
	}
	if n := len(live.sm.injected); n > 256 {
		t.Errorf("injection queue holds %d slots after 2000 consumed injections, want <= 256 (prefix must be reclaimed)", n)
	}
	if got := live.Result().Requests; got < 1900 {
		t.Errorf("served %d of 2000 injected requests", got)
	}
}
