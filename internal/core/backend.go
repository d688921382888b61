package core

import (
	"math"

	"dynamollm/internal/engine"
	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/order"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// InstanceBackend is the instance service model behind the cluster
// simulation. The controllers (cluster manager, pool managers, instance
// managers) and the router are backend-agnostic: they read the same load
// signals (rate EWMAs, capacity, backlog) whichever backend is installed,
// and the backend decides how an instance actually serves its work — the
// closed-form fluid model (fluidBackend, Options.Fidelity=FidelityFluid)
// or one event-level engine per instance, each on a private virtual clock
// that only a disaggregated pool group shares (eventBackend,
// FidelityEvent).
//
// Call protocol, per tick: Admit for every routed request, then RunTo once
// at the end of routing, then Advance once per live instance. Retire fires
// when an instance is parked stateOff (graceful scale-in/re-shard surplus
// vs. abrupt outage), Reconfigure when applyReshard changes its TP degree,
// and Finish once after the last tick.
type InstanceBackend interface {
	// Admit registers one routed request on the instance for this tick.
	Admit(in *Instance, req *workload.Request, now simclock.Time)
	// RunTo advances backend-internal time to the end of the current
	// tick, after routing and before per-instance accounting.
	RunTo(tickEnd simclock.Time)
	// Advance closes one tick for a live instance — service dynamics,
	// backlog signal, latency accounting — and returns the instance's
	// average power draw over the tick in watts.
	Advance(in *Instance, a *assign, now simclock.Time) float64
	// Retire handles an instance leaving service (already stateOff).
	// Graceful departures may migrate in-flight work; outage victims'
	// requests go to the frontend retry path (simulation.frontendFail),
	// which re-routes them after a backoff or terminally squashes them
	// once the retry budget is spent.
	Retire(in *Instance, now simclock.Time, graceful bool)
	// Reconfigure reacts to a TP/transition change applied by the
	// re-sharding planner.
	Reconfigure(in *Instance, now simclock.Time)
	// Finish closes the run after the last tick: it drains in-flight
	// work and settles energy at the horizon. The event backend drains
	// one engine at a time, serially, so its buffers stay bounded by one
	// clock event's output (one pool group's under disaggregation).
	Finish(end simclock.Time)
}

// newBackend builds the backend the run's options select.
func newBackend(sm *simulation) InstanceBackend {
	if sm.opts.Fidelity == FidelityEvent {
		return &eventBackend{sm: sm}
	}
	return &fluidBackend{sm: sm}
}

// --- Fluid backend ----------------------------------------------------------------

// fluidBackend is the extracted closed-form path: each instance's tick is
// evaluated at its bucketed steady-state operating point (perfmodel.Steady)
// and latencies are sampled analytically. It is behaviour-preserving with
// respect to the pre-refactor tick loop: same arithmetic, same RNG draw
// order, zero allocations per steady-state tick.
type fluidBackend struct {
	sm *simulation
}

func (b *fluidBackend) Admit(*Instance, *workload.Request, simclock.Time) {}

func (b *fluidBackend) RunTo(simclock.Time) {}

func (b *fluidBackend) Advance(in *Instance, a *assign, now simclock.Time) float64 {
	sm := b.sm

	// Steady state for this tick.
	st := sm.instanceSteady(in)

	// Backlog dynamics: demand beyond capacity queues.
	cap := in.capacity(sm)
	if in.rate > cap {
		in.backlog += (in.rate - cap) * sm.opts.Tick
	} else if in.backlog > 0 {
		drain := (cap - in.rate) * sm.opts.Tick
		in.backlog = math.Max(0, in.backlog-drain)
	}

	watts := st.Power
	if in.state == stateProvisioning {
		watts = gpu.H100.IdlePower * float64(in.TP.GPUs())
	}

	// Latency samples for requests assigned this tick.
	if a != nil {
		sm.sampleLatencies(in, st, a.reqs)
	}
	return watts
}

func (b *fluidBackend) Retire(in *Instance, now simclock.Time, graceful bool) {
	// An abrupt outage drops the instance's queued work; planned
	// departures drain it through the ordinary rate dynamics. Fluid
	// backlog is load, not request identity (those requests already
	// completed in their arrival tick), so the loss is SquashedLoad —
	// request-level retry happens only where requests exist, in the event
	// backend and the router's no-capacity path.
	if graceful {
		return
	}
	if in.backlog > 0 {
		b.sm.res.SquashedLoad += in.backlog
		in.backlog = 0
	}
}

func (b *fluidBackend) Reconfigure(*Instance, simclock.Time) {}

func (b *fluidBackend) Finish(simclock.Time) {}

// --- Event backend ----------------------------------------------------------------

// eventBackend runs every instance on its own event-level engine, each on
// a PRIVATE virtual clock. Between controller decisions the engines are
// independent — they never schedule events on each other — so RunTo fans
// their stepping across a bounded worker pool (Options.StepJobs) and then
// merges per-engine results serially in instance-ID order. The output is
// byte-identical for every StepJobs value: each engine's event sequence is
// deterministic on its own clock, and everything shared (Result, the
// observer) is written only in the serial delivery and merge phases.
//
// Requests are submitted at their true arrival instants; queueing,
// batching, KV admission, and tail latencies emerge from the engine
// instead of being sampled from the fluid formulas. Energy is the engine
// meters' integral; per-class token-level TTFT/TBT land in
// Result.ClassTTFT/ClassTBT.
type eventBackend struct {
	sm *simulation

	// now is the backend's time: the end of the last RunTo (every live
	// engine clock stands exactly here between ticks).
	now simclock.Time

	// engines is dense by Instance.ID (IDs are handed out sequentially
	// and never reused).
	engines []*instEngine
	// pending holds scheduled submissions not yet delivered to an engine,
	// in scheduling order. Delivery happens serially at the top of each
	// RunTo for everything due this tick; instance liveness is resolved at
	// delivery, which is equivalent to the old shared-clock fire-time
	// resolution because instance state only changes in the serial
	// controller phases between RunTo calls.
	pending []pendingSub
	// groupClocks are the per-base-pool shared clocks used under
	// disaggregation: a prefill instance and its decode twins must share
	// one clock so the KV handoff can schedule the decode-side submission
	// mid-tick without cross-clock coordination. Indexed by base pool
	// (in.Pool % NumPools); nil entries are groups never touched. Empty
	// when Disagg is off — every engine then keeps its private clock,
	// which is what makes the non-disagg event path byte-identical to
	// earlier builds.
	groupClocks []*simclock.Clock
	// stepClocks is the reusable scratch listing the distinct clocks the
	// stepping pool drives this tick (one per engine normally, one per
	// pool group under disaggregation).
	stepClocks []*simclock.Clock
	// scratch is drain's reusable output buffer.
	scratch []workload.Request
}

// kvTransfer is one in-flight prefill-to-decode KV handoff: the request,
// its prefilled context, and the instant the modeled transfer completes.
// Tracked on the receiving engine so retirement can fail unfinished
// transfers over to the frontend; done entries are compacted each tick.
type kvTransfer struct {
	at   simclock.Time
	req  workload.Request
	ctx  int
	done bool
}

// KV-transfer cost model: a fixed setup latency (connection, metadata)
// plus the prefilled KV bytes over an inter-node interconnect.
const (
	kvTransferSetupSeconds = 0.002
	kvTransferBytesPerSec  = 50e9
)

// KV spill-tier parameters (kvConfig): the cpu tier is host memory
// over PCIe Gen5 (~25 GB/s) sized a few times the GPU's unscaled KV
// capacity; the ssd tier is NVMe (~5 GB/s) with a far larger pool.
const (
	kvTierCPUBytesPerSec = 25e9
	kvTierSSDBytesPerSec = 5e9
	kvTierCPUFactor      = 4.0
	kvTierSSDFactor      = 32.0
)

// kvTransferSeconds models moving ctx tokens of KV cache between a
// prefill and a decode instance.
func kvTransferSeconds(m *model.Model, ctx int) float64 {
	return kvTransferSetupSeconds + float64(ctx)*m.KVBytesPerToken/kvTransferBytesPerSec
}

// pendingSub is one scheduled request submission awaiting delivery.
type pendingSub struct {
	at  simclock.Time
	in  *Instance
	req workload.Request
}

// instEngine is one instance's engine on its private clock, plus per-tick
// metering state and the result buffers it fills, as the engine's Sink,
// while stepping (possibly on a pool worker). Nothing a Sink method does
// may touch the backend's shared state: other engines step concurrently.
// Buffers are drained by the serial merge at the end of every RunTo, so
// outside stepping they are always empty.
type instEngine struct {
	b     *eventBackend
	eng   *engine.Engine
	clock *simclock.Clock
	// pool is the owning instance's pool index, kept here so Handoff can
	// resolve the decode twin without touching the Instance.
	pool int
	// lastJ is the meter reading at the previous tick boundary.
	lastJ float64
	// cls is the served-mix class of the last Advance, for attributing
	// the post-horizon drain tail in Finish.
	cls workload.Class

	// settled is the engine's KV counter bank as last folded into the
	// Result; settleKV books the movement since.
	settled engine.KVCounters

	// handoffsIn counts KV handoffs received this tick; Advance folds it
	// into the decode instance's rate EWMA (handed-off work never passes
	// the router, so the controllers would otherwise see zero load).
	handoffsIn int

	// lats buffers per-class latency reports as the engine makes them
	// (a steady cohort's gaps arrive as one report); toks buffers token
	// events for tagged requests when the run has an observer; dones
	// buffers completed requests by value; fails buffers requests the
	// engine rejected (oversize for its KV pool) or whose handoff found
	// no decode target, drained to the frontend retry path at merge.
	lats  []latSample
	toks  []tokenEvent
	dones []workload.Request
	fails []workload.Request

	// transfers are in-flight KV handoffs targeting this engine.
	transfers []*kvTransfer
}

// latSample is one buffered latency report: n equal samples of one
// class and kind.
type latSample struct {
	cls workload.Class
	tbt bool
	v   float64
	n   int
}

// tokenEvent is one buffered per-token observer notification.
type tokenEvent struct {
	req      workload.Request
	produced int
	at       simclock.Time
}

// ObserveTTFT implements engine.Sink, buffering into the engine's own
// slot (never the shared Result — stepping may be concurrent).
func (ie *instEngine) ObserveTTFT(cls workload.Class, v float64) {
	ie.lats = append(ie.lats, latSample{cls: cls, v: v, n: 1})
}

// ObserveTBT implements engine.Sink.
func (ie *instEngine) ObserveTBT(cls workload.Class, v float64, n int) {
	ie.lats = append(ie.lats, latSample{cls: cls, tbt: true, v: v, n: n})
}

// Token implements engine.Sink: a tagged request's token event is kept
// for the observer, if the run has one.
func (ie *instEngine) Token(req *workload.Request, produced int, now simclock.Time) {
	if ie.b.sm.opts.Observer != nil {
		ie.toks = append(ie.toks, tokenEvent{req: *req, produced: produced, at: now})
	}
}

// Done implements engine.Sink.
func (ie *instEngine) Done(req *workload.Request) { ie.dones = append(ie.dones, *req) }

// Reject implements engine.Sink: merge hands the request to the frontend
// retry path.
func (ie *instEngine) Reject(req *workload.Request) { ie.fails = append(ie.fails, *req) }

// Handoff implements engine.Sink: it moves a prefilled request's KV cache
// to a decode instance of the twin pool. It runs inside the group clock's
// stepping (possibly on a pool worker), which is safe: everything it
// touches — the group's engines, their buffers, the shared group clock —
// is owned by exactly that worker for the duration of the step.
func (ie *instEngine) Handoff(req *workload.Request, ctx int) {
	te := ie.b.decodeTarget(ie.pool)
	if te == nil {
		// No decode capacity at all: the frontend retries the request
		// from scratch (merge drains the buffer into frontendFail).
		ie.fails = append(ie.fails, *req)
		return
	}
	te.handoffsIn++
	t := &kvTransfer{at: ie.clock.Now() + simclock.Time(kvTransferSeconds(ie.b.sm.opts.Model, ctx)), req: *req, ctx: ctx}
	te.transfers = append(te.transfers, t)
	te.clock.At(t.at, func() {
		if t.done {
			return // target retired while the transfer was in flight
		}
		t.done = true
		te.eng.SubmitDecode(t.req, t.ctx)
	})
}

// engineFor returns the instance's engine, building it on first touch
// (frozen until readyAt while the instance is still provisioning or mid
// transition). The engine lives on a fresh private clock fast-forwarded to
// the backend's time, so its meter starts at the current tick boundary —
// an instance created mid-epoch forgoes at most one tick of idle power
// relative to the fluid backend (~3 kJ per scale-out — noise against run
// totals).
func (b *eventBackend) engineFor(in *Instance) *instEngine {
	for in.ID >= len(b.engines) {
		b.engines = append(b.engines, nil)
	}
	ie := b.engines[in.ID]
	if ie == nil {
		clk := b.clockFor(in)
		cfg := perfmodel.Config{Model: b.sm.opts.Model, TP: in.TP, Freq: in.effFreq()}
		ie = &instEngine{b: b, clock: clk, pool: in.Pool, cls: workload.Classify(int(avgOr(in.mixIn, 512)), int(avgOr(in.mixOut, 200)))}
		ie.eng = engine.New(cfg, b.kvConfig(in.Pool), clk, ie)
		if in.state != stateActive && in.readyAt > b.now {
			ie.eng.Freeze(in.readyAt)
		}
		b.engines[in.ID] = ie
	}
	return ie
}

// clockFor returns the virtual clock a new engine runs on: a fresh
// private clock normally (engines are independent between ticks — the
// parallel-stepping byte-identity anchor), or the pool group's shared
// clock under disaggregation (prefill and decode twins exchange mid-tick
// handoff events, so they must share an event heap).
func (b *eventBackend) clockFor(in *Instance) *simclock.Clock {
	if !b.sm.opts.Disagg {
		clk := simclock.New()
		clk.RunUntil(b.now)
		return clk
	}
	gi := in.Pool % b.sm.pooling.NumPools
	for gi >= len(b.groupClocks) {
		b.groupClocks = append(b.groupClocks, nil)
	}
	if b.groupClocks[gi] == nil {
		clk := simclock.New()
		clk.RunUntil(b.now)
		b.groupClocks[gi] = clk
	}
	return b.groupClocks[gi]
}

// kvConfig is the KV accounting of a new engine in the given pool: the
// run's block-granular options (none when KVBlockTokens is zero — the
// legacy token-counting path stays byte-identical), and the prefill-only
// role of a disaggregated prefill pool.
func (b *eventBackend) kvConfig(pool int) engine.KVConfig {
	opts := b.sm.opts
	kv := engine.KVConfig{PrefillOnly: opts.Disagg && b.sm.pools[pool].Role == RolePrefill}
	if opts.KVBlockTokens <= 0 {
		return kv
	}
	kv.BlockTokens = opts.KVBlockTokens
	kv.CapacityFactor = opts.KVCapacityFactor
	kv.PrefixCache = opts.KVPrefixCache
	// The spill tier is sized against the UNSCALED derived capacity —
	// host memory and NVMe do not shrink when KVCapacityFactor squeezes
	// the GPU pool — which is exactly what lets tiny-capacity cells
	// recover goodput by swapping instead of recomputing.
	switch opts.KVTier {
	case KVTierCPU:
		kv.TierCapacityFactor = kvTierCPUFactor
		kv.TierBytesPerSec = kvTierCPUBytesPerSec
	case KVTierSSD:
		kv.TierCapacityFactor = kvTierSSDFactor
		kv.TierBytesPerSec = kvTierSSDBytesPerSec
	}
	if opts.KVTier != KVTierNone && opts.KVSwapPolicy == KVSwapAlways {
		kv.SwapPolicy = engine.SwapAlways
	}
	return kv
}

// decodeTarget picks the decode-twin instance with the shortest engine
// queue among live, already-built engines (RunTo pre-builds them before
// stepping, so a missing engine here means the twin pool has no usable
// instance). Slice order breaks ties, keeping the choice deterministic.
func (b *eventBackend) decodeTarget(pool int) *instEngine {
	tw := b.sm.pools[pool+b.sm.pooling.NumPools]
	var best *instEngine
	bestQ := 0
	for _, in := range tw.Instances {
		if in.state == stateOff || in.ID >= len(b.engines) {
			continue
		}
		te := b.engines[in.ID]
		if te == nil {
			continue
		}
		if q := te.eng.QueueLen(); best == nil || q < bestQ {
			best, bestQ = te, q
		}
	}
	return best
}

func (b *eventBackend) Admit(in *Instance, req *workload.Request, now simclock.Time) {
	// A mispredicted, re-steered request reaches the right engine only
	// after its detection delay.
	at := req.Arrival + simclock.Time(req.SteerPenalty)
	if at < b.now {
		at = b.now
	}
	b.submitAt(in, *req, at) // the tick's request buffer is recycled; keep a copy
}

// submitAt queues a request for delivery to an instance's engine at the
// given instant. Liveness is re-resolved at delivery: if the instance
// retired between scheduling and arrival, the in-transit request is
// re-routed to the pool's earliest-ready sibling (the frontend would
// never deliver to a dead machine), and handed to the frontend retry
// path only when the pool has nothing left.
func (b *eventBackend) submitAt(in *Instance, r workload.Request, at simclock.Time) {
	b.pending = append(b.pending, pendingSub{at: at, in: in, req: r})
}

// deliver hands every pending submission due at or before horizon to its
// engine's private clock (whose (time, seq) heap restores exact FIFO
// order among equal arrival instants). Runs serially: it resolves
// instance liveness and may build engines or notify the observer.
func (b *eventBackend) deliver(horizon simclock.Time) {
	kept := b.pending[:0]
	for _, p := range b.pending {
		if p.at > horizon {
			kept = append(kept, p)
			continue
		}
		target := p.in
		if target.state == stateOff {
			target = earliestReady(b.sm.pools[target.Pool])
			if target == nil || target == p.in {
				// The pool died while the request was in transit: the
				// frontend retries it after a backoff (terminal squash
				// once the budget is spent).
				b.sm.frontendFail(p.req, p.at)
				continue
			}
		}
		ie := b.engineFor(target)
		r := p.req
		ie.clock.At(p.at, func() { ie.eng.Submit(r) })
	}
	b.pending = kept
}

// RunTo advances every engine to the tick boundary: serial delivery of
// the tick's submissions, concurrent per-engine stepping, then a serial
// merge of the buffered results in instance-ID order.
func (b *eventBackend) RunTo(tickEnd simclock.Time) {
	b.deliver(tickEnd)
	if b.sm.opts.Disagg {
		// Sink.Handoff fires while engines step (possibly on pool
		// workers) and must not build engines — b.engines is shared
		// state. Materialize every live decode engine serially first.
		for _, p := range b.sm.pools {
			if p.Role != RoleDecode {
				continue
			}
			for _, in := range p.Instances {
				if in.state != stateOff {
					b.engineFor(in)
				}
			}
		}
	}
	b.stepAll(tickEnd)
	b.now = tickEnd
	b.merge()
}

// stepAll runs every live clock's agenda to the tick boundary. Normally
// each engine has its own clock; under disaggregation a pool group
// (prefill + decode twins) shares one. With StepJobs > 1 the distinct
// clocks are index-slotted across that many workers; each clock is
// stepped by exactly one worker and the engines on it touch only their
// own state and buffers, so the result is byte-identical to the serial
// pass.
func (b *eventBackend) stepAll(tickEnd simclock.Time) {
	b.stepClocks = b.stepClocks[:0]
	if b.sm.opts.Disagg {
		for _, clk := range b.groupClocks {
			if clk != nil {
				b.stepClocks = append(b.stepClocks, clk)
			}
		}
	} else {
		for _, ie := range b.engines {
			if ie != nil {
				b.stepClocks = append(b.stepClocks, ie.clock)
			}
		}
	}
	if jobs := b.sm.opts.StepJobs; jobs > 1 && len(b.stepClocks) > 1 {
		order.Parallel(len(b.stepClocks), jobs, func(i int) { b.stepClocks[i].RunUntil(tickEnd) })
		return
	}
	for _, clk := range b.stepClocks {
		clk.RunUntil(tickEnd)
	}
}

// merge folds every engine's buffered results into the shared Result and
// observer, in instance-ID order — a fixed order independent of how the
// stepping was scheduled, which is what makes parallel runs byte-identical
// to serial ones. The latency distributions would not need it (a Dist's
// sum is exact, so its state is order-free); completions, token events
// and retries feed ordered state and do.
func (b *eventBackend) merge() {
	for _, ie := range b.engines {
		if ie != nil {
			b.mergeEngine(ie)
		}
	}
}

// mergeEngine folds one engine's buffers into the shared Result and
// observer and empties them. Buffers replay in the engine's own
// deterministic event order, so each request's token events still precede
// its completion.
func (b *eventBackend) mergeEngine(ie *instEngine) {
	res := b.sm.res
	for _, ls := range ie.lats {
		if ls.tbt {
			res.ClassTBT[ls.cls].AddN(ls.v, ls.n)
		} else {
			res.ClassTTFT[ls.cls].AddN(ls.v, ls.n)
		}
	}
	ie.lats = ie.lats[:0]
	if obs := b.sm.opts.Observer; obs != nil {
		for i := range ie.toks {
			t := &ie.toks[i]
			obs.RequestToken(&t.req, t.produced, t.at)
		}
	}
	ie.toks = ie.toks[:0]
	for i := range ie.dones {
		// TTFT/TBT come from the request's own timestamps; Arrival
		// survives retries, so a retried request's TTFT spans every
		// failed attempt and backoff.
		d := &ie.dones[i]
		b.sm.complete(d, d.TTFT(), d.AvgTBT(), d.MeetsSLO())
	}
	ie.dones = ie.dones[:0]
	// Requests the engine rejected (oversize for its KV pool) or
	// whose handoff found no decode target go back through the
	// frontend retry path — another instance or a later attempt may
	// still serve them.
	for i := range ie.fails {
		b.sm.frontendFail(ie.fails[i], b.now)
	}
	ie.fails = ie.fails[:0]
}

func (b *eventBackend) Advance(in *Instance, a *assign, now simclock.Time) float64 {
	ie := b.engineFor(in)
	// Propagate the instance manager's DVFS decision — degraded by any
	// injected straggler factor — paying the frequency-set stall the
	// controller path implies. A straggler onset or repair flows through
	// here as an effective-clock change.
	if f := in.effFreq(); f != ie.eng.Cfg.Freq {
		stall := gpu.SlowSetOverhead
		if b.sm.opts.ReducedOverheads {
			stall = gpu.FastSetOverhead
		}
		ie.eng.SetFreq(f, stall)
	}
	// The controllers' backlog signal is the engine's real admission
	// queue (sequences whose prefill has not started, plus any preempted
	// sequences waiting to re-enter).
	in.backlog = float64(ie.eng.WaitingLen())
	ie.cls = workload.Classify(int(in.mixIn), int(in.mixOut))
	b.settleKV(ie)
	if ie.handoffsIn > 0 {
		// Handed-off decode work never passes the router, so the rate
		// EWMA — the load signal every controller reads — would decay to
		// zero on decode instances. Fold the tick's received handoffs in
		// at the same EWMA weight accountTick applies to routed work.
		in.rate += 0.3 * float64(ie.handoffsIn) / b.sm.opts.Tick
		ie.handoffsIn = 0
	}
	if len(ie.transfers) > 0 {
		// Compact completed KV transfers (serial phase; the list only
		// matters for retirement failover).
		kept := ie.transfers[:0]
		for _, t := range ie.transfers {
			if !t.done {
				kept = append(kept, t)
			}
		}
		for i := len(kept); i < len(ie.transfers); i++ {
			ie.transfers[i] = nil
		}
		ie.transfers = kept
	}

	j := ie.eng.Energy()
	tickJ := j - ie.lastJ
	ie.lastJ = j
	return tickJ / b.sm.opts.Tick
}

// settleKV folds the engine's KV counter movement since the last settle
// into the run totals (delta-based, so it is safe to call from both
// Advance and the retirement/finish paths).
func (b *eventBackend) settleKV(ie *instEngine) {
	b.sm.res.AddSince(ie.eng.KVCounters, ie.settled)
	ie.settled = ie.eng.KVCounters
}

func (b *eventBackend) Retire(in *Instance, now simclock.Time, graceful bool) {
	var ie *instEngine
	if in.ID < len(b.engines) {
		ie = b.engines[in.ID]
	}
	if ie == nil {
		return
	}
	b.engines[in.ID] = nil
	in.backlog = 0
	// In-flight KV transfers targeting this engine can never land: the
	// scheduled arrival callback checks done and becomes a no-op, and the
	// requests go to the frontend retry path like any other victim.
	for _, t := range ie.transfers {
		if !t.done {
			t.done = true
			b.sm.frontendFail(t.req, now)
		}
	}
	ie.transfers = nil
	drained := b.drain(ie)
	b.settleEnergy(ie, b.now)
	// A planned departure migrates its work to the sibling that will
	// serve soonest. An outage's in-flight work dies with the machine, but
	// the frontend notices and retries each request against whatever
	// capacity is left (§IV-D) — terminal squash only past the retry
	// budget; a planned departure with no sibling left takes the same path.
	var te *instEngine
	if graceful {
		if target := earliestReady(b.sm.pools[in.Pool]); target != nil && target != in { // in is stateOff: skipped
			te = b.engineFor(target)
		}
	}
	for _, r := range drained {
		if te != nil {
			te.eng.Submit(r)
		} else {
			b.sm.frontendFail(r, now)
		}
	}
}

func (b *eventBackend) Reconfigure(in *Instance, now simclock.Time) {
	var ie *instEngine
	if in.ID < len(b.engines) {
		ie = b.engines[in.ID]
	}
	if ie == nil {
		return // engine not built yet; first touch uses the new degree
	}
	// Drain-and-migrate onto the new shard layout: resident sequences
	// cannot survive the layout change, so they restart on the
	// reconfigured engine after the transition stall.
	drained := b.drain(ie)
	ie.eng.Reconfigure(perfmodel.Config{Model: b.sm.opts.Model, TP: in.TP, Freq: in.effFreq()})
	stallEnd := b.now
	if in.readyAt > now {
		stallEnd = in.readyAt
		if tf := in.throughputFactor; tf > 0 && tf < 1 {
			// Soft transition: old shards keep serving at reduced
			// throughput; model the capacity loss as a stall for the
			// lost fraction of the window.
			stallEnd = now + simclock.Time(float64(in.readyAt-now)*(1-tf))
		}
		ie.eng.Freeze(stallEnd)
	}
	// Resubmit after the stall window, not before: an iteration event
	// scheduled before this reshard would otherwise find the requeued
	// work and serve it inside the transition.
	for _, r := range drained {
		b.submitAt(in, r, stallEnd)
	}
	in.backlog = 0
}

// Finish lets in-flight work drain past the horizon, charges the drain
// tail's energy, and squashes anything that can never complete (KV-stuck
// leftovers). It closes engines one at a time, in instance-ID order,
// through the per-tick merge: merge the engine's buffers, step its clock
// by one event, repeat until the agenda is empty. The buffers thus hold
// at most one event's output, and completions, token events and retries
// still reach the Result and observer in ID order. Under disaggregation
// a pool group shares one clock: stepping its lowest-ID engine runs the
// whole group, and the other engines hold their tail until the loop
// reaches them, so buffering is bounded per group, not per engine. The drain is serial whatever StepJobs says: draining
// in parallel would mean buffering ahead of the ID-order merge. Each
// engine's meter closes at its own last event — trailing idle time past
// an engine's final iteration is not billed.
func (b *eventBackend) Finish(end simclock.Time) {
	b.deliver(simclock.Time(math.Inf(1)))
	for _, ie := range b.engines {
		if ie == nil {
			continue
		}
		for {
			b.mergeEngine(ie)
			if !ie.clock.Step() {
				break
			}
		}
		for _, r := range b.drain(ie) {
			b.sm.drop(r, false)
		}
		// The drain tail runs past the horizon; book its energy at the
		// horizon so the series (and carbon pricing) stays inside the
		// simulated window.
		b.settleEnergy(ie, end)
	}
}

// drain empties an engine of its incomplete requests into the reusable
// scratch buffer, valid until the next drain.
func (b *eventBackend) drain(ie *instEngine) []workload.Request {
	b.scratch = b.scratch[:0]
	ie.eng.Drain(func(r workload.Request) { b.scratch = append(b.scratch, r) })
	return b.scratch
}

// settleEnergy folds an engine's unaccounted joules (since its last tick
// boundary) into the run totals, booked into the energy series at `at`.
func (b *eventBackend) settleEnergy(ie *instEngine, at simclock.Time) {
	b.settleKV(ie)
	j := ie.eng.Energy()
	tickJ := j - ie.lastJ
	ie.lastJ = j
	if tickJ <= 0 {
		return
	}
	b.sm.bookEnergy(ie.cls, tickJ, at)
}
