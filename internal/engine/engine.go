// Package engine is an event-level simulator of one vLLM-style inference
// server: continuous batching with chunked prefill, KV-cache admission
// control, and per-request TTFT/TBT accounting, running on virtual time.
//
// It is the measured counterpart of the closed-form fluid model in
// perfmodel: iteration costs come from the same roofline (perfmodel.Iter),
// but queueing, batching, and tail behaviour emerge from discrete events
// rather than formulas. The profiler can use it as a Measurer to build
// profiles the way the paper does — by running loads against a live engine
// (§IV-A) — and the cluster simulation in core can run every instance on
// an Engine (Options.Fidelity = FidelityEvent), with the mid-run controls
// the controllers need: frequency changes (SetFreq), freeze windows for
// outages and transition stalls (Freeze), and drain-and-migrate on
// re-sharding (Drain + Reconfigure).
//
// New takes all of an engine's configuration: the instance shape, the KV
// accounting (KVConfig, including the prefill-only role of a
// disaggregated pair), the clock, and the one Sink that receives
// everything the engine reports — per-class TTFT/TBT samples, per-token
// events of tagged requests, completions, rejections and handoffs.
// Submit adds a request by value; SubmitDecode takes a handed-off one.
//
// The engine honours the repository's steady-state allocation discipline:
// seqState records are pooled, the per-iteration scratch (the active
// batch, the waiting queue, the iteration-end callback) is reused, and
// the clock stores events by value, so a long soak allocates only the
// callers' per-arrival submission closures (BenchmarkEngineSoak tracks
// this).
package engine

import (
	"fmt"
	"math"

	"dynamollm/internal/energy"
	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// seqState tracks one request inside the engine.
type seqState struct {
	// req is the engine's own copy of the request: the caller's value is
	// never aliased, and the lifecycle timestamps are written here.
	req workload.Request
	// cls is req's true class, cached at submit: the per-token latency
	// samples are tagged with it, and a held request's token counts never
	// change, so re-classifying per token would only cost time.
	cls workload.Class
	// prefillLeft is prompt tokens not yet processed.
	prefillLeft int
	// produced is output tokens generated so far.
	produced int
	// ctx is resident KV tokens.
	ctx int
	// kvBlocks is the number of KV blocks the sequence holds under
	// block-granular accounting (kv.go); always 0 on the legacy path.
	kvBlocks int
	// tierBlocks is the number of spill-tier blocks the sequence holds
	// while swapped out (tier.go); a sequence is never resident and
	// spilled at once, so kvBlocks and tierBlocks are never both non-zero.
	tierBlocks int
	// prefixTokens is the prompt prefix covered by a shared prefix-cache
	// entry rather than the sequence's own blocks.
	prefixTokens int
	// noPrefix bars the sequence from taking a prefix-cache hit: set on
	// preemption so recompute-on-resume owns its whole context (a resume
	// re-hitting an entry only it kept alive would cycle forever at the
	// block boundary it already could not cross).
	noPrefix bool
	// lastToken is when the sequence's most recent token was produced;
	// TBT gaps are measured against it.
	lastToken simclock.Time
}

// Sink receives everything an engine reports, in the engine's event
// order. A *workload.Request argument points at the engine's own storage
// and is valid only during the call: a sink that keeps it copies it.
type Sink interface {
	// ObserveTTFT receives a first token's latency, tagged by the
	// request's true class.
	ObserveTTFT(cls workload.Class, seconds float64)
	// ObserveTBT receives n equal token gaps of one class (n >= 1). The
	// steady cohort of an iteration — every sequence whose previous token
	// came from the previous iteration — shares one gap, so each class
	// with such sequences gets one report with n = its count, after that
	// iteration's Token, Done and Handoff calls. Every other gap (after a
	// join, a stall or a handoff) is reported alone, with n = 1, in
	// sequence order.
	ObserveTBT(cls workload.Class, seconds float64, n int)
	// Token fires once per output token of a tagged request (Tag != 0),
	// before completion or handoff.
	// A request drained and resubmitted (re-shard, migration) restarts
	// generation, so produced can restart from 1 for the same request.
	Token(req *workload.Request, produced int, now simclock.Time)
	// Done fires when a request produces its last token.
	Done(req *workload.Request)
	// Reject fires for a request whose KV footprint can never fit the
	// block pool (block accounting only).
	Reject(req *workload.Request)
	// Handoff fires when a prefill-only engine retires a sequence for
	// remote decode, with its resident context (prompt + first token).
	Handoff(req *workload.Request, ctx int)
}

// pooledSink pools every class into one TTFT and one TBT distribution and
// drops every other report: the single-engine view Measure reports.
type pooledSink struct{ ttft, tbt metrics.Dist }

func (s *pooledSink) ObserveTTFT(_ workload.Class, v float64)       { s.ttft.Add(v) }
func (s *pooledSink) ObserveTBT(_ workload.Class, v float64, n int) { s.tbt.AddN(v, n) }
func (*pooledSink) Token(*workload.Request, int, simclock.Time)     {}
func (*pooledSink) Done(*workload.Request)                          {}
func (*pooledSink) Reject(*workload.Request)                        {}
func (*pooledSink) Handoff(*workload.Request, int)                  {}

// KVCounters is the KV-cache event-counter bank (block accounting only):
// the engine bumps it on its event paths, and the cluster result embeds
// the same struct to carry the run totals, so the eight counters and
// their algebra are declared once. The conserve analyzer (internal/lint)
// refuses any new integer field here that CheckLaws does not reference.
type KVCounters struct {
	KVPreemptions int // decode sequences evicted under KV pressure
	KVPrefixHits  int // admissions that reused a cached prompt prefix
	KVRejected    int // requests whose KV footprint can never fit
	Handoffs      int // prefill→decode migrations (disaggregated mode)
	// Tier counters (tier.go). Every preemption resolves as a swap-out or
	// a recompute, and every tier eviction converts a swap-out into a
	// recompute, so KVSwapOuts + KVRecomputes == KVPreemptions +
	// KVTierEvictions.
	KVSwapOuts      int // sequences spilled to the tier
	KVSwapIns       int // spilled sequences swapped back in
	KVRecomputes    int // preemptions resolved by recompute-on-resume
	KVTierEvictions int // spilled sequences evicted from a full tier
}

// CheckLaws verifies the KV counter algebra that holds at every instant:
// non-negativity, the one-way swap link (a sequence is never resident
// and spilled at once, so KVSwapIns can never pass KVSwapOuts), and
// preemption conservation (every preemption resolves as exactly one
// swap-out or one recompute, with tier evictions converting swap-outs
// into recomputes). A non-nil error means a counter was bumped off its
// event path.
func (c *KVCounters) CheckLaws() error {
	if c.KVPreemptions < 0 || c.KVPrefixHits < 0 || c.KVRejected < 0 || c.Handoffs < 0 {
		return fmt.Errorf("engine: negative KV counter: preemptions=%d hits=%d rejected=%d handoffs=%d",
			c.KVPreemptions, c.KVPrefixHits, c.KVRejected, c.Handoffs)
	}
	if c.KVSwapOuts < 0 || c.KVSwapIns < 0 || c.KVRecomputes < 0 || c.KVTierEvictions < 0 {
		return fmt.Errorf("engine: negative tier counter: swapouts=%d swapins=%d recomputes=%d evictions=%d",
			c.KVSwapOuts, c.KVSwapIns, c.KVRecomputes, c.KVTierEvictions)
	}
	if c.KVSwapIns > c.KVSwapOuts {
		return fmt.Errorf("engine: KVSwapIns=%d exceeds KVSwapOuts=%d", c.KVSwapIns, c.KVSwapOuts)
	}
	if c.KVSwapOuts+c.KVRecomputes != c.KVPreemptions+c.KVTierEvictions {
		return fmt.Errorf("engine: KV preemption conservation violated: SwapOuts=%d + Recomputes=%d != Preemptions=%d + TierEvictions=%d",
			c.KVSwapOuts, c.KVRecomputes, c.KVPreemptions, c.KVTierEvictions)
	}
	return nil
}

// AddSince adds the movement from prev to cur to c: a consumer that
// folds several engines' banks into one total keeps the last value it
// settled per engine and books only the delta.
func (c *KVCounters) AddSince(cur, prev KVCounters) {
	c.KVPreemptions += cur.KVPreemptions - prev.KVPreemptions
	c.KVPrefixHits += cur.KVPrefixHits - prev.KVPrefixHits
	c.KVRejected += cur.KVRejected - prev.KVRejected
	c.Handoffs += cur.Handoffs - prev.Handoffs
	c.KVSwapOuts += cur.KVSwapOuts - prev.KVSwapOuts
	c.KVSwapIns += cur.KVSwapIns - prev.KVSwapIns
	c.KVRecomputes += cur.KVRecomputes - prev.KVRecomputes
	c.KVTierEvictions += cur.KVTierEvictions - prev.KVTierEvictions
}

// Counters is the engine's monotonic event-counter bank: the throughput
// counters plus the embedded KV bank. The fields are plain ints bumped on
// the event paths; the algebra relating them is asserted by CheckLaws
// after every clock event in the property suite, and the conserve
// analyzer refuses any new integer field here that CheckLaws does not
// reference.
type Counters struct {
	// Completed counts requests finished by this engine.
	Completed int
	// TokensIn/TokensOut audit token conservation across handoffs.
	TokensIn, TokensOut int
	KVCounters
}

// CheckLaws verifies the counter algebra: non-negative throughput
// counters and the KV bank's own laws.
//
//dynamolint:api the counter-law check the engine tests assert after every run; conserve audits its coverage
func (c *Counters) CheckLaws() error {
	if c.Completed < 0 || c.TokensIn < 0 || c.TokensOut < 0 {
		return fmt.Errorf("engine: negative throughput counter: completed=%d in=%d out=%d",
			c.Completed, c.TokensIn, c.TokensOut)
	}
	return c.KVCounters.CheckLaws()
}

// Engine is one simulated inference server instance.
type Engine struct {
	Cfg   perfmodel.Config
	clock *simclock.Clock

	// waiting is the FIFO admission queue (prefill not yet finished).
	waiting fifo[*seqState]
	active  []*seqState // in the running batch

	kvTokens    float64
	kvCapacity  float64
	running     bool
	frozenUntil simclock.Time

	// Block-granular KV accounting (kv.go). kvBlocksCap == 0 keeps the
	// legacy token-granular path above bit-for-bit. kv is the config New
	// took, PrefillOnly included.
	kv           KVConfig
	kvBlocksCap  int
	kvBlocksUsed int
	// preempted holds decode sequences evicted under KV pressure; they
	// re-enter admission (re-prefilling their recomputed context) with
	// strict priority over the waiting queue.
	preempted fifo[*seqState]
	// prefixMap/prefixList are the prompt-prefix cache: map for lookup,
	// list in insertion order for deterministic oldest-first eviction
	// (map iteration order must never drive behaviour).
	prefixMap  map[uint64]*prefixEntry
	prefixList []*prefixEntry
	prefixes   pool[prefixEntry]
	// Tiered KV spill state (tier.go). kvTierCap == 0 disables the tier
	// and keeps the recompute-only path above bit-for-bit.
	kvTierCap  int
	kvTierUsed int
	tierBW     float64
	// linkFreeAt is when the swap link next idles; transfers serialize
	// behind it (the bandwidth queue).
	linkFreeAt simclock.Time
	// spilled holds swapped-out sequences in spill order: the head is
	// both the next to swap back in and the LRU eviction victim when the
	// tier itself fills.
	spilled fifo[*seqState]
	// swapQ holds the sequences of in-flight swap-in transfers in link
	// order; completions pop the head (the link serializes, so FIFO order
	// is end order), and a drained transfer leaves a nil slot behind.
	// swapReady stages completed swap-ins until the next iteration start.
	swapQ        fifo[*seqState]
	swapReady    []*seqState
	swapInflight int
	// onSwapDone is the swap-in completion callback, bound once so
	// scheduling a transfer needs no per-transfer closure or record.
	onSwapDone func()

	meter *energy.Meter

	// states is the seqState pool; finished or drained sequences return
	// here instead of garbage.
	states pool[seqState]
	// iterEnd is the scheduled end of the in-flight iteration, read by
	// onIterEnd (one iteration is in flight at a time).
	iterEnd simclock.Time
	// prevEnd is the end of the previous iteration: a sequence whose
	// lastToken equals it decoded there too, so its token gap is the
	// one every such sequence shares.
	prevEnd simclock.Time
	// onIterStart/onIterEnd are the iteration callbacks, bound once at
	// construction so scheduling an iteration does not allocate closures.
	onIterStart func()
	onIterEnd   func()

	// Counters is the engine's integer counter bank, embedded so call
	// sites keep reading e.Completed, e.KVPreemptions, ... unchanged. It is
	// a separate struct so the counter algebra lives in one place
	// (CheckLaws) and the conserve analyzer (internal/lint) can require
	// every field to be checked there.
	Counters

	// sink receives every report; nil drops them (the counters still
	// count each one).
	sink Sink
}

// New builds an engine for the configuration on the given clock, with the
// given KV accounting (the zero KVConfig keeps the token-granular path)
// and reporting to sink (nil drops every report). The GPUs draw idle power
// from construction on, so a provisioned-but-idle instance is metered the
// way the fluid model meters it.
func New(cfg perfmodel.Config, kv KVConfig, clock *simclock.Clock, sink Sink) *Engine {
	e := &Engine{
		Cfg:        cfg,
		clock:      clock,
		kvCapacity: cfg.Model.KVCapacityTokens(cfg.TP),
		kv:         kv,
		meter:      energy.NewMeter(),
		sink:       sink,
	}
	if kv.BlockTokens > 0 {
		e.deriveKVBlocks()
		if kv.PrefixCache {
			e.prefixMap = make(map[uint64]*prefixEntry)
		}
	}
	e.onIterStart = e.iterate
	e.onIterEnd = e.finishIteration
	e.onSwapDone = e.swapDone
	e.meter.SetPower(clock.Now(), gpu.H100.IdlePower*float64(cfg.GPUs()))
	return e
}

// Submit enqueues a copy of the request; the engine starts iterating if
// idle. The caller's value is never aliased: what the engine reports
// about the request comes from its own copy.
func (e *Engine) Submit(req workload.Request) {
	st := e.states.get()
	st.req = req
	st.cls = req.Class()
	st.prefillLeft = req.InputTokens
	e.TokensIn += req.InputTokens
	e.enqueue(st)
}

func (e *Engine) enqueue(st *seqState) {
	e.waiting.push(st)
	e.kick()
}

// Freeze stalls the engine until t (frequency-set overhead, re-shard sync,
// provisioning: work is accepted but no iteration starts before t).
func (e *Engine) Freeze(until simclock.Time) {
	if until > e.frozenUntil {
		e.frozenUntil = until
	}
}

// SetFreq applies a new GPU core clock from now on: subsequent iterations
// are costed and powered at f. stall is the frequency-set overhead in
// seconds (gpu.SlowSetOverhead / FastSetOverhead); the engine freezes for
// it, modelling the inference stall the paper measures (Fig. 3). Setting
// the current frequency is free.
func (e *Engine) SetFreq(f gpu.Freq, stall float64) {
	if f == e.Cfg.Freq {
		return
	}
	e.Cfg.Freq = f
	if stall > 0 {
		e.Freeze(e.clock.Now() + simclock.Time(stall))
	}
}

// Reconfigure swaps the engine onto a new configuration (re-sharding to a
// different TP degree): iteration costs and KV capacity follow the new
// shape from the next iteration on. Resident sequences do not survive a
// shard-layout change — callers Drain first and resubmit, which is exactly
// the drain-and-migrate the cluster's re-sharding transition performs.
func (e *Engine) Reconfigure(cfg perfmodel.Config) {
	e.Cfg = cfg
	e.kvCapacity = cfg.Model.KVCapacityTokens(cfg.TP)
	if e.kv.BlockTokens > 0 {
		e.deriveKVBlocks()
	}
}

// Drain removes every incomplete request from the engine, handing each to
// fn by value (fn may be nil to drop them), and resets the queues and KV
// state. An iteration already in flight finishes against an empty batch
// and produces nothing.
func (e *Engine) Drain(fn func(workload.Request)) {
	e.drainSeqs(e.waiting.items(), fn)
	e.waiting.reset()
	e.drainSeqs(e.preempted.items(), fn)
	e.preempted.reset()
	e.drainSeqs(e.active, fn)
	e.active = e.active[:0]
	e.drainSeqs(e.spilled.items(), fn)
	e.spilled.reset()
	e.drainSeqs(e.swapReady, fn)
	e.swapReady = e.swapReady[:0]
	// In-flight swap-ins: the transfer event is still scheduled; the
	// slot stays queued as nil so swapDone pops and discards it without
	// delivering anything.
	e.swapInflight -= e.drainSeqs(e.swapQ.items(), fn)
	e.kvTokens = 0
	if e.kvBlocksCap > 0 {
		e.clearPrefix()
		e.kvBlocksUsed = 0
		e.kvTierUsed = 0
	}
}

// drainSeqs hands each queued sequence to fn (if non-nil) and returns its
// state to the pool, clearing the slots, and reports how many it drained.
// Nil slots (swap-ins already cancelled) are skipped.
func (e *Engine) drainSeqs(seqs []*seqState, fn func(workload.Request)) (n int) {
	for i, st := range seqs {
		if st == nil {
			continue
		}
		if fn != nil {
			fn(st.req)
		}
		seqs[i] = nil
		e.states.put(st)
		n++
	}
	return n
}

// Energy returns joules consumed so far (closing the meter at now).
func (e *Engine) Energy() float64 {
	return e.meter.Finish(e.clock.Now())
}

// QueueLen reports requests not yet finished.
func (e *Engine) QueueLen() int {
	return e.WaitingLen() + len(e.active) + e.swapInflight
}

// WaitingLen reports requests whose (re-)prefill or swap-in has not
// started — the admission backlog the cluster's instance manager watches,
// including preempted and spilled sequences awaiting re-admission (but not
// transfers already on the link, whose completion event carries them).
func (e *Engine) WaitingLen() int {
	return e.waiting.len() + e.preempted.len() + e.spilled.len() + len(e.swapReady)
}

// kick schedules the next iteration if the engine is idle and has work.
//
//dynamolint:steadystate
func (e *Engine) kick() {
	if e.running || (e.WaitingLen() == 0 && len(e.active) == 0) {
		return
	}
	e.running = true
	start := e.clock.Now()
	if start < e.frozenUntil {
		start = e.frozenUntil
	}
	e.clock.At(start, e.onIterStart)
}

// iterate runs one engine iteration: admit prefill chunks within the token
// budget and KV capacity, decode every active sequence one token, then
// schedule the iteration end.
//
//dynamolint:steadystate
func (e *Engine) iterate() {
	now := e.clock.Now()

	// Admission: fill the chunk budget from the waiting queue (FIFO),
	// respecting KV capacity.
	budget := perfmodel.PrefillChunk
	prefillTokens := 0
	if e.kvBlocksCap > 0 {
		// Block-granular path: swap-ins that completed since the last
		// iteration rejoin the batch, spilled sequences outrank every
		// queue for the link and blocks, then preempted sequences resume,
		// then the waiting queue; every chunk is gated on free blocks and
		// each active sequence is guaranteed a block for this
		// iteration's token (preempting the youngest under pressure).
		e.flushSwapReady()
		swapBlocked := e.admitSwapIns()
		if !swapBlocked {
			prefillTokens = e.admitBlocks(&budget)
		}
		e.reserveDecode()
		// reserveDecode can evict or reject the very sequences admission
		// just placed, emptying the batch while their freed blocks would
		// let queued work in. Going idle here would strand that work
		// forever (no external event frees blocks once nothing runs), so
		// re-admit until the batch is live or admission stops moving.
		// Terminates: every productive round consumes chunk budget or
		// moves a spilled sequence onto the link (whose completion event
		// wakes the engine on its own). Spilled sequences initiating
		// transfers leave WaitingLen, so a round that only starts
		// swap-ins exits the loop and idles until the link delivers.
		for len(e.active) == 0 && e.WaitingLen() > 0 {
			swapBlocked = e.admitSwapIns()
			more := 0
			if !swapBlocked {
				more = e.admitBlocks(&budget)
			}
			e.reserveDecode()
			prefillTokens += more
			if more == 0 && len(e.active) == 0 {
				break
			}
		}
	} else {
		for e.waiting.len() > 0 && budget > 0 {
			st := e.waiting.peek()
			chunk := st.prefillLeft
			if chunk > budget {
				chunk = budget
			}
			if e.kvTokens+float64(chunk) > e.kvCapacity {
				break // KV full: sequence waits
			}
			st.prefillLeft -= chunk
			st.ctx += chunk
			e.kvTokens += float64(chunk)
			prefillTokens += chunk
			budget -= chunk
			if st.prefillLeft == 0 {
				// Prompt fully processed: joins the decode batch; first
				// token appears at the end of this iteration.
				e.active = append(e.active, st)
				e.waiting.pop()
			}
		}
	}

	// Batch composition.
	decodeSeqs := 0
	ctxTotal := 0.0
	for _, st := range e.active {
		// A sequence admitted THIS iteration produces its first token
		// now; everyone decodes one token per iteration.
		decodeSeqs++
		ctxTotal += float64(st.ctx)
	}
	if prefillTokens == 0 && decodeSeqs == 0 {
		e.running = false
		return
	}

	it := e.Cfg.Iter(perfmodel.Batch{
		PrefillTokens: float64(prefillTokens),
		DecodeSeqs:    float64(decodeSeqs),
		ContextTokens: ctxTotal + float64(prefillTokens),
	})
	end := now + simclock.Time(it.Time)

	// Power during the iteration.
	e.meter.SetPower(now, gpu.H100.Power(e.Cfg.Freq, it.Util)*float64(e.Cfg.GPUs()))

	// Token production at iteration end (the callback is bound once; the
	// end time travels through iterEnd, valid because only one iteration
	// is ever in flight).
	e.iterEnd = end
	e.clock.At(end, e.onIterEnd)
}

// finishIteration produces the in-flight iteration's tokens, retires
// completed sequences, and schedules the next iteration. The active batch
// is compacted in place so steady-state decoding reuses its scratch. The
// steady cohort's token gaps are counted per class and reported once per
// class after the loop.
//
//dynamolint:steadystate
func (e *Engine) finishIteration() {
	end, prev := e.iterEnd, e.prevEnd
	e.prevEnd = end
	var steady [workload.NumClasses]int
	e.meter.SetPower(end, gpu.H100.Power(e.Cfg.Freq, 0)*float64(e.Cfg.GPUs()))
	live := e.active[:0]
	for _, st := range e.active {
		st.produced++
		st.ctx++
		if e.kvBlocksCap == 0 {
			e.kvTokens++
		}
		e.TokensOut++
		if st.produced == 1 {
			// A drained-and-resubmitted request already produced its
			// first token on the old configuration; its TTFT happened
			// then and is not re-recorded.
			if st.req.FirstToken == 0 {
				st.req.FirstToken = end
				if e.sink != nil {
					e.sink.ObserveTTFT(st.cls, float64(end-st.req.Arrival))
				}
			}
		} else if st.lastToken == prev {
			steady[st.cls]++
		} else if e.sink != nil {
			e.sink.ObserveTBT(st.cls, float64(end-st.lastToken), 1)
		}
		st.lastToken = end
		if st.req.Tag != 0 && e.sink != nil {
			e.sink.Token(&st.req, st.produced, end)
		}
		if e.kv.PrefillOnly && st.produced == 1 && st.produced < st.req.OutputTokens {
			// Disaggregated prefill: the first token marks prefill done;
			// the sequence decodes elsewhere. Its blocks free here — the
			// transfer cost is modeled by the handoff receiver.
			e.releaseSeq(st)
			e.Handoffs++
			if e.sink != nil {
				e.sink.Handoff(&st.req, st.ctx)
			}
			e.states.put(st)
			continue
		}
		if st.produced >= st.req.OutputTokens {
			st.req.Finish = end
			if e.kvBlocksCap > 0 {
				e.releaseSeq(st)
			} else {
				e.kvTokens -= float64(st.ctx)
			}
			e.Completed++
			if e.sink != nil {
				e.sink.Done(&st.req)
			}
			e.states.put(st)
			continue
		}
		live = append(live, st)
	}
	for i := len(live); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = live
	if e.sink != nil {
		for c, n := range steady {
			if n > 0 {
				e.sink.ObserveTBT(workload.Class(c), float64(end-prev), n)
			}
		}
	}
	e.running = false
	e.kick()
}

// --- Profiling measurer ---------------------------------------------------------

// MeasureSeconds is the virtual duration of one profiling run.
const MeasureSeconds = 240

// Measure runs a Poisson workload of the given shape against a live engine
// and reports the observation the profiler needs. It satisfies
// profile.Measurer, mirroring the paper's measured profiling runs (§IV-A).
//
//dynamolint:api measured profiling: tests cross-validate the fluid profile against it, and planning from measured profiles (ROADMAP) will call it
func Measure(cfg perfmodel.Config, lambda float64, inTokens, outTokens int, sloScale float64) profile.Observation {
	obs := profile.Observation{Lambda: lambda}
	if !cfg.Feasible() || lambda <= 0 {
		obs.Feasible = cfg.Feasible()
		obs.Power = gpu.H100.IdlePower * float64(cfg.GPUs())
		return obs
	}
	clock := simclock.New()
	rng := simclock.NewRNG(uint64(lambda*1e6) ^ uint64(inTokens)<<20 ^ uint64(outTokens))
	var lat pooledSink
	eng := New(cfg, KVConfig{}, clock, &lat)

	t := 0.0
	for {
		t += rng.Exp(lambda)
		if t >= MeasureSeconds {
			break
		}
		at := simclock.Time(t)
		clock.At(at, func() {
			eng.Submit(workload.Request{
				Arrival:      at,
				InputTokens:  inTokens,
				OutputTokens: outTokens,
			})
		})
	}
	clock.RunUntil(simclock.Time(MeasureSeconds))

	obs.Power = eng.Energy() / MeasureSeconds
	obs.TTFTP99 = lat.ttft.Percentile(99)
	obs.TBTP99 = lat.tbt.Percentile(99)
	// Saturation check: the queue must not grow without bound.
	backlog := eng.QueueLen()
	obs.Feasible = float64(backlog) < math.Max(10, lambda*MeasureSeconds*0.05) &&
		eng.Completed > 0
	return obs
}

// --- Fig. 3: frequency-switch overhead ------------------------------------------

// ThroughputConstVsSwitch reproduces Fig. 3's experiment: serve a fixed
// request stream at max frequency, once leaving the clock alone and once
// re-issuing the frequency command before every iteration through the
// given controller path. Returns requests/second for both modes.
func ThroughputConstVsSwitch(cls workload.Class, resident bool) (constRPS, switchRPS float64) {
	in, out := workload.RepresentativeLengths(cls)
	cfg := perfmodel.Config{Model: model.Llama2_70B, TP: model.TP8, Freq: gpu.MaxFreq}
	run := func(forceSet bool) float64 {
		clock := simclock.New()
		eng := New(cfg, KVConfig{}, clock, nil)
		fc := gpu.NewFreqController(resident)
		if forceSet {
			// Wrap iterations: every kick pays a redundant set call.
			// We model it by freezing the engine for the overhead ahead
			// of each iteration via a periodic tick at the iteration
			// cadence.
			cancel := clock.Every(0.020, func() {
				d := fc.ForceSet(gpu.MaxFreq)
				eng.Freeze(clock.Now() + simclock.Time(d))
			})
			defer cancel()
		}
		const dur = 120.0
		rng := simclock.NewRNG(42)
		t := 0.0
		lambda := 10.0
		for {
			t += rng.Exp(lambda)
			if t >= dur {
				break
			}
			at := simclock.Time(t)
			clock.At(at, func() {
				eng.Submit(workload.Request{Arrival: at, InputTokens: in, OutputTokens: out})
			})
		}
		clock.RunUntil(simclock.Time(dur))
		return float64(eng.Completed) / dur
	}
	return run(false), run(true)
}
