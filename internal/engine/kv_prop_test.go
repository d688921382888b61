package engine

import (
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// Property suite for block-granular KV accounting: conservation at every
// event boundary, no blocks leaked past completion, and guaranteed
// progress under the tightest possible pool. These are the invariants the
// cluster layers build on — a violation here surfaces as a deadlocked
// drain or a silent capacity drift three packages away.

// schedule submits each request at its arrival instant.
func schedule(clk *simclock.Clock, eng *Engine, reqs []workload.Request) {
	for i := range reqs {
		r := reqs[i]
		clk.At(r.Arrival, func() { eng.Submit(r) })
	}
}

// heldBlocks sums the GPU blocks attributable to some holder: sequences
// in every queue (including those staged behind an in-flight or completed
// swap-in, which hold their GPU blocks from transfer start) plus resident
// prefix-cache entries. Conservation demands this equals the pool's used
// counter exactly — an untracked block is a leak, a double-counted one is
// phantom capacity.
func heldBlocks(e *Engine) int {
	held := 0
	for _, st := range e.active {
		held += st.kvBlocks
	}
	for _, st := range e.waiting.items() {
		held += st.kvBlocks
	}
	for _, st := range e.preempted.items() {
		held += st.kvBlocks
	}
	for _, st := range e.swapReady {
		held += st.kvBlocks
	}
	for _, st := range e.swapQ.items() {
		if st != nil {
			held += st.kvBlocks
		}
	}
	for _, pe := range e.prefixList {
		if !pe.spilled {
			held += pe.blocks
		}
	}
	return held
}

// tierHeldBlocks is the spill-tier mirror of heldBlocks: blocks held by
// spilled sequences awaiting swap-in plus spilled prefix entries.
func tierHeldBlocks(e *Engine) int {
	held := 0
	for _, st := range e.spilled.items() {
		held += st.tierBlocks
	}
	for _, pe := range e.prefixList {
		if pe.spilled {
			held += pe.blocks
		}
	}
	return held
}

func checkKVConservation(t *testing.T, e *Engine) {
	t.Helper()
	if e.kvBlocksUsed < 0 || e.kvBlocksUsed > e.kvBlocksCap {
		t.Fatalf("t=%v: used blocks %d outside pool [0, %d]", e.clock.Now(), e.kvBlocksUsed, e.kvBlocksCap)
	}
	if held := heldBlocks(e); held != e.kvBlocksUsed {
		t.Fatalf("t=%v: conservation broken: holders sum to %d, pool says %d used",
			e.clock.Now(), held, e.kvBlocksUsed)
	}
	if e.kvTierUsed < 0 || e.kvTierUsed > e.kvTierCap {
		t.Fatalf("t=%v: tier blocks %d outside tier [0, %d]", e.clock.Now(), e.kvTierUsed, e.kvTierCap)
	}
	if held := tierHeldBlocks(e); held != e.kvTierUsed {
		t.Fatalf("t=%v: tier conservation broken: holders sum to %d, tier says %d used",
			e.clock.Now(), held, e.kvTierUsed)
	}
	// A sequence is resident or spilled, never both: the GPU side is freed
	// in the same instant the tier side takes over (and vice versa).
	checkSeq := func(st *seqState) {
		if st.kvBlocks > 0 && st.tierBlocks > 0 {
			t.Fatalf("t=%v: sequence holds %d GPU blocks and %d tier blocks at once",
				e.clock.Now(), st.kvBlocks, st.tierBlocks)
		}
	}
	for _, st := range e.active {
		checkSeq(st)
	}
	for _, st := range e.spilled.items() {
		checkSeq(st)
	}
	for _, st := range e.swapReady {
		checkSeq(st)
	}
	checkTierCounters(t, e)
}

// checkTierCounters asserts the swap-counter algebra that holds at every
// instant: swap-ins never outrun swap-outs, and every preemption or tier
// eviction resolved as exactly one swap-out or one recompute.
func checkTierCounters(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.CheckLaws(); err != nil {
		t.Fatalf("t=%v: %v", e.clock.Now(), err)
	}
}

// kvPropReqs is a deterministic mixed workload. The first dozen requests
// alternate between two prompt groups in a tight burst, so followers
// arrive while the published prefix is still cached (an unreferenced
// entry is evicted the moment the pool saturates); the tail is ungrouped
// churn that drives the pool into preemption.
func kvPropReqs(n int, seed uint64) []workload.Request {
	rng := simclock.NewRNG(seed)
	reqs := make([]workload.Request, n)
	at := simclock.Time(0)
	for i := range reqs {
		at += simclock.Time(rng.Float64() * 0.25)
		reqs[i] = workload.Request{
			Arrival:      at,
			InputTokens:  32 + rng.Intn(600),
			OutputTokens: 2 + rng.Intn(100),
		}
		if i < 12 {
			g := uint64(1 + i%2)
			reqs[i].PromptGroup = g
			reqs[i].InputTokens = 200 + int(g)*40
		}
	}
	return reqs
}

// TestKVPropConservation: allocated+free equals capacity at every event
// boundary of a pressured run with preemption and prefix sharing both
// active, and after the drain nothing is held at all.
func TestKVPropConservation(t *testing.T) {
	clk := simclock.New()
	eng := New(cfg70(model.TP4, 1600), KVConfig{BlockTokens: 16, Blocks: 64, PrefixCache: true}, clk, nil)
	reqs := kvPropReqs(80, 17)
	schedule(clk, eng, reqs)
	// The check rides a fine periodic event: engine state only mutates
	// inside iteration events, so every firing observes a boundary. The
	// periodic event keeps the heap non-empty, so run to a horizon past
	// the workload, cancel, then drain whatever remains.
	cancel := clk.Every(0.01, func() { checkKVConservation(t, eng) })
	clk.RunUntil(120)
	cancel()
	for clk.Step() {
	}

	checkKVConservation(t, eng)
	if eng.Completed+eng.KVRejected != len(reqs) {
		t.Fatalf("requests lost: %d completed + %d rejected of %d",
			eng.Completed, eng.KVRejected, len(reqs))
	}
	if eng.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", eng.QueueLen())
	}
	if eng.KVPreemptions == 0 {
		t.Error("64-block pool produced no preemptions; workload not pressuring")
	}
	// All sequences gone: only prefix-cache entries may still hold blocks.
	if seqHeld := eng.kvBlocksUsed - func() int {
		n := 0
		for _, pe := range eng.prefixList {
			n += pe.blocks
		}
		return n
	}(); seqHeld != 0 {
		t.Errorf("%d blocks still held by finished sequences", seqHeld)
	}
	eng.Drain(nil)
	if eng.kvBlocksUsed != 0 {
		t.Errorf("%d blocks leaked past drain", eng.kvBlocksUsed)
	}
}

// TestKVPropNoLeakWithoutPrefix: with the prefix cache off, the only
// legitimate holders are live sequences, so a fully completed run must
// land at exactly zero used blocks without any drain.
func TestKVPropNoLeakWithoutPrefix(t *testing.T) {
	clk := simclock.New()
	eng := New(cfg70(model.TP4, 1600), KVConfig{BlockTokens: 16, Blocks: 96}, clk, nil)
	reqs := kvPropReqs(60, 29)
	schedule(clk, eng, reqs)
	for clk.Step() {
	}
	if eng.Completed+eng.KVRejected != len(reqs) {
		t.Fatalf("requests lost: %d completed + %d rejected of %d",
			eng.Completed, eng.KVRejected, len(reqs))
	}
	if eng.kvBlocksUsed != 0 {
		t.Errorf("%d blocks held after all sequences finished", eng.kvBlocksUsed)
	}
}

// TestKVPropProgressAtOneBlock is the deadlock property at its tightest:
// a single-block pool, contending sequences that fit it, and one that
// never can. Every fitting request must complete (sequences serialize
// through the block via preemption), the oversize one must be rejected —
// and the run must terminate, which is the property the rollback paths
// exist for (the step loop ending at all is the assertion).
func TestKVPropProgressAtOneBlock(t *testing.T) {
	clk := simclock.New()
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{BlockTokens: 16, Blocks: 1}, clk, nil)
	fitting := 6
	for i := 0; i < fitting; i++ {
		at := simclock.Time(float64(i) * 0.01)
		r := workload.Request{Arrival: at, InputTokens: 6, OutputTokens: 4}
		clk.At(at, func() { eng.Submit(r) })
	}
	clk.At(0.02, func() {
		eng.Submit(workload.Request{Arrival: 0.02, InputTokens: 40, OutputTokens: 4})
	})
	for clk.Step() {
	}
	if eng.Completed != fitting {
		t.Errorf("completed %d of %d block-sized requests", eng.Completed, fitting)
	}
	if eng.KVRejected != 1 {
		t.Errorf("oversize request: rejected %d, want 1", eng.KVRejected)
	}
	if eng.kvBlocksUsed != 0 {
		t.Errorf("%d blocks held after the run", eng.kvBlocksUsed)
	}
}

// TestKVPropPrefixSelfReference pins the pathological shape the noPrefix
// rule exists for: a cached prefix plus a sequence relying on it fill the
// pool exactly, so the sequence cannot cross its next block boundary
// while sharing. The run must terminate with the request either completed
// (resumed on its own blocks) or rejected — never spinning.
func TestKVPropPrefixSelfReference(t *testing.T) {
	clk := simclock.New()
	// Prompt of 32 tokens = 2 blocks cached; 5-block pool. The follower
	// hits the cache, then needs 32+out tokens of its own as it decodes.
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{BlockTokens: 16, Blocks: 5, PrefixCache: true}, clk, nil)
	a := workload.Request{Arrival: 0, InputTokens: 32, OutputTokens: 2, PromptGroup: 9}
	b := workload.Request{Arrival: 0.5, InputTokens: 32, OutputTokens: 60, PromptGroup: 9}
	clk.At(0, func() { eng.Submit(a) })
	clk.At(0.5, func() { eng.Submit(b) })
	for clk.Step() {
	}
	if eng.Completed+eng.KVRejected != 2 {
		t.Fatalf("requests lost: %d completed + %d rejected of 2", eng.Completed, eng.KVRejected)
	}
	if eng.KVPrefixHits == 0 {
		t.Error("follower never hit the prefix cache; scenario not exercised")
	}
	checkKVConservation(t, eng)
}

// --- Spill-tier properties ---------------------------------------------------

// kvTierCfg is the pressured tier configuration the tier properties run
// under: a pool small enough to preempt constantly, swap-always so every
// victim crosses the tier boundary the tier can hold.
func kvTierCfg(tierBlocks int) KVConfig {
	return KVConfig{
		BlockTokens: 16, Blocks: 64, PrefixCache: true,
		TierBlocks: tierBlocks, TierBytesPerSec: DefaultTierBytesPerSec,
		SwapPolicy: SwapAlways,
	}
}

// kvTierSlowCfg throttles the link three orders of magnitude below the
// PCIe default, stretching each transfer from milliseconds to seconds, so
// tests that must catch (or drain) a transfer mid-flight can find one at
// coarse probe granularity.
func kvTierSlowCfg(tierBlocks int) KVConfig {
	cfg := kvTierCfg(tierBlocks)
	cfg.TierBytesPerSec = DefaultTierBytesPerSec / 1000
	return cfg
}

// TestKVTierPropConservation: with a spill tier configured, GPU and tier
// conservation (and the per-instant counter algebra) hold at every event
// boundary, the run drains at every tier capacity — including one so small
// that almost every spill forces an eviction — and the drain releases both
// pools completely.
func TestKVTierPropConservation(t *testing.T) {
	for _, tierBlocks := range []int{1, 4, 16, 256} {
		clk := simclock.New()
		eng := New(cfg70(model.TP4, 1600), kvTierCfg(tierBlocks), clk, nil)
		reqs := kvPropReqs(80, 17)
		schedule(clk, eng, reqs)
		cancel := clk.Every(0.01, func() { checkKVConservation(t, eng) })
		clk.RunUntil(120)
		cancel()
		for clk.Step() { // termination at this capacity is itself the property
		}

		checkKVConservation(t, eng)
		if eng.Completed+eng.KVRejected != len(reqs) {
			t.Fatalf("tier %d: requests lost: %d completed + %d rejected of %d",
				tierBlocks, eng.Completed, eng.KVRejected, len(reqs))
		}
		if tierBlocks >= 16 && eng.KVSwapOuts == 0 {
			t.Errorf("tier %d: swap-always run never swapped; tier not exercised", tierBlocks)
		}
		// Every swap-out resolved: swapped back in, or evicted to recompute.
		// A force-recomputed sequence must never also swap in.
		if eng.KVSwapIns != eng.KVSwapOuts-eng.KVTierEvictions {
			t.Errorf("tier %d: at drain %d swap-ins != %d swap-outs - %d evictions",
				tierBlocks, eng.KVSwapIns, eng.KVSwapOuts, eng.KVTierEvictions)
		}
		eng.Drain(nil)
		if eng.kvBlocksUsed != 0 || eng.kvTierUsed != 0 {
			t.Errorf("tier %d: %d GPU + %d tier blocks leaked past drain",
				tierBlocks, eng.kvBlocksUsed, eng.kvTierUsed)
		}
	}
}

// TestKVTierPropThrash oscillates pressure across the tier boundary — the
// cache-thrash shape at engine scale: bursts that overflow the GPU pool
// and force spills, separated by lulls long enough to swap everything
// back. Conservation holds through every crossing, and both directions of
// the link are actually exercised.
func TestKVTierPropThrash(t *testing.T) {
	clk := simclock.New()
	eng := New(cfg70(model.TP4, 1600), kvTierCfg(256), clk, nil)
	rng := simclock.NewRNG(71)
	var reqs []workload.Request
	for cycle := 0; cycle < 4; cycle++ {
		base := simclock.Time(cycle) * 12
		// Burst: 25 arrivals packed into two seconds overflow the pool.
		for i := 0; i < 25; i++ {
			reqs = append(reqs, workload.Request{
				Arrival:      base + simclock.Time(rng.Float64()*2),
				InputTokens:  64 + rng.Intn(400),
				OutputTokens: 20 + rng.Intn(80),
			})
		}
		// Lull: a trickle keeps the engine iterating while the backlog
		// (and the spilled queue) drains.
		for i := 0; i < 3; i++ {
			reqs = append(reqs, workload.Request{
				Arrival:     base + 4 + simclock.Time(rng.Float64()*6),
				InputTokens: 32, OutputTokens: 8,
			})
		}
	}
	schedule(clk, eng, reqs)
	cancel := clk.Every(0.01, func() { checkKVConservation(t, eng) })
	clk.RunUntil(120)
	cancel()
	for clk.Step() {
	}

	checkKVConservation(t, eng)
	if eng.Completed+eng.KVRejected != len(reqs) {
		t.Fatalf("requests lost: %d completed + %d rejected of %d",
			eng.Completed, eng.KVRejected, len(reqs))
	}
	if eng.KVSwapOuts == 0 || eng.KVSwapIns == 0 {
		t.Errorf("thrash exercised neither direction: %d out, %d in", eng.KVSwapOuts, eng.KVSwapIns)
	}
	if eng.kvTierUsed != 0 {
		t.Errorf("%d tier blocks held after the backlog drained", eng.kvTierUsed)
	}
}

// TestKVTierDrainMidSwap: Drain called while sequences sit spilled in the
// tier and a transfer is mid-flight must release both pools completely,
// and the orphaned link event must fire harmlessly afterwards.
func TestKVTierDrainMidSwap(t *testing.T) {
	clk := simclock.New()
	eng := New(cfg70(model.TP4, 1600), kvTierSlowCfg(256), clk, nil)
	reqs := kvPropReqs(70, 41)
	schedule(clk, eng, reqs)
	var cut simclock.Time
	for at := simclock.Time(0.05); at < 60 && cut == 0; at += 0.05 {
		clk.RunUntil(at)
		if eng.swapInflight > 0 && eng.spilled.len() > 0 {
			cut = at
		}
	}
	if cut == 0 {
		t.Fatal("never caught an in-flight transfer with a spilled backlog")
	}
	eng.Drain(nil)
	if eng.kvBlocksUsed != 0 || eng.kvTierUsed != 0 {
		t.Fatalf("drain left %d GPU + %d tier blocks held", eng.kvBlocksUsed, eng.kvTierUsed)
	}
	if eng.QueueLen() != 0 {
		t.Fatalf("drain left queue length %d", eng.QueueLen())
	}
	for clk.Step() { // pending swap event fires against a cancelled (nil) slot
	}
	checkKVConservation(t, eng)
}

// handoffTo is a Sink that hands every prefilled sequence straight to a
// decode engine on the same clock; the embedded pooledSink takes every
// other report.
type handoffTo struct {
	pooledSink
	dec *Engine
}

func (h *handoffTo) Handoff(r *workload.Request, ctx int) { h.dec.SubmitDecode(*r, ctx) }

// TestKVPropDisaggHandoff: a prefill-only engine hands every multi-token
// sequence to the decode side right after its first token and retains no
// blocks for it; the decode engine finishes the work under its own pool
// accounting. Conservation holds on both engines throughout.
func TestKVPropDisaggHandoff(t *testing.T) {
	clk := simclock.New()
	dec := New(cfg70(model.TP4, 1600), KVConfig{BlockTokens: 16, Blocks: 64}, clk, nil)
	pre := New(cfg70(model.TP4, 1600), KVConfig{BlockTokens: 16, Blocks: 64, PrefillOnly: true}, clk, &handoffTo{dec: dec})
	reqs := kvPropReqs(40, 61)
	schedule(clk, pre, reqs)
	cancel := clk.Every(0.01, func() {
		checkKVConservation(t, pre)
		checkKVConservation(t, dec)
	})
	clk.RunUntil(120)
	cancel()
	for clk.Step() {
	}

	single := 0
	for _, r := range reqs {
		if r.OutputTokens == 1 {
			single++
		}
	}
	if pre.Handoffs != len(reqs)-single {
		t.Errorf("prefill side handed off %d of %d multi-token requests", pre.Handoffs, len(reqs)-single)
	}
	if pre.Completed != single {
		t.Errorf("prefill side completed %d, want only the %d single-token requests", pre.Completed, single)
	}
	if dec.Completed+dec.KVRejected != pre.Handoffs {
		t.Errorf("decode side: %d completed + %d rejected of %d handoffs",
			dec.Completed, dec.KVRejected, pre.Handoffs)
	}
	if pre.kvBlocksUsed != 0 || dec.kvBlocksUsed != 0 {
		t.Errorf("blocks held after drain: prefill %d, decode %d", pre.kvBlocksUsed, dec.kvBlocksUsed)
	}
	// A handed-off request's output tokens split across the two engines.
	total := 0
	for _, r := range reqs {
		total += r.OutputTokens
	}
	if rejectedTokens := total - (pre.TokensOut + dec.TokensOut); dec.KVRejected == 0 && rejectedTokens != 0 {
		t.Errorf("token conservation across handoff: %d produced of %d", pre.TokensOut+dec.TokensOut, total)
	}
}
