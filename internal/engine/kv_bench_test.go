package engine

import (
	"runtime"
	"testing"

	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// kvSoak drives a sustained Poisson load through one engine under the
// given KV config (zero = legacy path), with every request tagged into
// one shared prompt group so the prefix cache sees hits when enabled.
// Request lengths are fixed at in/out tokens; returns the engine and the
// number of clock events executed (the unit the alloc ratios divide by).
func kvSoak(kv KVConfig, lambda, dur float64, in, out int) (*Engine, uint64) {
	cfg := perfmodel.Config{Model: model.Llama2_70B, TP: model.TP4, Freq: 1600}
	clock := simclock.New()
	eng := New(cfg, kv, clock, nil)
	rng := simclock.NewRNG(7)
	t := 0.0
	for {
		t += rng.Exp(lambda)
		if t >= dur {
			break
		}
		at := simclock.Time(t)
		clock.At(at, func() {
			eng.Submit(workload.Request{
				Arrival: at, InputTokens: in, OutputTokens: out, PromptGroup: 1,
			})
		})
	}
	var steps uint64
	for clock.Step() {
		steps++
	}
	return eng, steps
}

// The shared soak shape: short-prompt requests (16 prompt + 6 decode
// blocks each, all one prompt group) against a pool that sits right at
// the capacity edge once the 16-block prefix entry is published — decode
// growth preempts continuously (~7 preemptions per completion) while the
// referenced prefix entry survives eviction, so every follower admission
// is a cache hit. One run exercises allocation, preemption, rollback,
// re-admission, and prefix publication together.
const (
	kvSoakLambda = 3.0
	kvSoakDur    = 120.0
	kvSoakIn     = 256
	kvSoakOut    = 96
)

var kvSoakPressured = KVConfig{BlockTokens: 16, Blocks: 72, PrefixCache: true}

// BenchmarkEngineKV times the block-KV admission + preemption hot path:
// the EngineSoak workload on a pool sized to stay under constant pressure
// (preemptions and re-admissions every few iterations) with the prefix
// cache enabled. The KV bookkeeping itself is alloc-free in steady state —
// seqStates, prefix entries, and the queues are pooled — so allocs/op
// tracks BenchmarkEngineSoak's submission-closure floor rather than
// growing with preemption traffic (TestEngineKVSteadyStateAllocs pins
// this).
func BenchmarkEngineKV(b *testing.B) {
	b.ReportAllocs()
	var eng *Engine
	for i := 0; i < b.N; i++ {
		eng, _ = kvSoak(kvSoakPressured, kvSoakLambda, kvSoakDur, kvSoakIn, kvSoakOut)
		if eng.Completed == 0 {
			b.Fatal("KV soak completed nothing")
		}
	}
	b.ReportMetric(float64(eng.Completed), "completed-reqs")
	b.ReportMetric(float64(eng.KVPreemptions), "preemptions")
	b.ReportMetric(float64(eng.KVPrefixHits), "prefix-hits")
}

// kvSoakTiered is kvSoakPressured with a CPU-class spill tier under it:
// the same pool pressure, but victims swap over the modeled link instead
// of recomputing, so the soak exercises the swap-out/swap-in hot path
// continuously. Swap-always removes the policy's dependence on modeled
// times, keeping the benchmark shape stable across perf-model changes.
var kvSoakTiered = KVConfig{
	BlockTokens: 16, Blocks: 72, PrefixCache: true,
	TierBlocks: 512, TierBytesPerSec: DefaultTierBytesPerSec,
	SwapPolicy: SwapAlways,
}

// BenchmarkEngineKVTiered times the spill-tier hot path: the pressured KV
// soak with every preemption resolved through the swap link. Transfers
// queue the sequence itself and the completion callback is bound once, so
// allocs/op stays on the submission-closure floor just like the recompute
// path (TestEngineKVTieredSteadyStateAllocs pins this).
func BenchmarkEngineKVTiered(b *testing.B) {
	b.ReportAllocs()
	var eng *Engine
	for i := 0; i < b.N; i++ {
		eng, _ = kvSoak(kvSoakTiered, kvSoakLambda, kvSoakDur, kvSoakIn, kvSoakOut)
		if eng.Completed == 0 {
			b.Fatal("tiered KV soak completed nothing")
		}
	}
	b.ReportMetric(float64(eng.Completed), "completed-reqs")
	b.ReportMetric(float64(eng.KVSwapOuts), "swap-outs")
	b.ReportMetric(float64(eng.KVSwapIns), "swap-ins")
}

// mallocsDuring counts heap allocations performed by f, with the world
// quiesced by a GC first. Single-goroutine engine runs make the count
// deterministic up to runtime background noise.
func mallocsDuring(f func()) uint64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestEngineKVSteadyStateAllocs asserts the zero-steady-state-allocs
// contract for the block-KV machinery: a pressured KV soak (constant
// preemption + prefix churn) may not allocate meaningfully more per
// executed clock event than the legacy token-bucket path on the same
// workload. The clock stores events by value, so the unavoidable alloc
// floor is the per-arrival submission closure (one per request, a few
// hundredths of an allocation per event); preemption churn multiplies
// the event count but not the arrivals. With pooled seqStates, prefix
// entries, and queues, the KV bookkeeping's steady-state contribution
// must be zero, and any per-preemption, per-admission or per-event
// allocation would separate the two ratios immediately (preemptions
// outnumber completions 7:1 under this pool size).
func TestEngineKVSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-ratio soak")
	}
	var legacy, kv *Engine
	var legacySteps, kvSteps uint64
	legacyAllocs := mallocsDuring(func() {
		legacy, legacySteps = kvSoak(KVConfig{}, kvSoakLambda, kvSoakDur, kvSoakIn, kvSoakOut)
	})
	kvAllocs := mallocsDuring(func() {
		kv, kvSteps = kvSoak(kvSoakPressured, kvSoakLambda, kvSoakDur, kvSoakIn, kvSoakOut)
	})
	if legacy.Completed == 0 || kv.Completed == 0 {
		t.Fatalf("soak completed nothing: legacy %d, kv %d", legacy.Completed, kv.Completed)
	}
	if kv.KVPreemptions == 0 || kv.KVPrefixHits == 0 {
		t.Fatalf("KV soak exercised no pressure: %d preemptions, %d prefix hits", kv.KVPreemptions, kv.KVPrefixHits)
	}
	perLegacy := float64(legacyAllocs) / float64(legacySteps)
	perKV := float64(kvAllocs) / float64(kvSteps)
	t.Logf("allocs per clock event: legacy %.2f (%d events, %d reqs), kv %.2f (%d events, %d reqs, %d preemptions, %d hits)",
		perLegacy, legacySteps, legacy.Completed, perKV, kvSteps, kv.Completed, kv.KVPreemptions, kv.KVPrefixHits)
	// 15% headroom covers the one-time pool/queue/prefix-map growth; a
	// real per-preemption allocation costs a multiple of the floor.
	if perKV > perLegacy*1.15 {
		t.Errorf("KV path allocates %.2f per clock event vs legacy %.2f (limit 1.15x): steady-state KV bookkeeping must not allocate",
			perKV, perLegacy)
	}
}

// TestEngineKVTieredSteadyStateAllocs extends the contract to the spill
// tier: sustained swap traffic — one queued sequence and one clock event
// per swap-in — must hold the same per-event alloc ratio as the legacy
// path, whose only steady allocations are the per-arrival submission
// closures. An allocation per transfer (a fresh record or completion
// closure) would separate the ratios immediately.
func TestEngineKVTieredSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-ratio soak")
	}
	var legacy, tiered *Engine
	var legacySteps, tieredSteps uint64
	legacyAllocs := mallocsDuring(func() {
		legacy, legacySteps = kvSoak(KVConfig{}, kvSoakLambda, kvSoakDur, kvSoakIn, kvSoakOut)
	})
	tieredAllocs := mallocsDuring(func() {
		tiered, tieredSteps = kvSoak(kvSoakTiered, kvSoakLambda, kvSoakDur, kvSoakIn, kvSoakOut)
	})
	if legacy.Completed == 0 || tiered.Completed == 0 {
		t.Fatalf("soak completed nothing: legacy %d, tiered %d", legacy.Completed, tiered.Completed)
	}
	if tiered.KVSwapOuts == 0 || tiered.KVSwapIns == 0 {
		t.Fatalf("tiered soak exercised no swap traffic: %d out, %d in", tiered.KVSwapOuts, tiered.KVSwapIns)
	}
	perLegacy := float64(legacyAllocs) / float64(legacySteps)
	perTiered := float64(tieredAllocs) / float64(tieredSteps)
	t.Logf("allocs per clock event: legacy %.2f (%d events), tiered %.2f (%d events, %d swap-outs, %d swap-ins, %d evictions)",
		perLegacy, legacySteps, perTiered, tieredSteps, tiered.KVSwapOuts, tiered.KVSwapIns, tiered.KVTierEvictions)
	if perTiered > perLegacy*1.15 {
		t.Errorf("tiered path allocates %.2f per clock event vs legacy %.2f (limit 1.15x): swap transfers must not allocate",
			perTiered, perLegacy)
	}
}
