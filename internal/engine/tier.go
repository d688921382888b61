package engine

import (
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
)

// Tiered KV cache: a CPU/SSD spill tier below the GPU block pool.
//
// PR 8's paged pool resolves pressure by preempting decode sequences and
// recomputing their context from scratch on resume — the most expensive
// possible recovery. With a tier configured (KVConfig.TierBlocks or
// TierCapacityFactor), a preemption victim may instead swap its blocks out
// to the tier over a modeled link (PCIe host memory ~25 GB/s, NVMe ~5 GB/s)
// and swap them back in on resume. The choice is per sequence: the policy
// compares the modeled transfer time (current link backlog + swap-out +
// swap-in) against the modeled time to re-prefill the context, and takes
// the cheaper path (the zero SwapPolicy); SwapAlways spills whenever the tier has
// room. When the tier itself is full, spilled prefix entries are dropped
// first and then the least-recently-spilled sequences are evicted — their
// tier copy is discarded and they fall back to recompute-on-resume — and a
// victim that still cannot fit is force-recomputed.
//
// Swap-outs and swap-ins serialize on one link per engine (a simple
// bandwidth queue): every transfer starts no earlier than the previous one
// finished, so tier thrash surfaces as real queueing latency rather than a
// free pool shuffle. A swap-out only advances the link clock (nothing waits
// on its completion directly — any later swap-in is pushed behind it); a
// swap-in holds its GPU blocks for the duration of the transfer and
// delivers the sequence back to the decode batch when the link event
// fires. Prefix-cache entries are spillable too: GPU-pressure eviction
// moves an unreferenced entry to the tier (evict-to-tier before drop), and
// a later hit swaps it back when the pool has room.
//
// With TierBlocks == 0 (the default) none of this code runs and the PR 8
// recompute-only path is preserved bit-for-bit.

// SwapPolicy picks swap versus recompute for each preemption victim. The
// zero value compares the modeled swap round-trip (link backlog +
// swap-out + swap-in) against the modeled recompute prefill time and
// takes the cheaper path.
type SwapPolicy int

// SwapAlways spills every victim the tier can hold.
const SwapAlways SwapPolicy = 1

// DefaultTierBytesPerSec is the swap-link bandwidth assumed when a tier is
// configured without one (PCIe Gen5 host transfer, ~25 GB/s).
const DefaultTierBytesPerSec = 25e9

// tierSetupSeconds is the fixed per-transfer setup cost (descriptor ring,
// pinning) charged on top of the bandwidth term.
const tierSetupSeconds = 1e-4

// KVTierUsage reports spill-tier occupancy: blocks used and tier size
// (both zero without a configured tier).
func (e *Engine) KVTierUsage() (used, capacity int) {
	return e.kvTierUsed, e.kvTierCap
}

// swapSeconds models moving `tokens` tokens of KV cache across the tier
// link in one direction.
func (e *Engine) swapSeconds(tokens int) float64 {
	return tierSetupSeconds + float64(tokens)*e.Cfg.Model.KVBytesPerToken/e.tierBW
}

// recomputeSeconds models re-prefilling ctx tokens through chunked
// iterations at the engine's current configuration — what recompute-on-
// resume would cost in GPU time.
func (e *Engine) recomputeSeconds(ctx int) float64 {
	secs := 0.0
	for ctx > 0 {
		chunk := ctx
		if chunk > perfmodel.PrefillChunk {
			chunk = perfmodel.PrefillChunk
		}
		secs += e.Cfg.Iter(perfmodel.Batch{
			PrefillTokens: float64(chunk),
			ContextTokens: float64(chunk),
		}).Time
		ctx -= chunk
	}
	return secs
}

// linkOccupy reserves the swap link for secs seconds starting no earlier
// than now or the link's current backlog, and returns the reservation end.
func (e *Engine) linkOccupy(secs float64) simclock.Time {
	start := e.clock.Now()
	if e.linkFreeAt > start {
		start = e.linkFreeAt
	}
	end := start + simclock.Time(secs)
	e.linkFreeAt = end
	return end
}

// policySaysSwap decides swap versus recompute for one victim: always
// under SwapAlways, otherwise by comparing the modeled swap round-trip
// (including the link's current backlog, which makes sustained thrash
// self-limiting) against the modeled recompute prefill time.
func (e *Engine) policySaysSwap(st *seqState) bool {
	if e.kv.SwapPolicy == SwapAlways {
		return true
	}
	wait := 0.0
	if e.linkFreeAt > e.clock.Now() {
		wait = float64(e.linkFreeAt - e.clock.Now())
	}
	swap := wait + 2*e.swapSeconds(st.ctx)
	return swap < e.recomputeSeconds(st.req.InputTokens+st.produced)
}

// trySpill swaps a preemption victim's blocks out to the tier, reporting
// whether it did. A false return means the caller recomputes instead: tier
// disabled, the policy preferred recompute, or the tier is full beyond
// what eviction can reclaim (the forced-recompute fallback).
//
//dynamolint:steadystate
func (e *Engine) trySpill(st *seqState) bool {
	if e.kvTierCap == 0 {
		return false
	}
	need := blocksFor(st.ctx, e.kv.BlockTokens)
	if need > e.kvTierCap || !e.policySaysSwap(st) {
		return false
	}
	if e.kvTierUsed+need > e.kvTierCap && !e.tierReclaim(need) {
		return false
	}
	// GPU side frees exactly like a recompute preemption; the tier side
	// takes over in the same instant, so the sequence is never resident
	// and spilled at once.
	e.kvBlocksUsed -= st.kvBlocks
	st.kvBlocks = 0
	e.derefPrefix(st)
	st.tierBlocks = need
	e.kvTierUsed += need
	e.KVSwapOuts++
	e.linkOccupy(e.swapSeconds(st.ctx))
	e.spilled.push(st)
	return true
}

// tierReclaim frees tier blocks for an incoming spill: spilled prefix
// entries are pure cache and drop first (oldest first), then the least-
// recently-spilled sequences are evicted — their tier copy is discarded
// and they fall back to recompute-on-resume. Reports whether `need`
// blocks are now free.
func (e *Engine) tierReclaim(need int) bool {
	if e.kvTierCap-e.kvTierUsed < need {
		kept := e.prefixList[:0]
		for _, pe := range e.prefixList {
			if !pe.spilled || e.kvTierCap-e.kvTierUsed >= need {
				kept = append(kept, pe)
				continue
			}
			e.kvTierUsed -= pe.blocks
			delete(e.prefixMap, pe.group)
			e.prefixes.put(pe)
		}
		for i := len(kept); i < len(e.prefixList); i++ {
			e.prefixList[i] = nil
		}
		e.prefixList = kept
	}
	for e.spilled.len() > 0 && e.kvTierCap-e.kvTierUsed < need {
		v := e.spilled.pop()
		e.kvTierUsed -= v.tierBlocks
		v.tierBlocks = 0
		e.KVTierEvictions++
		e.requeueRecompute(v)
	}
	return e.kvTierCap-e.kvTierUsed >= need
}

// flushSwapReady moves sequences whose swap-in completed between
// iterations into the decode batch (they decode from this iteration on).
//
//dynamolint:steadystate
func (e *Engine) flushSwapReady() {
	for i, st := range e.swapReady {
		e.join(st)
		e.swapReady[i] = nil
	}
	e.swapReady = e.swapReady[:0]
}

// admitSwapIns starts swap-in transfers for spilled sequences, FIFO. A
// swap-in needs its full context's GPU blocks at once; resuming spilled
// work outranks both the preempted-recompute queue and new prefills, so a
// blocked head may reclaim their partial admissions and stalls admission
// behind it (the same strict-priority, no-starvation discipline the
// preempted queue gets). Reports whether the head is blocked on blocks.
//
//dynamolint:steadystate
func (e *Engine) admitSwapIns() (blocked bool) {
	for e.spilled.len() > 0 {
		st := e.spilled.peek()
		// Reserve headroom for the token after the resume (+1): a sequence
		// spilled at an exact block boundary would otherwise swap back in,
		// fail its decode reservation before producing anything, and spill
		// again — a zero-progress cycle. With the headroom every swap-in
		// yields at least one token, so swap cycles terminate.
		need := blocksFor(st.ctx+1, e.kv.BlockTokens)
		if need > e.kvBlocksCap {
			// The sequence's next token can never fit the pool (or a
			// re-shard shrank it below the context): it can never resume.
			e.spilled.pop()
			e.kvTierUsed -= st.tierBlocks
			st.tierBlocks = 0
			e.rejectSeq(st)
			continue
		}
		ok := e.takeBlocks(need)
		for !ok && (e.rollbackHead(&e.preempted) || e.rollbackHead(&e.waiting)) {
			ok = e.takeBlocks(need)
		}
		if !ok {
			blocked = true
			break
		}
		st.kvBlocks = need
		e.kvTierUsed -= st.tierBlocks
		st.tierBlocks = 0
		e.KVSwapIns++
		end := e.linkOccupy(e.swapSeconds(st.ctx))
		e.swapQ.push(st)
		e.swapInflight++
		e.clock.At(end, e.onSwapDone)
		e.spilled.pop()
	}
	return blocked
}

// swapDone is the link event for the oldest in-flight swap-in: the
// sequence rejoins the decode batch at the next iteration boundary.
// Completions pop in FIFO order because the link serializes transfers.
//
//dynamolint:steadystate
func (e *Engine) swapDone() {
	st := e.swapQ.pop()
	if st == nil {
		return // drained while the transfer was in flight
	}
	e.swapInflight--
	e.swapReady = append(e.swapReady, st)
	e.kick()
}

// unspillPrefix swaps a spilled prefix-cache entry back into the GPU pool
// ahead of a hit, if the pool has room without displacing anything (the
// cache never displaces live work). Reports whether the entry is resident.
func (e *Engine) unspillPrefix(pe *prefixEntry) bool {
	if e.kvBlocksUsed+pe.blocks > e.kvBlocksCap {
		return false
	}
	e.kvBlocksUsed += pe.blocks
	e.kvTierUsed -= pe.blocks
	pe.spilled = false
	e.linkOccupy(e.swapSeconds(pe.tokens))
	return true
}
