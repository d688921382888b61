package engine

import "dynamollm/internal/workload"

// Block-granular KV-cache accounting.
//
// The legacy engine path tracks KV occupancy as a float token count against
// the profile-derived capacity and can therefore neither preempt nor share
// prefixes. A KVConfig with BlockTokens > 0 (passed to New) switches the
// engine to a vLLM-style paged pool:
// capacity is a whole number of fixed-size blocks, admission allocates
// blocks for each prefill chunk, decode growth reserves a block whenever a
// sequence crosses a block boundary, and pressure is resolved by preempting
// the youngest decode sequences (their KV is dropped; they re-prefill their
// recomputed context when re-admitted, prompt plus produced tokens, which
// is the recompute-on-resume policy from the vLLM paper). Requests sharing
// a non-zero PromptGroup can reuse a cached prompt prefix: the first
// sequence of a group to finish prefill publishes its prompt blocks into a
// prefix cache; later arrivals skip the covered prompt tokens entirely.
//
// With BlockTokens == 0 (the default) none of this code runs and the
// legacy token-granular path is preserved bit-for-bit; with blocks enabled
// but capacity effectively unbounded, admission makes the same decisions
// as the legacy path and the event stream is identical — the cross-
// fidelity compat test pins both properties.

// KVConfig selects an engine's KV accounting and its role in a
// disaggregated pair; New takes it.
type KVConfig struct {
	// BlockTokens is the page size in tokens; <= 0 disables block
	// accounting (legacy float path).
	BlockTokens int
	// Blocks fixes the pool size directly; 0 derives it from the model's
	// profile-derived KV capacity for the engine's TP degree.
	Blocks int
	// CapacityFactor scales the derived capacity (ignored when Blocks is
	// set); <= 0 means 1.0. The kv sweep uses it to shrink memory.
	CapacityFactor float64
	// PrefixCache enables prompt-prefix sharing across a PromptGroup.
	PrefixCache bool

	// TierBlocks sizes the CPU/SSD spill tier below the pool (tier.go);
	// 0 with TierCapacityFactor == 0 disables the tier (recompute-only).
	TierBlocks int
	// TierCapacityFactor sizes the tier relative to the UNSCALED derived
	// GPU capacity (ignored when TierBlocks is set): host memory and NVMe
	// do not shrink when CapacityFactor squeezes the GPU pool.
	TierCapacityFactor float64
	// TierBytesPerSec is the swap-link bandwidth; <= 0 with a tier
	// configured takes DefaultTierBytesPerSec.
	TierBytesPerSec float64
	// SwapPolicy picks swap vs recompute per preemption victim.
	SwapPolicy SwapPolicy

	// PrefillOnly marks the prefill side of a disaggregated pair:
	// sequences are handed off (Sink.Handoff) right after their first
	// token instead of decoding locally. Single-token requests still
	// complete in place.
	PrefillOnly bool
}

// prefixEntry is one cached prompt prefix, shared by every sequence of a
// PromptGroup. Entries hold their own blocks; refs counts live sequences
// currently relying on the entry (unreferenced entries are evictable).
type prefixEntry struct {
	group  uint64
	tokens int
	blocks int
	refs   int
	// spilled marks an entry whose blocks moved to the spill tier under
	// GPU pressure (evict-to-tier before drop); a hit swaps it back in.
	// Only unreferenced entries spill, so spilled implies refs == 0
	// until the entry is resident again.
	spilled bool
}

// deriveKVBlocks sizes the block pool from the config: an explicit Blocks
// override, or the model's KV capacity for the current TP degree scaled by
// CapacityFactor. The pool is never smaller than one block.
func (e *Engine) deriveKVBlocks() {
	blocks := e.kv.Blocks
	if blocks <= 0 {
		factor := e.kv.CapacityFactor
		if factor <= 0 {
			factor = 1
		}
		blocks = int(e.Cfg.Model.KVCapacityTokens(e.Cfg.TP) * factor / float64(e.kv.BlockTokens))
	}
	if blocks < 1 {
		blocks = 1
	}
	e.kvBlocksCap = blocks
	tier := e.kv.TierBlocks
	if tier <= 0 && e.kv.TierCapacityFactor > 0 {
		tier = int(e.Cfg.Model.KVCapacityTokens(e.Cfg.TP) * e.kv.TierCapacityFactor / float64(e.kv.BlockTokens))
		if tier < 1 {
			tier = 1
		}
	}
	e.kvTierCap = tier
	e.tierBW = e.kv.TierBytesPerSec
	if e.kvTierCap > 0 && e.tierBW <= 0 {
		e.tierBW = DefaultTierBytesPerSec
	}
}

// KVUsage reports KV occupancy: blocks used and pool size under block
// accounting, resident tokens and token capacity on the legacy path.
func (e *Engine) KVUsage() (used, capacity int) {
	if e.kvBlocksCap > 0 {
		return e.kvBlocksUsed, e.kvBlocksCap
	}
	return int(e.kvTokens), int(e.kvCapacity)
}

// SubmitDecode enqueues a request whose prefill (and first token) already
// happened on a prefill-only engine: the sequence enters the admission
// queue with its context resident-to-be and zero prefill left, so the next
// iteration allocates its blocks and it decodes from token two. TokensIn
// is not re-counted — the prefill engine did. Requires block accounting.
func (e *Engine) SubmitDecode(req workload.Request, ctx int) {
	if e.kvBlocksCap == 0 {
		panic("engine: SubmitDecode requires block-granular KV (KVConfig.BlockTokens)")
	}
	st := e.states.get()
	st.req = req
	st.cls = req.Class()
	st.prefillLeft = 0
	st.produced = 1
	st.ctx = ctx
	st.lastToken = req.FirstToken
	e.enqueue(st)
}

// blocksFor is the block footprint of a token count.
func blocksFor(tokens, blockTokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + blockTokens - 1) / blockTokens
}

// takeBlocks allocates n blocks, evicting unreferenced prefix-cache
// entries if the pool is short. It reports whether the allocation fit.
func (e *Engine) takeBlocks(n int) bool {
	if e.kvBlocksUsed+n > e.kvBlocksCap && !e.reclaimBlocks(n) {
		return false
	}
	e.kvBlocksUsed += n
	return true
}

// reclaimBlocks evicts unreferenced prefix entries, oldest first, until n
// blocks are free. With a spill tier that has room, an evicted entry moves
// to the tier instead of dropping (evict-to-tier before drop) and a later
// hit swaps it back. It reports whether it got there.
func (e *Engine) reclaimBlocks(n int) bool {
	if len(e.prefixList) == 0 {
		return false
	}
	kept := e.prefixList[:0]
	for _, pe := range e.prefixList {
		if pe.refs > 0 || pe.spilled || e.kvBlocksCap-e.kvBlocksUsed >= n {
			kept = append(kept, pe)
			continue
		}
		e.kvBlocksUsed -= pe.blocks
		if e.kvTierCap > 0 && e.kvTierUsed+pe.blocks <= e.kvTierCap {
			pe.spilled = true
			e.kvTierUsed += pe.blocks
			e.linkOccupy(e.swapSeconds(pe.tokens))
			kept = append(kept, pe)
			continue
		}
		delete(e.prefixMap, pe.group)
		e.prefixes.put(pe)
	}
	for i := len(kept); i < len(e.prefixList); i++ {
		e.prefixList[i] = nil
	}
	e.prefixList = kept
	return e.kvBlocksCap-e.kvBlocksUsed >= n
}

// derefPrefix drops a sequence's reference on its prefix-cache entry.
func (e *Engine) derefPrefix(st *seqState) {
	if st.prefixTokens == 0 {
		return
	}
	if pe := e.prefixMap[st.req.PromptGroup]; pe != nil {
		pe.refs--
	}
	st.prefixTokens = 0
}

// releaseSeq returns a sequence's blocks (and prefix reference) to the
// pool on completion, handoff, or drain.
func (e *Engine) releaseSeq(st *seqState) {
	e.kvBlocksUsed -= st.kvBlocks
	st.kvBlocks = 0
	e.derefPrefix(st)
}

// rejectSeq drops a request whose KV footprint can never fit the pool,
// releasing anything it held and reporting it to the sink.
func (e *Engine) rejectSeq(st *seqState) {
	e.releaseSeq(st)
	e.KVRejected++
	if e.sink != nil {
		e.sink.Reject(&st.req)
	}
	e.states.put(st)
}

// preemptSeq evicts an active decode sequence under KV pressure. With a
// spill tier configured the victim may swap its blocks out instead of
// dropping them (tier.go decides swap vs recompute); otherwise — and
// whenever the spill is refused — its blocks are freed and it re-enters
// admission with prefillLeft set to its full recomputed context (prompt +
// produced tokens). TTFT was already recorded; the TBT gap spanning the
// preemption is charged honestly.
func (e *Engine) preemptSeq(st *seqState) {
	e.KVPreemptions++
	if e.trySpill(st) {
		return
	}
	e.recomputeSeq(st)
}

// recomputeSeq resolves a preemption the PR 8 way: blocks dropped,
// recompute-on-resume via the preempted queue.
func (e *Engine) recomputeSeq(st *seqState) {
	e.releaseSeq(st)
	e.requeueRecompute(st)
}

// requeueRecompute queues a blockless sequence for recompute-on-resume.
// The resume never re-takes a prefix-cache hit: a sequence preempted
// while sharing an entry it alone kept alive would otherwise re-hit the
// same entry, run out of room at the same block boundary, and cycle
// forever; owning its whole context makes the oversize check terminal.
func (e *Engine) requeueRecompute(st *seqState) {
	st.prefillLeft = st.req.InputTokens + st.produced
	st.ctx = 0
	st.noPrefix = true
	e.KVRecomputes++
	e.preempted.push(st)
}

// rollbackSeq releases the blocks a queued sequence holds for a chunked
// prefill spanning iterations, resetting it to re-prefill from scratch
// when it next reaches admission. Reclaiming under pressure must be able
// to take these back: a blocked queue head squatting on blocks while
// higher-priority work waits for exactly those blocks is the classic KV
// deadlock. Reports whether anything was freed.
func (e *Engine) rollbackSeq(st *seqState) bool {
	if st.kvBlocks == 0 && st.prefixTokens == 0 {
		return false
	}
	st.prefillLeft += st.ctx
	st.ctx = 0
	e.kvBlocksUsed -= st.kvBlocks
	st.kvBlocks = 0
	e.derefPrefix(st)
	return true
}

// rollbackHead reclaims the partial admission of a queue's head, if any.
// The waiting head is the lowest-priority block holder; only active
// sequences outrank the preempted head.
func (e *Engine) rollbackHead(q *fifo[*seqState]) bool {
	return q.len() > 0 && e.rollbackSeq(q.peek())
}

// removeActive splices index i out of the active batch, preserving order
// (oldest first — the preemption policy depends on it), and unlinks the
// sequence.
func (e *Engine) removeActive(i int) {
	e.unlink(e.active[i])
	copy(e.active[i:], e.active[i+1:])
	e.active[len(e.active)-1] = nil
	e.active = e.active[:len(e.active)-1]
}

// maybeInsertPrefix publishes a finished prefill's prompt blocks into the
// prefix cache, if the sequence belongs to a group, did not itself hit the
// cache, the group is not yet cached, and spare blocks exist (the cache
// never displaces live work — copy-on-insert, skipped under pressure).
func (e *Engine) maybeInsertPrefix(st *seqState) {
	if !e.kv.PrefixCache || st.req.PromptGroup == 0 || st.prefixTokens > 0 {
		return
	}
	if _, ok := e.prefixMap[st.req.PromptGroup]; ok {
		return
	}
	blocks := blocksFor(st.req.InputTokens, e.kv.BlockTokens)
	if e.kvBlocksUsed+blocks > e.kvBlocksCap {
		return
	}
	e.kvBlocksUsed += blocks
	pe := e.prefixes.get()
	pe.group, pe.tokens, pe.blocks = st.req.PromptGroup, st.req.InputTokens, blocks
	e.prefixMap[pe.group] = pe
	e.prefixList = append(e.prefixList, pe)
}

// admitBlocks is the block-granular admission pass: preempted sequences
// resume first (strict priority — newly waiting work never starves a
// preempted sequence of the blocks it needs to make progress), then the
// FIFO waiting queue, every chunk gated on free blocks.
func (e *Engine) admitBlocks(budget *int) int {
	// The preempted queue may reclaim the waiting head's partial
	// admission (steal): resuming sequences outrank new prefills, and
	// without the rollback a blocked resume would starve forever behind
	// blocks the lower-priority head already grabbed.
	prefill, blocked := e.admitQueue(&e.preempted, budget, &e.waiting)
	if !blocked {
		more, _ := e.admitQueue(&e.waiting, budget, nil)
		prefill += more
	}
	return prefill
}

// admitQueue admits from one FIFO queue under the shared chunk budget,
// allocating blocks as context grows. steal, if non-nil, is the
// lower-priority queue whose head's blocks may be reclaimed when the pool
// is full. It returns the
// prefill tokens scheduled and whether it stopped on a full pool
// (head-of-line blocking: later queues must not steal the blocks the
// head is waiting for).
func (e *Engine) admitQueue(q *fifo[*seqState], budget *int, steal *fifo[*seqState]) (prefill int, blocked bool) {
	for q.len() > 0 && *budget > 0 {
		st := q.peek()
		// Lazily apply a prefix-cache hit before the first chunk: skip
		// the covered prompt tokens, sharing the entry's blocks.
		if e.kv.PrefixCache && st.ctx == 0 && st.req.PromptGroup != 0 && !st.noPrefix {
			pe := e.prefixMap[st.req.PromptGroup]
			if pe != nil && pe.spilled && !e.unspillPrefix(pe) {
				pe = nil // tiered entry can't come back yet: miss
			}
			if pe != nil {
				skip := pe.tokens
				if skip > st.prefillLeft {
					skip = st.prefillLeft
				}
				if skip > 0 {
					st.prefillLeft -= skip
					st.ctx += skip
					st.prefixTokens = skip
					pe.refs++
					e.KVPrefixHits++
				}
			}
		}
		chunk := st.prefillLeft
		if chunk > *budget {
			chunk = *budget
		}
		need := blocksFor(st.ctx+chunk-st.prefixTokens, e.kv.BlockTokens)
		if need > e.kvBlocksCap {
			// Can never fit, even with the whole pool free: reject
			// rather than deadlock behind an unsatisfiable head.
			q.pop()
			e.rejectSeq(st)
			continue
		}
		if alloc := need - st.kvBlocks; alloc > 0 {
			ok := e.takeBlocks(alloc)
			for !ok && steal != nil && e.rollbackHead(steal) {
				ok = e.takeBlocks(alloc)
			}
			if !ok {
				blocked = true
				break // pool full: FIFO head waits
			}
			st.kvBlocks = need
		}
		st.prefillLeft -= chunk
		st.ctx += chunk
		prefill += chunk
		*budget -= chunk
		if st.prefillLeft == 0 {
			e.maybeInsertPrefix(st)
			e.join(st)
			q.pop()
		}
	}
	return prefill, blocked
}

// reserveDecode guarantees every active sequence a block for the token it
// produces this iteration. Only a sequence whose next token crosses a
// block boundary needs one, and the reserve calendar files exactly those
// under this iteration, in batch order. Under pressure it evicts
// unreferenced prefix entries first, then preempts the youngest active
// sequences; a sequence whose next token can never fit the whole pool is
// rejected. The loop
// terminates because every failed allocation reclaims a queue head's
// partial admission or removes a sequence from the batch (possibly the
// needy one itself, which then resumes via the preempted queue once
// blocks free up).
//
//dynamolint:steadystate
func (e *Engine) reserveDecode() {
	for st := e.needs.due(e.iter); st != nil; st = e.needs.due(e.iter) {
		// Due now: its blocks hold its context exactly, so this token
		// takes one more.
		need := st.kvBlocks + 1
		if need > e.kvBlocksCap {
			e.removeActive(e.activeIndex(st))
			e.rejectSeq(st)
			continue
		}
		selfGone := false
		for !e.takeBlocks(need - st.kvBlocks) {
			if e.rollbackHead(&e.waiting) || e.rollbackHead(&e.preempted) {
				continue
			}
			j := len(e.active) - 1
			v := e.active[j]
			e.removeActive(j)
			e.preemptSeq(v)
			if v == st {
				selfGone = true
				break
			}
		}
		if selfGone {
			continue
		}
		st.kvBlocks = need
		e.needs.drop(st)
		st.needIter += e.kv.BlockTokens
		e.needs.add(st)
	}
}

// nextNeed is the iteration whose token first overflows an active
// sequence's blocks: the one at which its context minus its shared
// prefix reaches kvBlocks*BlockTokens.
//
//dynamolint:steadystate
func (e *Engine) nextNeed(st *seqState) int {
	return st.joinIter + st.kvBlocks*e.kv.BlockTokens + st.prefixTokens - st.ctx
}

// activeIndex is st's position in the active batch.
func (e *Engine) activeIndex(st *seqState) int {
	for i, a := range e.active {
		if a == st {
			return i
		}
	}
	panic("engine: sequence not in the active batch")
}

// clearPrefix drops the whole prefix cache, resident and spilled entries
// alike (drain path; the caller resets the pool counters).
func (e *Engine) clearPrefix() {
	for i, pe := range e.prefixList {
		delete(e.prefixMap, pe.group)
		e.prefixes.put(pe)
		e.prefixList[i] = nil
	}
	e.prefixList = e.prefixList[:0]
}
