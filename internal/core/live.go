package core

import (
	"fmt"
	"sort"

	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// Live is an incrementally driven cluster simulation: the same tick loop
// RunWithRepo executes in one shot, exposed as an advance-as-you-go
// handle for the serving control plane. The caller owns the pacing —
// AdvanceTo runs exactly the whole ticks that newly fit below the target
// time, so the cost of an advance is proportional to the elapsed delta,
// never to the session's total history. Arrivals can be injected between
// advances at any instant at or after the computed boundary; they live
// in a sorted side queue merged with the base trace at consumption, so
// the arrival stream the tick loop sees stays time-ordered (the
// trace.Trace contract) without per-injection memmoves of the pending
// trace.
//
// A Live is single-goroutine state: callers serialize access (the serving
// session holds one mutex around every method). Driving the same tick
// sequence as RunWithRepo with the same options and trace produces the
// identical Result — asserted by TestLiveMatchesRun.
type Live struct {
	sm       *simulation
	ticks    int // completed ticks; boundary = ticks * opts.Tick
	finished bool
}

// NewLive prepares an incremental-advance simulation over the
// time-ordered base trace tr. The Live reads tr and never writes it
// (injections join a side queue), so it shares the caller's slice
// instead of copying it: the caller must not modify tr while the Live is
// in use. Static provisioning and predictor warming see only this base
// trace, exactly as a batch run would.
func NewLive(tr trace.Trace, opts Options, repo *profile.Repository) *Live {
	return &Live{sm: newSimulation(tr, opts, repo, false)}
}

// NewLoopingLive is NewLive over a base trace that replays forever, so
// background load never runs dry. The replay period is the trace's last
// arrival instant, and pass k serves every entry again at e.At +
// k*period: the offset depends only on the pass index, so how the Live
// is advanced (one tick per call, many ticks in one call, or a restore
// that fast-forwards) never moves an arrival. The predictor's warm curve
// (opts.WarmLoad, or the trace's own template when nil) wraps at the same
// period. A trace whose last arrival is at t = 0 is served once.
func NewLoopingLive(tr trace.Trace, opts Options, repo *profile.Repository) *Live {
	return &Live{sm: newSimulation(tr, opts, repo, true)}
}

// TickSeconds returns the simulation step in virtual seconds.
func (l *Live) TickSeconds() float64 { return l.sm.opts.Tick }

// Options returns the run options with every default resolved.
func (l *Live) Options() Options { return l.sm.opts }

// Boundary returns the virtual time up to which the simulation has been
// computed: the end of the last executed tick (a whole-tick multiple).
func (l *Live) Boundary() simclock.Time {
	return simclock.Time(float64(l.ticks) * l.sm.opts.Tick)
}

// AdvanceTo executes every whole tick that ends at or before target and
// returns how many ran. Ticks already executed are never revisited, so
// repeated calls with the same target are free and the cost of any call
// is bounded by target minus the previous boundary.
func (l *Live) AdvanceTo(target simclock.Time) int {
	if l.finished {
		return 0
	}
	n := 0
	tick := l.sm.opts.Tick
	for simclock.Time(float64(l.ticks+1)*tick) <= target {
		l.sm.step(l.ticks)
		l.ticks++
		n++
	}
	if n > 0 {
		// Keep the run duration current so mid-session aggregates
		// (AvgServers, a final Finish) reflect the time actually served.
		l.sm.res.Duration = float64(l.ticks) * tick
	}
	return n
}

// Inject enqueues one live arrival, keeping the injection queue
// time-ordered; the tick loop merges it with the base trace at
// consumption (so the merged arrival stream honours the trace.Trace
// time-ordering contract without ever memmoving the base trace's pending
// tail). Entries timestamped before the computed boundary are clamped to
// it — the simulation cannot rewrite served history; the actual arrival
// instant is returned.
func (l *Live) Inject(e trace.Entry) (simclock.Time, error) {
	if l.finished {
		return 0, fmt.Errorf("core: inject into a finished live simulation")
	}
	if b := l.Boundary(); e.At < b {
		e.At = b
	}
	sm := l.sm
	// Reclaim the consumed prefix once it dominates the queue: under
	// sustained injection there is almost always one pending entry (the
	// trailing partial tick), so the full-drain reset in nextArrival
	// alone would let the queue grow for the life of the session.
	if sm.injIdx > 64 && sm.injIdx*2 >= len(sm.injected) {
		n := copy(sm.injected, sm.injected[sm.injIdx:])
		sm.injected = sm.injected[:n]
		sm.injIdx = 0
	}
	// Stable position among pending injections: after every entry at the
	// same instant, so equal-time injections serve in arrival order. Live
	// stamps are monotonic, so this is normally an append.
	pos := sm.injIdx + sort.Search(len(sm.injected)-sm.injIdx, func(i int) bool {
		return sm.injected[sm.injIdx+i].At > e.At
	})
	sm.injected = append(sm.injected, trace.Entry{})
	copy(sm.injected[pos+1:], sm.injected[pos:])
	sm.injected[pos] = e
	return e.At, nil
}

// Loops reports how many passes over the base trace a looping Live has
// finished: it steps when the tick loop consumes a pass's last arrival.
// Always 0 for NewLive.
func (l *Live) Loops() int { return l.sm.loops }

// PendingArrivals reports arrivals not yet consumed by the tick loop:
// the rest of the current pass over the base trace plus the injection
// queue.
func (l *Live) PendingArrivals() int {
	return (len(l.sm.tr) - l.sm.idx) + (len(l.sm.injected) - l.sm.injIdx)
}

// Result exposes the running aggregates. The caller must not read it
// concurrently with AdvanceTo/Inject/Finish; between calls it reflects
// everything up to the boundary.
func (l *Live) Result() *Result { return l.sm.res }

// ActiveServers reports live capacity in 8-GPU server equivalents.
func (l *Live) ActiveServers() int { return (*Controls)(l.sm).ActiveServers() }

// KVStats is the cluster's KV-cache occupancy and dynamics snapshot: pool
// usage summed over live event engines plus the run's KV counters. Units
// are blocks under block-granular accounting (Options.KVBlockTokens > 0)
// and tokens under the legacy counting path; both are zero under fluid
// fidelity, which has no per-request KV state. The JSON keys are the
// ones serve's /stats document carries.
type KVStats struct {
	UsedBlocks  int `json:"kv_used_blocks"`
	TotalBlocks int `json:"kv_total_blocks"`
	Preemptions int `json:"kv_preemptions"`
	PrefixHits  int `json:"kv_prefix_hits"`
	Rejected    int `json:"kv_rejected"`
	Handoffs    int `json:"kv_handoffs"`
	// Spill-tier occupancy and dynamics (Options.KVTier != KVTierNone).
	TierUsedBlocks  int `json:"kv_tier_used_blocks"`
	TierTotalBlocks int `json:"kv_tier_total_blocks"`
	SwapOuts        int `json:"kv_swap_outs"`
	SwapIns         int `json:"kv_swap_ins"`
	Recomputes      int `json:"kv_recomputes"`
	TierEvictions   int `json:"kv_tier_evictions"`
}

// KVStats reports current KV occupancy and the run's KV counters. Like
// Result, it must not be called concurrently with AdvanceTo/Inject/Finish;
// between calls it reflects the last computed tick boundary.
func (l *Live) KVStats() KVStats {
	res := l.sm.res
	st := KVStats{
		Preemptions:   res.KVPreemptions,
		PrefixHits:    res.KVPrefixHits,
		Rejected:      res.KVRejected,
		Handoffs:      res.Handoffs,
		SwapOuts:      res.KVSwapOuts,
		SwapIns:       res.KVSwapIns,
		Recomputes:    res.KVRecomputes,
		TierEvictions: res.KVTierEvictions,
	}
	if eb, ok := l.sm.backend.(*eventBackend); ok {
		for _, ie := range eb.engines {
			if ie == nil {
				continue
			}
			u, c := ie.eng.KVUsage()
			st.UsedBlocks += u
			st.TotalBlocks += c
			tu, tc := ie.eng.KVTierUsage()
			st.TierUsedBlocks += tu
			st.TierTotalBlocks += tc
		}
	}
	return st
}

// PriceMult returns the electricity-price multiplier currently in force.
func (l *Live) PriceMult() float64 { return l.sm.priceMult }

// SLOFactor returns the SLO scaling factor currently in force.
func (l *Live) SLOFactor() float64 { return l.sm.sloMult }

// Finish closes the run: the backend drains in-flight work (the event
// backend lets its engines run to completion, reporting what can never
// finish as squashed) and the run-level aggregates are finalized. Further
// advances and injections are rejected. Finish is idempotent.
func (l *Live) Finish() *Result {
	if !l.finished {
		l.finished = true
		l.sm.finish()
	}
	return l.sm.res
}
