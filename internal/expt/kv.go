package expt

import (
	"fmt"
	"strings"

	"dynamollm/internal/core"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// KVPoint is one cell of the KV-cache sweep: a KV capacity factor, a
// shared-prompt share, the disaggregation switch, and the spill-tier
// axis, with every system run under those conditions on the event
// backend.
type KVPoint struct {
	// CapacityFactor scales each engine's profile-derived KV block
	// capacity (1 = full capacity, small values force preemption).
	CapacityFactor float64
	// PrefixShare is the fraction of requests tagged with one of a few
	// shared prompt templates (prefix-cache hits); 0 disables the cache.
	PrefixShare float64
	// Disagg reports whether the cell ran with prefill/decode pools split.
	Disagg bool
	// Tier is the KV spill tier below the GPU pool (none/cpu/ssd) and
	// Policy the swap-vs-recompute rule the cell ran under.
	Tier    core.KVTier
	Policy  core.KVSwapPolicy
	Systems []SystemRun
}

// kvPrefixGroups is the number of shared prompt templates the prefix
// cells spread their tagged requests over — few enough that every
// template stays hot in the per-engine prefix cache.
const kvPrefixGroups = 4

// KVSweep runs the KV-cache grid — capacity factor x prefix share x
// disaggregation x spill tier — across the six systems, always under
// event fidelity (block-granular KV accounting has no fluid counterpart).
// The axes are deliberately not fully crossed: the capacity cells isolate
// preemption pressure, the prefix cells isolate cache hits at full
// capacity, the disagg cell isolates the handoff path, and the tier cells
// re-run the pressured capacities with a cpu or ssd spill tier (plus one
// swap-always policy cell at the tightest capacity), so each mechanism is
// readable in its own rows. The flattened grid runs through one worker
// pool; results are deterministic for any Config.Parallelism.
func (c Config) KVSweep() ([]KVPoint, error) {
	return c.kvRuns(core.SystemNames)
}

// kvRuns is KVSweep over a chosen system list.
func (c Config) kvRuns(systems []string) ([]KVPoint, error) {
	caps := []float64{1, 0.02, 0.008, 0.003}
	shares := []float64{0.5, 0.9}
	if c.Quick {
		caps = []float64{1, 0.01, 0.003}
		shares = []float64{0.9}
	}
	tiers := []core.KVTier{core.KVTierCPU, core.KVTierSSD}
	pressured := caps[1:] // tier cells only matter where preemption happens
	base := c.hourTrace()
	horizon := simclock.Time(simclock.Hour)
	points := make([]KVPoint, 0, len(caps)+len(shares)+len(tiers)*len(pressured)+2)
	for _, f := range caps {
		points = append(points, KVPoint{CapacityFactor: f})
	}
	for _, tier := range tiers {
		for _, f := range pressured {
			points = append(points, KVPoint{CapacityFactor: f, Tier: tier})
		}
	}
	if !c.Quick {
		// One policy cell: swap-always at the tightest capacity, against
		// the auto cell above it, isolates what the cost comparison buys.
		points = append(points, KVPoint{CapacityFactor: caps[len(caps)-1], Tier: core.KVTierCPU, Policy: core.KVSwapAlways})
	}
	for _, s := range shares {
		points = append(points, KVPoint{CapacityFactor: 1, PrefixShare: s})
	}
	points = append(points, KVPoint{CapacityFactor: 1, Disagg: true})

	jobs := make([]gridJob, 0, len(points)*len(systems))
	for group := range points {
		p := points[group]
		tr := base
		if p.PrefixShare > 0 {
			mod := trace.GroupPrompts(0, horizon, p.PrefixShare,
				kvPrefixGroups, scenarioSeed(c.Seed, fmt.Sprintf("kv/prefix/%g", p.PrefixShare)))
			tr = mod(base)
		}
		for _, name := range systems {
			opts := c.mustSystemOptions(name, func(o *core.Options) {
				o.Fidelity = core.FidelityEvent
				o.KVBlockTokens = core.DefaultKVBlockTokens
				if p.CapacityFactor > 0 && p.CapacityFactor < 1 {
					o.KVCapacityFactor = p.CapacityFactor
				}
				o.KVPrefixCache = p.PrefixShare > 0
				o.Disagg = p.Disagg
				o.KVTier = p.Tier
				o.KVSwapPolicy = p.Policy
			})
			jobs = append(jobs, gridJob{group: group, tr: tr, name: name, opts: opts})
		}
	}
	grouped := c.gridRuns(jobs, len(points))
	for i := range points {
		points[i].Systems = grouped[i]
	}
	return points, nil
}

// Goodput is the sweep's monotonicity metric: the fraction of routed
// requests that completed within SLO. Unlike SLOAttainment (which is
// conditioned on completion), goodput also charges preemption-driven
// squashes and admission rejections, so shrinking the KV pool can only
// move it down.
func Goodput(r *core.Result) float64 {
	if r.Requests == 0 {
		return 1
	}
	return float64(r.SLOMet) / float64(r.Requests)
}

// RenderKV formats the KV sweep: one block per cell, then the summary
// lines — goodput versus capacity per tier, swaps replacing recomputes,
// and mean TTFT versus prefix share for the full system — that state the
// acceptance trends directly.
func RenderKV(points []KVPoint) string {
	var b strings.Builder
	b.WriteString("KV sweep: capacity factor x prefix share x disaggregation x spill tier (event fidelity)\n\n")
	for _, p := range points {
		fmt.Fprintf(&b, "capacity=%g prefix-share=%g disagg=%v tier=%s policy=%s\n",
			p.CapacityFactor, p.PrefixShare, p.Disagg, p.Tier, p.Policy)
		b.WriteString("  system      SLO att  goodput  preempt  recomp  swapout  swapin  evict  hits    reject  handoff  ttft-p50  energy(kWh)\n")
		for _, run := range p.Systems {
			res := run.Result
			fmt.Fprintf(&b, "  %-11s  %.3f   %.3f   %6d  %6d   %6d  %6d  %5d  %6d  %6d   %6d    %6.3f   %10.2f\n",
				run.Name, res.SLOAttainment(), Goodput(res),
				res.KVPreemptions, res.KVRecomputes, res.KVSwapOuts, res.KVSwapIns, res.KVTierEvictions,
				res.KVPrefixHits, res.KVRejected, res.Handoffs,
				res.TTFT.Percentile(50), res.EnergyKWh())
		}
		b.WriteString("\n")
	}
	if dyn := kvSystemSeries(points, "dynamollm"); len(dyn) > 0 {
		b.WriteString(dyn)
	}
	return b.String()
}

// kvSystemSeries renders the two acceptance trends for one system: the
// goodput trajectory as capacity shrinks, and the TTFT effect of the
// prefix cache at full capacity.
func kvSystemSeries(points []KVPoint, name string) string {
	find := func(p KVPoint) *core.Result { return systemResult(p.Systems, name) }
	var b strings.Builder
	fmt.Fprintf(&b, "Summary (%s):\n", name)
	tiers := []core.KVTier{core.KVTierNone, core.KVTierCPU, core.KVTierSSD}
	for _, tier := range tiers {
		any := false
		for _, p := range points {
			if p.PrefixShare != 0 || p.Disagg || p.Tier != tier || p.Policy != core.KVSwapAuto {
				continue
			}
			res := find(p)
			if res == nil {
				continue
			}
			if !any {
				if tier == core.KVTierNone {
					b.WriteString("  capacity -> goodput:")
				} else {
					fmt.Fprintf(&b, "  capacity -> goodput (tier=%s):", tier)
				}
				any = true
			}
			fmt.Fprintf(&b, "  %g:%.3f", p.CapacityFactor, Goodput(res))
		}
		if any {
			b.WriteString("\n")
		}
	}
	// Swaps replacing recomputes: pair each tiered cell with the
	// recompute-only cell at the same capacity.
	for _, p := range points {
		if p.Tier == core.KVTierNone || p.Policy != core.KVSwapAuto || p.PrefixShare != 0 || p.Disagg {
			continue
		}
		tr := find(p)
		var none *core.Result
		for _, q := range points {
			if q.Tier == core.KVTierNone && !q.Disagg && q.PrefixShare == 0 && q.CapacityFactor == p.CapacityFactor {
				none = find(q)
			}
		}
		if tr == nil || none == nil {
			continue
		}
		fmt.Fprintf(&b, "  capacity %g tier=%s: recomputes %d -> %d, swaps %d (evictions %d)\n",
			p.CapacityFactor, p.Tier, none.KVRecomputes, tr.KVRecomputes, tr.KVSwapOuts, tr.KVTierEvictions)
	}
	var plain *core.Result
	for _, p := range points {
		if p.CapacityFactor == 1 && p.PrefixShare == 0 && !p.Disagg {
			plain = find(p)
		}
	}
	for _, p := range points {
		if p.PrefixShare == 0 || plain == nil {
			continue
		}
		if res := find(p); res != nil {
			fmt.Fprintf(&b, "  prefix share %g: mean TTFT %.3fs -> %.3fs (%d hits)\n",
				p.PrefixShare, plain.TTFT.Mean(), res.TTFT.Mean(), res.KVPrefixHits)
		}
	}
	return b.String()
}
