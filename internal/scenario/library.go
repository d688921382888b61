package scenario

// Library returns the built-in scenarios, freshly constructed on every
// call so callers may mutate their copies. Each exercises a different
// failure mode of an energy-aware reconfiguration policy: reacting to
// load it did not predict, losing capacity it planned around, and
// re-weighing its objective when the price of a joule moves.
func Library() []*Scenario {
	return []*Scenario{
		{
			Name:        "flashcrowd",
			Description: "45-minute 3.5x flash crowd on a Tuesday-morning ramp the load predictor never saw",
			Service:     "conversation",
			StartHours:  32, // Tuesday 08:00
			Days:        0.25,
			Events: []Event{
				{Kind: Spike, AtHours: 2, DurationHours: 0.75, RateMult: 3.5},
			},
		},
		{
			Name:        "blackfriday",
			Description: "day-long 2.2x demand surge with an evening electricity-price spike on top",
			Service:     "conversation",
			StartHours:  96, // Friday 00:00
			Days:        1,
			Events: []Event{
				{Kind: Spike, AtHours: 8, DurationHours: 10, RateMult: 2.2},
				{Kind: Price, AtHours: 17, DurationHours: 4, PriceMult: 2.5},
			},
		},
		{
			Name:        "gpu-failures",
			Description: "two cascading server outages (4 then 2 machines) with staggered repairs",
			Service:     "conversation",
			StartHours:  32, // Tuesday 08:00
			Days:        0.25,
			Events: []Event{
				{Kind: Outage, AtHours: 1.5, Servers: 4},
				{Kind: Recovery, AtHours: 3, Servers: 4},
				{Kind: Outage, AtHours: 4, Servers: 2},
				{Kind: Recovery, AtHours: 5, Servers: 2},
			},
		},
		{
			Name:        "price-surge",
			Description: "duck-curve day: midday solar glut at 0.4x prices, 4x evening-ramp surge",
			Service:     "conversation",
			StartHours:  24, // Tuesday 00:00
			Days:        1,
			Events: []Event{
				{Kind: Price, AtHours: 11, DurationHours: 3, PriceMult: 0.4},
				{Kind: Price, AtHours: 17, DurationHours: 4, PriceMult: 4},
			},
		},
		{
			Name:        "slo-crunch",
			Description: "contractual SLO tightening to half the latency budget for two peak hours",
			Service:     "conversation",
			StartHours:  32, // Tuesday 08:00
			Days:        0.25,
			Events: []Event{
				{Kind: SLO, AtHours: 2, DurationHours: 2, SLOFactor: 0.5},
			},
		},
		{
			Name:        "chaos-monkey",
			Description: "stochastic MTBF-driven crashes plus a correlated rack failure, a straggler window, and a frontend blip",
			Service:     "conversation",
			StartHours:  32, // Tuesday 08:00
			Days:        0.25,
			Events: []Event{
				// Random single-server crashes (mean one per 1.5 h, mean
				// repair 45 min) over the whole window; the concrete
				// instants come from the seeded ExpandFaults expansion.
				{Kind: Faults, AtHours: 0, DurationHours: 6, MTBFHours: 1.5, RepairHours: 0.75},
				// A placement group loses two co-located instances at once.
				{Kind: Rack, AtHours: 2, Servers: 2, RepairHours: 1},
				// Two instances throttle to 60% clock for an hour.
				{Kind: Straggler, AtHours: 3, DurationHours: 1, Servers: 2, SlowFactor: 0.6},
				// A 15-minute frontend blip adds 2 s of submission delay.
				{Kind: Blip, AtHours: 4.5, DurationHours: 0.25, DelaySeconds: 2},
			},
		},
		{
			Name:        "cache-thrash",
			Description: "prefix-cache whiplash: two shared prompt templates, then a fan-out to 64 distinct templates that churns the cache",
			Service:     "conversation",
			StartHours:  32, // Tuesday 08:00
			Days:        0.25,
			Events: []Event{
				// Cache-friendly phase: 80% of requests share 2 templates.
				{Kind: CacheThrash, AtHours: 0, DurationHours: 3, Fraction: 0.8, Groups: 2},
				// Thrash phase: the same share spread over 64 templates.
				{Kind: CacheThrash, AtHours: 3, DurationHours: 3, Fraction: 0.8, Groups: 64},
			},
		},
		{
			Name:        "tier-thrash",
			Description: "KV spill-tier whiplash: load oscillates across the tier boundary — repeated short spikes force swap-outs, the lulls between them swap everything back",
			Service:     "conversation",
			StartHours:  32, // Tuesday 08:00
			Days:        0.25,
			Events: []Event{
				// A hot shared-prefix phase fills the pool fast so each spike
				// lands on an already-pressured cache.
				{Kind: CacheThrash, AtHours: 0, DurationHours: 6, Fraction: 0.8, Groups: 2},
				// Square-wave pressure: 30-minute 3x bursts separated by
				// one-hour lulls. Each burst pushes victims over the tier
				// boundary; each lull pulls them back, so a tiered KV config
				// pays the swap link in both directions every cycle.
				{Kind: Spike, AtHours: 0.5, DurationHours: 0.5, RateMult: 3},
				{Kind: Spike, AtHours: 2, DurationHours: 0.5, RateMult: 3},
				{Kind: Spike, AtHours: 3.5, DurationHours: 0.5, RateMult: 3},
				{Kind: Spike, AtHours: 5, DurationHours: 0.5, RateMult: 3},
			},
		},
		{
			Name:        "mixed-week",
			Description: "a week on the Coding service with everything at once: SLO crunch, flash crowd, agent-launch mix shift, rack outage, weekend price surge",
			Service:     "coding",
			Days:        7,
			Events: []Event{
				{Kind: SLO, AtHours: 33, DurationHours: 3, SLOFactor: 0.5},
				{Kind: Spike, AtHours: 62, DurationHours: 1, RateMult: 3},
				{Kind: MixShift, AtHours: 80, DurationHours: 6, Fraction: 0.6,
					ClassWeights: map[string]float64{"LS": 3, "LM": 2, "LL": 1}},
				{Kind: Outage, AtHours: 106, Servers: 3},
				{Kind: Recovery, AtHours: 109, Servers: 3},
				{Kind: Price, AtHours: 138, DurationHours: 4, PriceMult: 3},
			},
		},
	}
}

// Names lists the built-in scenario names in library order.
func Names() []string {
	lib := Library()
	out := make([]string, len(lib))
	for i, s := range lib {
		out[i] = s.Name
	}
	return out
}

// ByName returns the built-in scenario with the given name, or false.
func ByName(name string) (*Scenario, bool) {
	for _, s := range Library() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}
