package expt

import (
	"fmt"
	"strings"

	"dynamollm/internal/core"
	"dynamollm/internal/scenario"
)

// ScenarioResult bundles one scenario's multi-system comparison.
type ScenarioResult struct {
	Scenario *scenario.Scenario
	// EffectiveDays is the simulated horizon after any Quick capping.
	EffectiveDays float64
	Systems       []SystemRun
}

// scenarioSeed derives a per-scenario trace seed from the harness seed so
// every scenario gets an independent but reproducible arrival stream
// (FNV-1a over the name, folded into the base seed).
func scenarioSeed(base uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return base ^ h
}

// ScenarioRuns drives each scenario through the named systems. Per
// scenario, the perturbed trace is generated once and shared read-only by
// every system; each simulation gets its own freshly compiled event hook
// (timelines carry per-run cursor state). The scenario x system grid is
// flattened through one worker pool, and results are deterministic for
// any Config.Parallelism.
//
// Quick mode caps every scenario at one simulated day; horizons of two or
// more days run at half the peak rate (the Fig. 14 thinning — reported
// quantities are ratios, insensitive to fleet scale) with the fleet sized
// to the trace.
func (c Config) ScenarioRuns(scs []*scenario.Scenario, systems []string) ([]ScenarioResult, error) {
	type group struct {
		sc   *scenario.Scenario
		days float64
	}
	jobs := make([]gridJob, 0, len(scs)*len(systems))
	groups := make([]group, 0, len(scs))
	for si, sc := range scs {
		maxDays := 0.0
		if c.Quick {
			maxDays = 1
		}
		days := sc.Days
		if maxDays > 0 && days > maxDays {
			days = maxDays
		}
		sub := c
		if sc.PeakRPS > 0 {
			sub.PeakRPS = sc.PeakRPS
		}
		if days >= 2 {
			sub.PeakRPS *= 0.5
		}
		tr, err := sc.GenTrace(sub.PeakRPS, maxDays, scenarioSeed(c.Seed, sc.Name))
		if err != nil {
			return nil, err
		}
		svc, err := sc.ServiceProfile()
		if err != nil {
			return nil, err
		}
		servers := 0
		if days >= 2 {
			servers = serversFor(tr)
		}
		groups = append(groups, group{sc: sc, days: days})
		for _, name := range systems {
			sc := sc
			opts := sub.mustSystemOptions(name, func(o *core.Options) {
				o.WarmLoad = sub.warm(svc, sc.Start())
				o.Hook = sc.Hook(scenarioSeed(c.Seed, sc.Name)) // fresh per simulation
				if servers > 0 {
					o.Servers = servers
				}
			})
			jobs = append(jobs, gridJob{group: si, tr: tr, name: name, opts: opts})
		}
	}
	grouped := c.gridRuns(jobs, len(groups))
	out := make([]ScenarioResult, len(groups))
	for i, g := range groups {
		out[i] = ScenarioResult{Scenario: g.sc, EffectiveDays: g.days, Systems: grouped[i]}
	}
	return out, nil
}

// ScenarioSweep compares all six systems across the built-in scenario
// library — the standing evaluation every policy change runs against.
func (c Config) ScenarioSweep() ([]ScenarioResult, error) {
	return c.ScenarioRuns(scenario.Library(), core.SystemNames)
}

// RenderScenario formats one scenario's comparison table.
func RenderScenario(r ScenarioResult) string {
	var b strings.Builder
	sc := r.Scenario
	fmt.Fprintf(&b, "Scenario %q: %s\n", sc.Name, sc.Description)
	fmt.Fprintf(&b, "  service=%s days=%.2f events=%d\n", sc.ServiceName(), r.EffectiveDays, len(sc.Events))
	b.WriteString("  system      energy(kWh)  bill($)   SLO att   TTFT p99 (s)  squash  outage  recfg\n")
	for _, run := range r.Systems {
		res := run.Result
		fmt.Fprintf(&b, "  %-11s %10.2f  %7.2f    %.3f    %9.3f   %6d  %6d  %5d\n",
			run.Name, res.EnergyKWh(), res.EnergyCostUSD, res.SLOAttainment(),
			res.TTFT.Percentile(99), res.Squashed, res.Outages,
			res.ScaleOuts+res.ScaleIns+res.Reshards)
	}
	return b.String()
}

// RenderScenarioSweep formats the full sweep: one block per scenario
// followed by a DynamoLLM-vs-SinglePool summary across scenarios.
func RenderScenarioSweep(rs []ScenarioResult) string {
	var b strings.Builder
	b.WriteString("Scenario sweep: injected cluster conditions across the system ladder\n\n")
	for _, r := range rs {
		b.WriteString(RenderScenario(r))
		b.WriteString("\n")
	}
	b.WriteString("Summary (dynamollm vs singlepool):\n")
	b.WriteString("  scenario      energy saving   bill saving   SLO att (dyn/base)\n")
	for _, r := range rs {
		base, dyn := systemResult(r.Systems, "singlepool"), systemResult(r.Systems, "dynamollm")
		if base == nil || dyn == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-13s %11s   %11s      %.3f / %.3f\n",
			r.Scenario.Name,
			pct(1-dyn.EnergyJ/base.EnergyJ),
			pct(1-dyn.EnergyCostUSD/base.EnergyCostUSD),
			dyn.SLOAttainment(), base.SLOAttainment())
	}
	return b.String()
}
