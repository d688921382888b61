package expt

import (
	"fmt"
	"strings"

	"dynamollm/internal/core"
	"dynamollm/internal/scenario"
)

// ChaosPoint is one cell of the chaos sweep: a failure intensity, a
// straggler fraction, and a frontend retry budget, with every system run
// under those conditions.
type ChaosPoint struct {
	// MTBFHours is the mean time between injected single-server crashes.
	MTBFHours float64
	// StragglerFrac is the fraction of a reference fleet (chaosFleet
	// servers) degraded to 60% clock for a mid-window stretch.
	StragglerFrac float64
	// RetryBudget is core.Options.RetryBudget (negative = retries off).
	RetryBudget int
	Systems     []SystemRun
}

// chaosFleet is the reference fleet size the straggler fraction is scaled
// against. The simulated fleet autoscales, so the axis is expressed
// against a fixed reference rather than a moving target.
const chaosFleet = 16

// ChaosSweep runs the fault-injection grid — crash intensity x straggler
// fraction x retry budget — across the six systems. One arrival trace is
// shared by every cell (the conditions differ, the load does not), and
// each simulation gets its own freshly compiled hook with the fault plan
// expanded from a per-cell seed. The flattened grid runs through one
// worker pool; results are deterministic for any Config.Parallelism.
func (c Config) ChaosSweep() ([]ChaosPoint, error) {
	mtbfs := []float64{3, 1}
	fracs := []float64{0, 0.25}
	budgets := []int{-1, core.DefaultRetryBudget}
	if c.Quick {
		mtbfs = []float64{1}
		fracs = []float64{0.25}
	}
	base := &scenario.Scenario{
		Name:       "chaos-sweep",
		Service:    "conversation",
		StartHours: 32, // Tuesday 08:00
		Days:       0.25,
	}
	tr, err := base.GenTrace(c.PeakRPS, 0, scenarioSeed(c.Seed, base.Name))
	if err != nil {
		return nil, err
	}
	svc, err := base.ServiceProfile()
	if err != nil {
		return nil, err
	}
	points := make([]ChaosPoint, 0, len(mtbfs)*len(fracs)*len(budgets))
	jobs := make([]gridJob, 0, len(mtbfs)*len(fracs)*len(budgets)*len(core.SystemNames))
	for _, mtbf := range mtbfs {
		for _, frac := range fracs {
			for _, budget := range budgets {
				sc := *base
				sc.Events = []scenario.Event{
					{Kind: scenario.Faults, AtHours: 0, DurationHours: sc.Days * 24,
						MTBFHours: mtbf, RepairHours: 0.5},
				}
				if n := int(frac*chaosFleet + 0.5); n > 0 {
					sc.Events = append(sc.Events, scenario.Event{
						Kind: scenario.Straggler, AtHours: 1, DurationHours: 3,
						Servers: n, SlowFactor: 0.6,
					})
				}
				group := len(points)
				points = append(points, ChaosPoint{
					MTBFHours: mtbf, StragglerFrac: frac, RetryBudget: budget,
				})
				// The hook seed folds the cell coordinates in so every cell
				// draws an independent fault plan even where event lists
				// coincide (e.g. the frac=0 cells at one MTBF).
				hookSeed := scenarioSeed(c.Seed, fmt.Sprintf("chaos/%g/%g/%d", mtbf, frac, budget))
				for _, name := range core.SystemNames {
					sc := sc
					opts := c.mustSystemOptions(name, func(o *core.Options) {
						o.WarmLoad = c.warm(svc, sc.Start())
						o.Hook = sc.Hook(hookSeed) // fresh per simulation
						o.RetryBudget = budget
					})
					jobs = append(jobs, gridJob{group: group, tr: tr, name: name, opts: opts})
				}
			}
		}
	}
	grouped := c.gridRuns(jobs, len(points))
	for i := range points {
		points[i].Systems = grouped[i]
	}
	return points, nil
}

// RenderChaos formats the chaos sweep: one block per grid cell, then a
// retry-budget summary showing what the retry path buys the full system
// under the harshest conditions.
func RenderChaos(points []ChaosPoint) string {
	var b strings.Builder
	b.WriteString("Chaos sweep: crash intensity x straggler fraction x retry budget\n\n")
	if len(points) == 0 {
		return b.String()
	}
	for _, p := range points {
		retry := "off"
		if p.RetryBudget > 0 {
			retry = fmt.Sprintf("%d", p.RetryBudget)
		}
		fmt.Fprintf(&b, "mtbf=%gh stragglers=%.0f%% retry=%s\n", p.MTBFHours, p.StragglerFrac*100, retry)
		b.WriteString("  system      SLO att   retried   amp    shed%   squash  outage  energy(kWh)\n")
		for _, run := range p.Systems {
			res := run.Result
			amp, shed := 1.0, 0.0
			if res.Requests > 0 {
				amp = 1 + float64(res.Retried)/float64(res.Requests)
				shed = float64(res.Shed) / float64(res.Requests)
			}
			fmt.Fprintf(&b, "  %-11s  %.3f   %7d  %.3f   %5.2f   %6d  %6d   %10.2f\n",
				run.Name, res.SLOAttainment(), res.Retried, amp, shed*100,
				res.Squashed, res.Outages, res.EnergyKWh())
		}
		b.WriteString("\n")
	}
	// Harshest cell: lowest MTBF, highest straggler fraction.
	minMTBF, maxFrac := points[0].MTBFHours, points[0].StragglerFrac
	for _, p := range points {
		if p.MTBFHours < minMTBF {
			minMTBF = p.MTBFHours
		}
		if p.StragglerFrac > maxFrac {
			maxFrac = p.StragglerFrac
		}
	}
	var off, on *core.Result
	for _, p := range points {
		if p.MTBFHours != minMTBF || p.StragglerFrac != maxFrac {
			continue
		}
		for _, run := range p.Systems {
			if run.Name == "dynamollm" {
				if p.RetryBudget > 0 {
					on = run.Result
				} else {
					off = run.Result
				}
			}
		}
	}
	if off != nil && on != nil {
		fmt.Fprintf(&b, "Summary (dynamollm, harshest cell mtbf=%gh stragglers=%.0f%%, retries off vs on):\n",
			minMTBF, maxFrac*100)
		fmt.Fprintf(&b, "  terminally lost %d -> %d, SLO att %.3f -> %.3f (budget %d)\n",
			off.Squashed+off.Shed, on.Squashed+on.Shed,
			off.SLOAttainment(), on.SLOAttainment(), core.DefaultRetryBudget)
	}
	return b.String()
}
