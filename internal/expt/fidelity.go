package expt

import (
	"fmt"
	"strings"

	"dynamollm/internal/core"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// FidelityRow is one system's fluid-vs-event comparison.
type FidelityRow struct {
	System string
	Fluid  *core.Result
	Event  *core.Result
}

// FidelityCompare is the fluid-vs-event cross-validation experiment: every
// system runs the same small diurnal trace under both instance-fidelity
// backends, so the closed-form model that powers the fast sweeps is
// continuously checked against the event-level engine it abstracts. The
// 6x2 system-by-fidelity grid is flattened through one worker pool;
// results are deterministic for any Config.Parallelism.
func (c Config) FidelityCompare() []FidelityRow {
	// Two diurnal hours on the synthetic week's morning ramp, thinned so
	// the event backend stays fast (quick mode halves the window).
	dur := simclock.Duration(2 * simclock.Hour)
	if c.Quick {
		dur = simclock.Hour
	}
	start := simclock.Time(8 * simclock.Hour)
	sub := c
	sub.PeakRPS = c.PeakRPS * 0.45
	tr := trace.Generate(trace.GenConfig{
		Service:  trace.Conversation,
		Start:    start,
		Duration: dur,
		PeakRPS:  sub.PeakRPS,
		Seed:     c.Seed ^ 0xF1DE,
	}).Window(start, start+simclock.Time(dur))

	jobs := make([]gridJob, 0, 2*len(core.SystemNames))
	for i, name := range core.SystemNames {
		for _, fid := range []core.Fidelity{core.FidelityFluid, core.FidelityEvent} {
			jobs = append(jobs, gridJob{group: i, tr: tr, name: name, opts: sub.mustSystemOptions(name, func(o *core.Options) {
				o.Fidelity = fid
				o.WarmLoad = sub.warm(trace.Conversation, start)
			})})
		}
	}
	groups := c.gridRuns(jobs, len(core.SystemNames))
	rows := make([]FidelityRow, len(core.SystemNames))
	for i, name := range core.SystemNames {
		rows[i] = FidelityRow{System: name, Fluid: groups[i][0].Result, Event: groups[i][1].Result}
	}
	return rows
}

// RenderFidelity formats the cross-validation table: absolute numbers for
// both backends plus the event/fluid deltas the CI artifact tracks.
func RenderFidelity(rows []FidelityRow) string {
	var b strings.Builder
	b.WriteString("Fidelity cross-validation: fluid model vs event-level engine (per-instance)\n")
	b.WriteString("  system      energy kWh (fluid/event   Δ)   SLO att (fluid/event    Δ)   TTFT p99 s (fluid/event)\n")
	for _, r := range rows {
		f, e := r.Fluid, r.Event
		dE := e.EnergyJ/f.EnergyJ - 1
		dS := e.SLOAttainment() - f.SLOAttainment()
		fmt.Fprintf(&b, "  %-11s %7.2f /%7.2f  %+5.1f%%     %.3f / %.3f  %+.3f     %8.3f / %8.3f\n",
			r.System, f.EnergyKWh(), e.EnergyKWh(), dE*100,
			f.SLOAttainment(), e.SLOAttainment(), dS,
			f.TTFT.Percentile(99), e.TTFT.Percentile(99))
	}
	b.WriteString("\nfluid = closed-form steady state (fast default); event = engine-level queueing/batching (ground truth)\n")
	return b.String()
}
