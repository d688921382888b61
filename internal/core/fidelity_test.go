package core

import (
	"encoding"
	"reflect"
	"strings"
	"testing"

	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// diurnalTrace is a small diurnal Conversation window (2 simulated hours
// riding the synthetic week's morning ramp) used by the fidelity
// cross-validation: long enough for every controller epoch to fire, short
// enough that the event backend runs in test time.
func diurnalTrace() trace.Trace {
	return trace.Generate(trace.GenConfig{
		Service:  trace.Conversation,
		Start:    simclock.Time(8 * simclock.Hour),
		Duration: 2 * simclock.Hour,
		PeakRPS:  20,
		Seed:     31,
	})
}

func runFidelity(t *testing.T, system string, f Fidelity, tr trace.Trace) *Result {
	t.Helper()
	r, _ := fixtures(t)
	opts, ok := SystemByName(system)
	if !ok {
		t.Fatalf("unknown system %q", system)
	}
	opts.Seed = 7
	opts.Fidelity = f
	opts.WarmLoad = func(tm simclock.Time, c workload.Class) float64 {
		return trace.ExpectedRate(trace.Conversation, 20, tm+simclock.Time(8*simclock.Hour), c)
	}
	return RunWithRepo(tr, opts, r)
}

// TestEventCrossValidatesFluid bounds the disagreement between the two
// fidelity backends on a small diurnal trace. Stated tolerances: SLO
// attainment within 0.2 absolute, energy within a factor of [0.7, 1.4] —
// the fluid model samples latencies from bucketed steady states while the
// engine produces real queueing tails, so they must track each other but
// cannot match exactly.
func TestEventCrossValidatesFluid(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	tr := diurnalTrace()
	for _, system := range []string{"singlepool", "dynamollm"} {
		fluid := runFidelity(t, system, FidelityFluid, tr)
		event := runFidelity(t, system, FidelityEvent, tr)

		if fluid.Requests != event.Requests {
			t.Errorf("%s: routed %d requests fluid vs %d event (routing must be backend-independent)",
				system, fluid.Requests, event.Requests)
		}
		// Every routed request is accounted: completed, squashed, or shed.
		for fid, res := range map[string]*Result{"fluid": fluid, "event": event} {
			if err := res.CheckInvariants(); err != nil {
				t.Errorf("%s/%s: %v", system, fid, err)
			}
		}
		fa, ea := fluid.SLOAttainment(), event.SLOAttainment()
		t.Logf("%s: SLO %.3f/%.3f  energy %.1f/%.1f kWh  ttft-p99 %.3f/%.3f s (fluid/event)",
			system, fa, ea, fluid.EnergyKWh(), event.EnergyKWh(),
			fluid.TTFT.Percentile(99), event.TTFT.Percentile(99))
		if d := fa - ea; d > 0.2 || d < -0.2 {
			t.Errorf("%s: SLO attainment disagrees beyond tolerance: fluid %.3f vs event %.3f", system, fa, ea)
		}
		if ratio := event.EnergyJ / fluid.EnergyJ; ratio < 0.7 || ratio > 1.4 {
			t.Errorf("%s: energy disagrees beyond tolerance: fluid %.1f kWh vs event %.1f kWh (ratio %.2f)",
				system, fluid.EnergyKWh(), event.EnergyKWh(), ratio)
		}
		// Event mode must actually have produced latency measurements.
		if event.TTFT.N() == 0 || event.TBT.N() == 0 {
			t.Errorf("%s: event mode recorded no latencies", system)
		}
		for _, cls := range []workload.Class{workload.SS, workload.MM} {
			if event.ClassTTFT[cls] == nil || event.ClassTTFT[cls].N() == 0 {
				t.Errorf("%s: no per-class TTFT capture for %v", system, cls)
			}
		}
		if fluid.ClassTTFT[workload.SS] != nil {
			t.Errorf("%s: fluid mode should not allocate per-class capture", system)
		}
	}
}

// TestEventModeDeterministic: event-mode results are bit-identical across
// repeated runs (the per-run clock, engines, and RNG streams share nothing
// between simulations, which is also what makes them -jobs independent).
func TestEventModeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	tr := diurnalTrace()
	a := runFidelity(t, "dynamollm", FidelityEvent, tr)
	b := runFidelity(t, "dynamollm", FidelityEvent, tr)
	if a.EnergyJ != b.EnergyJ || a.SLOMet != b.SLOMet || a.Completed != b.Completed ||
		a.Squashed != b.Squashed || a.Reshards != b.Reshards ||
		a.TTFT.Percentile(99) != b.TTFT.Percentile(99) {
		t.Errorf("event mode not deterministic: %+v vs %+v",
			[]float64{a.EnergyJ, float64(a.SLOMet), float64(a.Completed)},
			[]float64{b.EnergyJ, float64(b.SLOMet), float64(b.Completed)})
	}
}

// TestEnumText pins the CLI name sets of the three substrate enums:
// every name round-trips through UnmarshalText/MarshalText to its own
// index, and an unknown name's error lists every valid name.
func TestEnumText(t *testing.T) {
	type textEnum interface {
		encoding.TextMarshaler
		encoding.TextUnmarshaler
	}
	for _, c := range []struct {
		names []string
		fresh func() textEnum
	}{
		{FidelityNames, func() textEnum { return new(Fidelity) }},
		{KVTierNames, func() textEnum { return new(KVTier) }},
		{KVSwapPolicyNames, func() textEnum { return new(KVSwapPolicy) }},
	} {
		for i, name := range c.names {
			v := c.fresh()
			if err := v.UnmarshalText([]byte(name)); err != nil {
				t.Fatalf("%T.UnmarshalText(%q): %v", v, name, err)
			}
			if got := reflect.ValueOf(v).Elem().Int(); got != int64(i) {
				t.Errorf("%T.UnmarshalText(%q) = %d, want %d", v, name, got, i)
			}
			if out, err := v.MarshalText(); err != nil || string(out) != name {
				t.Errorf("%T(%d).MarshalText() = %q, %v; want %q", v, i, out, err, name)
			}
		}
		v := c.fresh()
		err := v.UnmarshalText([]byte("quantum"))
		if err == nil {
			t.Fatalf("%T accepted an unknown name", v)
		}
		for _, name := range c.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%T error %q does not list %q", v, err, name)
			}
		}
	}
}
