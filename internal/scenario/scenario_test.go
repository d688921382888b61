package scenario

import (
	"bytes"
	"strings"
	"testing"

	"dynamollm/internal/core"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

func TestLibraryValidatesAndGenerates(t *testing.T) {
	lib := Library()
	if len(lib) < 6 {
		t.Fatalf("library has %d scenarios, want >= 6", len(lib))
	}
	seen := map[string]bool{}
	for _, s := range lib {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		tr, err := s.GenTrace(20, 0.25, 7)
		if err != nil {
			t.Errorf("%s: GenTrace: %v", s.Name, err)
			continue
		}
		if len(tr) == 0 {
			t.Errorf("%s: empty trace", s.Name)
		}
		for i := 1; i < len(tr); i++ {
			if tr[i].At < tr[i-1].At {
				t.Fatalf("%s: trace out of order at %d", s.Name, i)
			}
		}
	}
	for _, want := range []string{"flashcrowd", "blackfriday", "gpu-failures", "price-surge", "slo-crunch", "mixed-week"} {
		if _, ok := ByName(want); !ok {
			t.Errorf("missing built-in scenario %q", want)
		}
	}
}

func TestGenTraceDeterministic(t *testing.T) {
	s, _ := ByName("flashcrowd")
	a, err := s.GenTrace(20, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.GenTrace(20, 0, 7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestFlashcrowdSpikesTheWindow(t *testing.T) {
	s, _ := ByName("flashcrowd")
	base := *s
	base.Events = nil
	plain, err := base.GenTrace(20, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	spiked, err := s.GenTrace(20, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	window := func(tr trace.Trace, from, to simclock.Time) int {
		n := 0
		for _, e := range tr {
			if e.At >= from && e.At < to {
				n++
			}
		}
		return n
	}
	from, to := s.Events[0].window()
	before, after := window(plain, from, to), window(spiked, from, to)
	if ratio := float64(after) / float64(before); ratio < 2.8 || ratio > 4.2 {
		t.Errorf("flash crowd window: %d -> %d requests (%.2fx), want ~3.5x", before, after, ratio)
	}
	if window(plain, 0, from) != window(spiked, 0, from) {
		t.Error("flash crowd leaked outside its window")
	}
}

// TestScenarioCSVRoundTrip: a trace that passes through an event-free
// scenario must survive a CSV round trip byte-identically — the scenario
// layer adds nothing when its event list is empty.
func TestScenarioCSVRoundTrip(t *testing.T) {
	s := &Scenario{Name: "passthrough", Days: 0.05}
	tr, err := s.GenTrace(25, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := tr.WriteCSV(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ReadCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	applied := s.ApplyTrace(parsed, 99)
	if &applied[0] != &parsed[0] {
		t.Error("empty-event ApplyTrace did not return its input unchanged")
	}
	var second bytes.Buffer
	if err := applied.WriteCSV(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("CSV round trip through an event-free scenario is not byte-identical")
	}
}

func TestLoadJSON(t *testing.T) {
	const js = `{
		"name": "custom",
		"description": "ops drill",
		"service": "coding",
		"days": 0.5,
		"events": [
			{"kind": "spike", "at_hours": 1, "duration_hours": 0.5, "rate_mult": 2},
			{"kind": "mix-shift", "at_hours": 2, "duration_hours": 1, "class_weights": {"LL": 2}},
			{"kind": "outage", "at_hours": 3, "servers": 2},
			{"kind": "recovery", "at_hours": 4, "servers": 2},
			{"kind": "price", "at_hours": 5, "duration_hours": 1, "price_mult": 3},
			{"kind": "slo", "at_hours": 6, "duration_hours": 1, "slo_factor": 0.5}
		]
	}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "custom" || len(s.Events) != 6 {
		t.Fatalf("bad parse: %+v", s)
	}
	if s.Hook(7) == nil {
		t.Error("runtime events should compile to a hook")
	}

	bad := []string{
		`{"name": "x", "days": 0}`,
		`{"name": "x", "days": 1, "service": "mainframe"}`,
		`{"name": "x", "days": 1, "events": [{"kind": "spike", "at_hours": 1}]}`,
		`{"name": "x", "days": 1, "events": [{"kind": "warp", "at_hours": 1}]}`,
		`{"name": "x", "days": 1, "events": [{"kind": "outage", "at_hours": 1}]}`,
		`{"name": "x", "days": 1, "events": [{"kind": "mix-shift", "at_hours": 1, "duration_hours": 1, "class_weights": {"XX": 1}}]}`,
		`{"name": "x", "days": 1, "events": [{"kind": "spike", "at_hours": 60, "duration_hours": 1, "rate_mult": 2}]}`,
		`{"name": "x", "days": 1, "unknown_field": true}`,
	}
	for _, js := range bad {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("Load accepted invalid scenario: %s", js)
		}
	}
}

func TestHookFreshPerCall(t *testing.T) {
	s, _ := ByName("gpu-failures")
	a, b := s.Hook(7), s.Hook(7)
	if a == nil || b == nil {
		t.Fatal("gpu-failures must produce a runtime hook")
	}
	if a == b {
		t.Error("Hook() returned a shared instance; timelines carry per-run state")
	}
	if f, _ := ByName("flashcrowd"); f.Hook(7) != nil {
		t.Error("flashcrowd has no runtime events; Hook should be nil")
	}
}

// TestOutageScenarioEndToEnd drives the gpu-failures scenario through a
// real simulation and checks the injected outage is visible in the result
// counters and that a static system loses capacity while the outage holds.
func TestOutageScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	s, _ := ByName("gpu-failures")
	tr, err := s.GenTrace(20, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := core.SystemByName("singlepool")
	opts.Seed = 7
	opts.Hook = s.Hook(7)
	res := core.Run(tr, opts)
	if res.Outages == 0 {
		t.Error("outage scenario produced no Outages")
	}
	if res.Recoveries == 0 {
		t.Error("recovery events produced no Recoveries")
	}

	// The same trace without events must cost at least as much energy:
	// the outage removes servers (and their power draw) for 1.5 hours.
	plain := *s
	plain.Events = nil
	trPlain, err := plain.GenTrace(20, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	optsPlain, _ := core.SystemByName("singlepool")
	optsPlain.Seed = 7
	resPlain := core.Run(trPlain, optsPlain)
	if res.EnergyJ >= resPlain.EnergyJ {
		t.Errorf("outage run energy %.0f J >= intact run %.0f J; failed servers still drawing power?",
			res.EnergyJ, resPlain.EnergyJ)
	}
}

// TestPriceScenarioEndToEnd checks a price surge shows up in the energy
// bill: the same energy is billed at a higher effective rate.
func TestPriceScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	s := &Scenario{
		Name:       "price-test",
		StartHours: 32,
		Days:       0.25,
		Events:     []Event{{Kind: Price, AtHours: 1, DurationHours: 4, PriceMult: 5}},
	}
	tr, err := s.GenTrace(10, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := core.SystemByName("singlepool")
	opts.Seed = 7
	opts.Hook = s.Hook(7)
	res := core.Run(tr, opts)

	optsPlain, _ := core.SystemByName("singlepool")
	optsPlain.Seed = 7
	resPlain := core.Run(tr, optsPlain)

	// Same trace, same static system: identical energy, bigger bill.
	if res.EnergyCostUSD <= resPlain.EnergyCostUSD {
		t.Errorf("price surge bill %.4f <= nominal bill %.4f", res.EnergyCostUSD, resPlain.EnergyCostUSD)
	}
	if resPlain.EnergyCostUSD <= 0 {
		t.Error("nominal run has a zero energy bill")
	}
}

// TestSLOScenarioEndToEnd checks an SLO crunch lowers measured
// attainment on a DVFS system, which deliberately runs close to the
// nominal SLO boundary and so has no slack when the target halves.
// (Statically over-provisioned baselines sail through a 2x crunch —
// that asymmetry is what the scenario exists to expose.)
func TestSLOScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	s, _ := ByName("slo-crunch")
	tr, err := s.GenTrace(20, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(hook core.TickHook) *core.Result {
		opts, _ := core.SystemByName("scalefreq")
		opts.Seed = 7
		opts.Hook = hook
		return core.Run(tr, opts)
	}
	crunched := run(s.Hook(7))
	nominal := run(nil)
	if crunched.SLOAttainment() >= nominal.SLOAttainment() {
		t.Errorf("SLO crunch did not lower a DVFS system's attainment: %.3f >= %.3f",
			crunched.SLOAttainment(), nominal.SLOAttainment())
	}
}

// TestMixShiftChangesClassShares: the mixed-week mix-shift window must
// move request mass into the targeted long-input classes.
func TestMixShiftChangesClassShares(t *testing.T) {
	s, _ := ByName("mixed-week")
	var mix *Event
	for i := range s.Events {
		if s.Events[i].Kind == MixShift {
			mix = &s.Events[i]
		}
	}
	if mix == nil {
		t.Fatal("mixed-week lost its mix-shift event")
	}
	// Generate only up to a horizon covering the window to keep this fast.
	maxDays := (mix.AtHours + mix.DurationHours) / 24
	withEvents, err := s.GenTrace(10, maxDays+0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	plain := *s
	plain.Events = nil
	without, err := plain.GenTrace(10, maxDays+0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	longShare := func(tr trace.Trace) float64 {
		from, to := mix.window()
		n, long := 0, 0
		for _, e := range tr {
			if e.At < from || e.At >= to {
				continue
			}
			n++
			if e.Class().Input() == workload.Long {
				long++
			}
		}
		if n == 0 {
			t.Fatal("no requests in mix-shift window")
		}
		return float64(long) / float64(n)
	}
	if a, b := longShare(withEvents), longShare(without); a <= b {
		t.Errorf("mix shift did not raise long-input share: %.2f <= %.2f", a, b)
	}
}
