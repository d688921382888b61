package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary bytes through the full scenario
// pipeline: Load (strict JSON decode + Validate), then every consumer a
// loaded scenario can reach — trace generation with events applied, the
// runtime hook compilation, and the stochastic fault expansion. The
// contract under test is that Validate is the single gate: any scenario
// Load accepts must be safe to simulate — no panics, no unbounded
// expansion, no NaN-poisoned windows — so every bound lives in Validate,
// not scattered across consumers.
//
// Run via `make fuzz-smoke` (short budget, wired into CI) or directly:
//
//	go test -run='^$' -fuzz=FuzzScenarioLoad ./internal/scenario
func FuzzScenarioLoad(f *testing.F) {
	// Seed with every builtin so the fuzzer starts from rich valid
	// inputs (all event kinds, both services) and mutates outward.
	for _, s := range Library() {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatalf("marshal builtin %s: %v", s.Name, err)
		}
		f.Add(b)
	}
	// Hand-written seeds: a minimal cache-thrash scenario, a faults
	// scenario near the expansion cap, and classic decode rejections.
	f.Add([]byte(`{"name":"ct","days":0.1,"events":[{"kind":"cache-thrash","at_hours":0,"duration_hours":1,"fraction":0.9,"prompt_groups":4}]}`))
	f.Add([]byte(`{"name":"ft","days":1,"events":[{"kind":"faults","at_hours":0,"duration_hours":24,"mtbf_hours":0.01,"repair_hours":0.1}]}`))
	f.Add([]byte(`{"name":"nan","days":1e999}`))
	f.Add([]byte(`{"name":"x","days":1,"bogus":true}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only acceptable early exit
		}
		// Load validated it; re-validating must agree (Validate is
		// deterministic and Load must not hand back a half-checked value).
		if err := s.Validate(); err != nil {
			t.Fatalf("Load accepted a scenario Validate rejects: %v", err)
		}
		// Exercise every consumer. The peak rate and day cap are small so
		// each iteration stays cheap; the bounds under test (RateMult,
		// MTBF ratio, Days, Groups, finiteness) are about blow-ups that
		// no small cap here would mask.
		tr, err := s.GenTrace(2, 0.01, 1)
		if err != nil {
			t.Fatalf("GenTrace rejected a validated scenario: %v", err)
		}
		_ = s.ApplyTrace(tr, 1)
		_ = s.Hook(1)
		_ = ExpandFaults(s.Events, s.Days*24, 1)
	})
}
