package dynamollm

import (
	"strings"
	"testing"
)

func TestSimulateFacade(t *testing.T) {
	tr := NewTrace(Conversation, 1, 15, 3).Window(9*3600, 9*3600+1800)
	repo := NewRepo()
	res, err := SimulateWithRepo(tr, Config{System: "dynamollm", Servers: 5, Seed: 1}, repo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.EnergyKWh <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.SLOAttainment < 0.85 {
		t.Errorf("attainment = %v", res.SLOAttainment)
	}
	if res.CarbonKg <= 0 || res.CostUSD <= 0 {
		t.Error("carbon/cost not computed")
	}
	if res.Raw == nil {
		t.Error("raw result missing")
	}
}

func TestSimulateDefaultsToDynamoLLM(t *testing.T) {
	tr := NewTrace(Coding, 0.05, 10, 4)
	res, err := Simulate(tr, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Raw.Opts.ScaleFrequency {
		t.Error("default system should be dynamollm")
	}
}

func TestSimulateErrors(t *testing.T) {
	tr := NewTrace(Coding, 0.01, 5, 1)
	if _, err := Simulate(tr, Config{System: "bogus"}); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := Simulate(tr, Config{Model: "gpt-5"}); err == nil {
		t.Error("unknown model accepted")
	}
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Fidelity: "warp"}, "fluid|event"},
		{Config{KVTier: "tape"}, "none|cpu|ssd"},
		{Config{KVSwapPolicy: "never"}, "auto|always"},
	} {
		_, err := Simulate(tr, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Simulate(%+v) error %v, want one listing %s", c.cfg, err, c.want)
		}
	}
}

func TestSimulateEventFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	tr := NewTrace(Conversation, 1, 10, 3).Window(9*3600, 9*3600+900)
	repo := NewRepo()
	res, err := SimulateWithRepo(tr, Config{System: "singlepool", Servers: 4, Seed: 1, Fidelity: "event"}, repo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.EnergyKWh <= 0 {
		t.Fatalf("empty event-fidelity result: %+v", res)
	}
	if res.Raw.ClassTTFT[0] == nil {
		t.Error("event fidelity should capture per-class latencies")
	}
	if len(Fidelities) != 2 || Fidelities[0] != "fluid" || Fidelities[1] != "event" {
		t.Errorf("Fidelities = %v", Fidelities)
	}
}

func TestCatalogAccessors(t *testing.T) {
	if len(Systems) != 6 {
		t.Errorf("systems = %v", Systems)
	}
	if len(Models()) != 6 {
		t.Errorf("models = %v", Models())
	}
	if len(Classes()) != 9 || Classes()[0] != "SS" || Classes()[8] != "LL" {
		t.Errorf("classes = %v", Classes())
	}
}

func TestExperimentsParallelKnob(t *testing.T) {
	if Experiments().Parallelism != 0 {
		t.Error("default harness should use one worker per CPU (Parallelism=0)")
	}
	c := ExperimentsParallel(3)
	if c.Parallelism != 3 {
		t.Errorf("Parallelism = %d, want 3", c.Parallelism)
	}
}

func TestSimulateScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res, err := SimulateScenario("gpu-failures", 15, Config{System: "singlepool", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.EnergyKWh <= 0 {
		t.Errorf("empty scenario result: %+v", res)
	}
	if res.Outages == 0 {
		t.Error("gpu-failures scenario recorded no outages")
	}
	if res.EnergyBillUSD <= 0 {
		t.Error("no electricity bill accrued")
	}
	if _, err := SimulateScenario("alien-invasion", 15, Config{}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if len(Scenarios()) < 6 {
		t.Errorf("scenario library too small: %v", Scenarios())
	}
}

// TestNewSession: the facade opens a live serving session that advances
// with (injected) wall time and resolves injected requests.
func TestNewSession(t *testing.T) {
	s, err := NewSession(nil, Config{System: "singlepool", Fidelity: "event", Seed: 3}, 60, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Inject(128, 16, false); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(nil, Config{System: "bogus"}, 60, false); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := NewSession(nil, Config{Fidelity: "bogus"}, 60, false); err == nil {
		t.Error("unknown fidelity accepted")
	}
}
