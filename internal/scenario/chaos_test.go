package scenario

import (
	"reflect"
	"testing"

	"dynamollm/internal/core"
	"dynamollm/internal/profile"
)

// TestFaultPlanDeterminism pins the fault expansion contract: the plan is
// a pure function of (timeline, horizon, seed) — identical across calls,
// different across seeds, time-sorted, and with every crash inside the
// scenario horizon.
func TestFaultPlanDeterminism(t *testing.T) {
	s, ok := ByName("chaos-monkey")
	if !ok {
		t.Fatal("chaos-monkey missing from library")
	}
	horizon := s.Days * 24
	a := ExpandFaults(s.Events, horizon, 99)
	if len(a) == 0 {
		t.Fatal("chaos-monkey expanded to no crash events")
	}
	if b := ExpandFaults(s.Events, horizon, 99); !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different fault plans")
	}
	if c := ExpandFaults(s.Events, horizon, 100); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical fault plans")
	}
	for i, e := range a {
		if i > 0 && e.AtHours < a[i-1].AtHours {
			t.Errorf("plan not time-sorted at %d: %.3f < %.3f", i, e.AtHours, a[i-1].AtHours)
		}
		if e.Kind != Outage && e.Kind != Recovery {
			t.Errorf("plan event %d has kind %s, want outage/recovery", i, e.Kind)
		}
		if e.AtHours >= horizon {
			t.Errorf("plan event %d at %.3fh beyond the %gh horizon", i, e.AtHours, horizon)
		}
	}
}

// conservationFingerprint is the cross-run identity a simulation under
// faults must reproduce exactly.
type conservationFingerprint struct {
	requests, completed, squashed, shed int
	retried, retrySuccess               int
	outages, recoveries, stragglers     int
	energyJ, ttftP99                    float64
}

func fingerprintOf(res *core.Result) conservationFingerprint {
	return conservationFingerprint{
		requests: res.Requests, completed: res.Completed, squashed: res.Squashed, shed: res.Shed,
		retried: res.Retried, retrySuccess: res.RetrySuccess,
		outages: res.Outages, recoveries: res.Recoveries, stragglers: res.Stragglers,
		energyJ: res.EnergyJ, ttftP99: res.TTFT.Percentile(99),
	}
}

// TestLibraryConservationCrossFidelity runs every built-in scenario —
// including the stochastic chaos-monkey — under both fidelities and
// asserts request conservation: every routed request terminates as
// exactly one of completed, squashed, or shed, with retries neither
// minting nor losing work.
func TestLibraryConservationCrossFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulations")
	}
	repo := profile.NewRepository(nil)
	for _, s := range Library() {
		tr, err := s.GenTrace(10, 0.25, 7)
		if err != nil {
			t.Fatalf("%s: GenTrace: %v", s.Name, err)
		}
		for _, fid := range []core.Fidelity{core.FidelityFluid, core.FidelityEvent} {
			opts, _ := core.SystemByName("dynamollm")
			opts.Seed = 7
			opts.Fidelity = fid
			opts.Hook = s.Hook(7)
			res := core.RunWithRepo(tr, opts, repo)
			if err := res.CheckInvariants(); err != nil {
				t.Errorf("%s/%s: %v", s.Name, fid, err)
			}
			if res.RetrySuccess > res.Retried {
				t.Errorf("%s/%s: %d retry successes > %d retries", s.Name, fid, res.RetrySuccess, res.Retried)
			}
			if s.Name == "chaos-monkey" {
				if res.Outages == 0 {
					t.Errorf("chaos-monkey/%s: no outages injected", fid)
				}
				if res.Stragglers == 0 {
					t.Errorf("chaos-monkey/%s: no stragglers injected", fid)
				}
				if res.Blips == 0 {
					t.Errorf("chaos-monkey/%s: no blips injected", fid)
				}
			}
		}
	}
}

// TestChaosStepJobsDeterministic: the stochastic fault plan is expanded
// before the simulation starts, so under event fidelity any StepJobs
// value must reproduce a bit-identical run — parallelism never reorders
// failures.
func TestChaosStepJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulations")
	}
	s, _ := ByName("chaos-monkey")
	tr, err := s.GenTrace(8, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	repo := profile.NewRepository(nil)
	var want conservationFingerprint
	for i, jobs := range []int{1, 4} {
		opts, _ := core.SystemByName("dynamollm")
		opts.Seed = 7
		opts.Fidelity = core.FidelityEvent
		opts.StepJobs = jobs
		opts.Hook = s.Hook(7)
		got := fingerprintOf(core.RunWithRepo(tr, opts, repo))
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("StepJobs=%d diverges under faults:\n got  %+v\n want %+v", jobs, got, want)
		}
	}
}
