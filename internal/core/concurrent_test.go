package core

import (
	"sync"
	"testing"

	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// TestRunWithRepoConcurrent drives several systems through RunWithRepo at
// once, sharing one trace and one profile repository — exactly how the
// experiment runner fans out — and checks every result matches its
// sequential twin. Under -race this audits the simulation for state leaking
// through shared Options, models, or the repository.
func TestRunWithRepoConcurrent(t *testing.T) {
	tr := trace.OpenSourceHour(15, 7).Window(0, 900)
	repo := profile.NewRepository(nil)
	names := []string{"singlepool", "multipool", "scalefreq", "dynamollm", "dynamollm", "scaleinst"}

	sequential := make([]*Result, len(names))
	for i, name := range names {
		opts, _ := SystemByName(name)
		opts.Seed = 42
		sequential[i] = RunWithRepo(tr, opts, repo)
	}

	concurrent := make([]*Result, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			opts, _ := SystemByName(name)
			opts.Seed = 42
			concurrent[i] = RunWithRepo(tr, opts, repo)
		}(i, name)
	}
	wg.Wait()

	for i, name := range names {
		seq, con := sequential[i], concurrent[i]
		if con.EnergyJ != seq.EnergyJ {
			t.Errorf("%s: concurrent EnergyJ %v != sequential %v", name, con.EnergyJ, seq.EnergyJ)
		}
		if con.Requests != seq.Requests || con.Squashed != seq.Squashed {
			t.Errorf("%s: concurrent requests %d/%d != sequential %d/%d",
				name, con.Requests, con.Squashed, seq.Requests, seq.Squashed)
		}
		if con.TTFT.Percentile(99) != seq.TTFT.Percentile(99) {
			t.Errorf("%s: concurrent TTFT P99 differs", name)
		}
		if con.Reshards != seq.Reshards || con.FreqChanges != seq.FreqChanges {
			t.Errorf("%s: concurrent reconfig counters differ", name)
		}
	}
}

// TestEventStepJobsDeterministic: the parallel stepping worker pool is
// invisible in the results — any StepJobs value produces a bit-identical
// run. Under -race (make test) this also audits the workers for unsynced
// shared state.
func TestEventStepJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, _ := fixtures(t)
	tr := trace.OpenSourceHour(6, 11).Window(0, simclock.Time(6*simclock.Minute))

	var want resultFingerprint
	for i, jobs := range []int{1, 4, 8} {
		opts := liveOpts(FidelityEvent)
		opts.StepJobs = jobs
		got := fingerprint(RunWithRepo(tr, opts, r))
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("StepJobs=%d diverges from serial:\n got  %+v\n want %+v", jobs, got, want)
		}
	}
}
