package core

import (
	"testing"

	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// TestTickLoopAllocationFree asserts the tentpole: once warmed up, the
// steady-state tick loop performs zero heap allocations per tick. The
// static baseline exercises routing, placement, latency sampling, energy
// integration, and every metrics sink; ScaleFreq adds the DVFS instance
// manager. Neither runs epoch reconfigurations inside the measured window.
//
// An event hook is installed: one price event fires during warm-up and
// another stays pending forever, so the measured window pays a hook's
// steady-state cost (a bounds check against the next pending event) and
// it must still be zero allocations. The scenario package asserts the same
// of its own Agenda.
func TestTickLoopAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	for _, system := range []string{"singlepool", "scalefreq"} {
		r, tr := fixtures(t)
		tr = tr.Window(0, 1800) // 360 ticks
		opts, _ := SystemByName(system)
		opts.Seed = 7
		opts.WarmLoad = warmConv
		opts.Hook = &testHook{events: []hookEvent{
			{at: 50, do: func(ctl *Controls) { ctl.SetPriceMult(1.5) }},
			{at: 400, do: func(ctl *Controls) { ctl.SetPriceMult(1) }},
			{at: 1e9, do: func(ctl *Controls) { ctl.SetPriceMult(2) }}, // never reached
		}}
		sm := newSimulation(tr, opts, r, false)
		tick := 0
		for ; tick < 200; tick++ { // warm caches, buffers, and rate EWMAs
			sm.step(tick)
		}
		avg := testing.AllocsPerRun(100, func() {
			sm.step(tick)
			tick++
		})
		if avg != 0 {
			t.Errorf("%s: steady-state tick allocates %v per tick, want 0", system, avg)
		}
		sm.finish()
	}
}

// TestInstancesCompacted is the dead-instance-leak regression test:
// resizePool and reshardPool park instances stateOff, and before
// compaction those corpses stayed in Pool.Instances forever, so a run
// with many scale-in epochs scanned an ever-growing slice. The pool
// slices must stay bounded by the live fleet, not by reconfiguration
// history.
func TestInstancesCompacted(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, _ := fixtures(t)
	// A rapidly oscillating load with short epochs forces many
	// scale-out/in and re-shard cycles.
	tr := trace.OpenSourceHour(testPeakRPS, 11)
	opts := DynamoLLM()
	opts.Seed = 7
	opts.WarmLoad = warmConv
	opts.ClusterEpoch = 5 * simclock.Minute
	opts.PoolEpoch = simclock.Minute
	sm := newSimulation(tr, opts, r, false)
	maxLen := 0
	churn := 0
	for tick := 0; tick < sm.nTicks; tick++ {
		sm.step(tick)
		for _, p := range sm.pools {
			if n := len(p.Instances); n > maxLen {
				maxLen = n
			}
			for _, in := range p.Instances {
				if in.state == stateOff {
					t.Fatal("dead instance survived compaction")
				}
			}
		}
	}
	sm.finish()
	churn = sm.res.ScaleIns + sm.res.ScaleOuts + sm.res.Reshards
	if churn < 20 {
		t.Fatalf("not enough reconfiguration churn to exercise compaction (%d events)", churn)
	}
	// The fleet ceiling is 12 servers; a pool can fragment one node into
	// at most 4 TP2 instances plus transients, so anything near the churn
	// count means the leak is back.
	if maxLen > 64 {
		t.Errorf("pool instance slice grew to %d entries over %d reconfigurations; dead instances are leaking", maxLen, churn)
	}
	if sm.res.SLOAttainment() < 0.5 {
		t.Errorf("sanity: attainment collapsed to %v", sm.res.SLOAttainment())
	}
}

// TestFreqChangesSurviveCompaction: frequency-set counts of compacted
// instances must still be reported.
func TestFreqChangesSurviveCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := runSystem(t, "dynamollm")
	if res.ScaleIns == 0 {
		t.Skip("run produced no scale-ins")
	}
	if res.FreqChanges == 0 {
		t.Error("FreqChanges lost across compaction")
	}
}
