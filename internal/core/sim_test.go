package core

import (
	"strings"
	"sync"
	"testing"

	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// Shared fixtures: one profile repository and one short high-load trace for
// the whole package (profile building is the expensive part).
var (
	repoOnce sync.Once
	repo     *profile.Repository
	hourTr   trace.Trace
)

const testPeakRPS = 45

func fixtures(t *testing.T) (*profile.Repository, trace.Trace) {
	t.Helper()
	repoOnce.Do(func() {
		repo = profile.NewRepository(nil)
		hourTr = trace.OpenSourceHour(testPeakRPS, 11)
	})
	return repo, hourTr
}

func warmConv(tm simclock.Time, c workload.Class) float64 {
	return trace.ExpectedRate(trace.Conversation, testPeakRPS, tm+trace.OpenSourceHourStart, c)
}

func runSystem(t *testing.T, name string) *Result {
	t.Helper()
	r, tr := fixtures(t)
	opts, ok := SystemByName(name)
	if !ok {
		t.Fatalf("unknown system %q", name)
	}
	opts.Seed = 7
	opts.WarmLoad = warmConv
	return RunWithRepo(tr, opts, r)
}

// TestEnergyOrdering pins Fig. 6's headline shape: DynamoLLM uses the least
// energy; every single-knob system beats the SinglePool baseline; MultiPool
// (peak-provisioned per-class pools at max performance) does not save
// energy over SinglePool.
func TestEnergyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := map[string]*Result{}
	for _, name := range SystemNames {
		res[name] = runSystem(t, name)
	}
	base := res["singlepool"].EnergyJ
	if res["multipool"].EnergyJ < base*0.98 {
		t.Errorf("MultiPool (%v) should not beat SinglePool (%v)",
			res["multipool"].EnergyKWh(), res["singlepool"].EnergyKWh())
	}
	for _, knob := range []string{"scaleshard", "scalefreq"} {
		if res[knob].EnergyJ >= base {
			t.Errorf("%s (%v kWh) should beat SinglePool (%v kWh)",
				knob, res[knob].EnergyKWh(), res["singlepool"].EnergyKWh())
		}
	}
	dyn := res["dynamollm"].EnergyJ
	for _, other := range []string{"singlepool", "multipool", "scaleinst", "scaleshard", "scalefreq"} {
		if dyn >= res[other].EnergyJ {
			t.Errorf("DynamoLLM (%v kWh) should use least energy; %s = %v kWh",
				res["dynamollm"].EnergyKWh(), other, res[other].EnergyKWh())
		}
	}
	saving := 1 - dyn/base
	if saving < 0.15 {
		t.Errorf("DynamoLLM saving = %.1f%%, want substantial (>15%%)", saving*100)
	}
}

// TestDynamoLLMMeetsSLOs: the optimized system keeps a high SLO attainment
// and squashes almost nothing.
func TestDynamoLLMMeetsSLOs(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := runSystem(t, "dynamollm")
	if att := res.SLOAttainment(); att < 0.93 {
		t.Errorf("SLO attainment = %.3f, want >= 0.93", att)
	}
	if frac := float64(res.Squashed) / float64(res.Requests); frac > 0.01 {
		t.Errorf("squashed fraction = %.4f, want < 1%%", frac)
	}
	if res.AvgServers >= 12 {
		t.Errorf("DynamoLLM should scale below the 12-server fleet, got %.1f", res.AvgServers)
	}
}

// TestBaselineMeetsSLOs: the peak-provisioned baseline at max performance
// must meet SLOs nearly always (it is the reference the paper compares to).
func TestBaselineMeetsSLOs(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := runSystem(t, "singlepool")
	if att := res.SLOAttainment(); att < 0.99 {
		t.Errorf("SinglePool attainment = %.3f, want >= 0.99", att)
	}
	if res.Reshards != 0 || res.ScaleOuts != 0 {
		t.Error("SinglePool must not reconfigure")
	}
}

// TestDVFSLowersFrequency: ScaleFreq's average clock sits well below the
// baseline's pinned 1980 MHz (Fig. 9's qualitative point).
func TestDVFSLowersFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := runSystem(t, "scalefreq")
	avg, n := 0.0, 0
	for _, pt := range res.FreqSeries.Points() {
		avg += pt.Value
		n++
	}
	avg /= float64(n)
	if avg > 1700 {
		t.Errorf("ScaleFreq average clock = %.0f MHz, want well below 1980", avg)
	}
	base := runSystem(t, "singlepool")
	bavg, bn := 0.0, 0
	for _, pt := range base.FreqSeries.Points() {
		bavg += pt.Value
		bn++
	}
	if bavg/float64(bn) != 1980 {
		t.Errorf("SinglePool clock = %v, want pinned 1980", bavg/float64(bn))
	}
}

// TestShardingDiversifies: ScaleShard moves GPUs off the TP8-only layout.
func TestShardingDiversifies(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := runSystem(t, "scaleshard")
	if res.Reshards == 0 {
		t.Fatal("ScaleShard never re-sharded")
	}
	small := 0.0
	for _, tp := range []model.TP{model.TP2, model.TP4} {
		for _, pt := range res.ShardSeries[tp].Points() {
			small += pt.Value
		}
	}
	if small == 0 {
		t.Error("no GPUs ever ran at TP2/TP4 under ScaleShard")
	}
}

// TestPredictorAccuracySensitivity mirrors Fig. 11: moderate accuracy loss
// must cost only modest energy and latency (the system detects and
// corrects mispredictions).
func TestPredictorAccuracySensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, tr := fixtures(t)
	run := func(acc float64) *Result {
		opts := DynamoLLM()
		opts.Seed = 7
		opts.PredictorAccuracy = acc
		opts.WarmLoad = warmConv
		return RunWithRepo(tr, opts, r)
	}
	perfect := run(1.0)
	poor := run(0.6)
	if poor.EnergyJ < perfect.EnergyJ*0.98 {
		t.Errorf("worse predictor should not save energy: %.1f vs %.1f kWh",
			poor.EnergyKWh(), perfect.EnergyKWh())
	}
	if poor.EnergyJ > perfect.EnergyJ*1.35 {
		t.Errorf("60%% accuracy energy overhead too large: %.1f vs %.1f kWh",
			poor.EnergyKWh(), perfect.EnergyKWh())
	}
	if att := poor.SLOAttainment(); att < 0.88 {
		t.Errorf("60%% accuracy attainment = %.3f, want moderate degradation only", att)
	}
}

// TestPoolCountSensitivity mirrors Fig. 13's direction: very few pools cost
// energy against the 9-pool design.
func TestPoolCountSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, tr := fixtures(t)
	run := func(n int) *Result {
		opts := DynamoLLM()
		opts.Seed = 7
		opts.NumPools = n
		opts.WarmLoad = warmConv
		return RunWithRepo(tr, opts, r)
	}
	nine := run(9)
	two := run(2)
	if two.EnergyJ < nine.EnergyJ*0.95 {
		t.Errorf("2 pools (%v kWh) should not clearly beat 9 pools (%v kWh)",
			two.EnergyKWh(), nine.EnergyKWh())
	}
}

// TestDeterminism: identical options and trace produce identical results.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, tr := fixtures(t)
	opts := DynamoLLM()
	opts.Seed = 99
	opts.WarmLoad = warmConv
	a := RunWithRepo(tr, opts, r)
	b := RunWithRepo(tr, opts, r)
	if a.EnergyJ != b.EnergyJ || a.SLOMet != b.SLOMet || a.Reshards != b.Reshards {
		t.Error("simulation is not deterministic for a fixed seed")
	}
}

// TestEmptyTrace: a run over nothing is a no-op that does not crash.
func TestEmptyTrace(t *testing.T) {
	r, _ := fixtures(t)
	opts := DynamoLLM()
	res := RunWithRepo(nil, opts, r)
	if res.Requests != 0 || res.Completed != 0 {
		t.Error("empty trace produced requests")
	}
}

// TestEnergyByClassSumsToTotal: the Fig. 6 stacking is consistent.
func TestEnergyByClassSumsToTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := runSystem(t, "dynamollm")
	sum := 0.0
	for _, j := range res.EnergyByClassJ {
		sum += j
	}
	if diff := (sum - res.EnergyJ) / res.EnergyJ; diff > 0.001 || diff < -0.001 {
		t.Errorf("class energies sum to %.1f of total", sum/res.EnergyJ)
	}
}

// TestGPUSecondsConsistent: GPU occupancy implies a sane server average.
func TestGPUSecondsConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := runSystem(t, "singlepool")
	if res.AvgServers < 11.9 || res.AvgServers > 12.1 {
		t.Errorf("static 12-server run reports %.2f servers", res.AvgServers)
	}
}

// TestSLOScaleRelaxation: a loose-SLO service lets DynamoLLM save more.
func TestSLOScaleRelaxation(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	r, tr := fixtures(t)
	strict := DynamoLLM()
	strict.Seed = 7
	strict.WarmLoad = warmConv
	loose := strict
	loose.SLOScale = 4
	rs := RunWithRepo(tr, strict, r)
	rl := RunWithRepo(tr, loose, r)
	if rl.EnergyJ > rs.EnergyJ*1.05 {
		t.Errorf("20x SLO energy (%v kWh) should not exceed 5x SLO (%v kWh)",
			rl.EnergyKWh(), rs.EnergyKWh())
	}
}

// TestCheckInvariantsRejects mutates one field of a balanced Result per
// row; every mutation must break the law the row names.
func TestCheckInvariantsRejects(t *testing.T) {
	valid := func() Result {
		r := Result{Requests: 10, Completed: 7, Squashed: 2, Shed: 1, SLOMet: 5, Retried: 3, RetrySuccess: 2}
		r.ClassRequests[workload.SS], r.ClassRequests[workload.LL] = 4, 3
		r.ClassViolations[workload.SS], r.ClassViolations[workload.LL] = 1, 1
		// 4 swap-outs + 2 recomputes == 5 preemptions + 1 tier eviction.
		r.KVPreemptions, r.KVSwapOuts, r.KVSwapIns, r.KVRecomputes, r.KVTierEvictions = 5, 4, 3, 2, 1
		return r
	}
	base := valid()
	if err := base.CheckInvariants(); err != nil {
		t.Fatalf("balanced result rejected: %v", err)
	}
	for _, c := range []struct {
		law    string
		mutate func(*Result)
	}{
		{"request conservation", func(r *Result) { r.Requests++ }},
		{"SLOMet=8 exceeds Completed", func(r *Result) { r.SLOMet = 8 }},
		{"retry accounting", func(r *Result) { r.RetrySuccess = 4 }},
		{"ClassViolations=4 exceeds ClassRequests", func(r *Result) { r.ClassViolations[workload.LL] = 4 }},
		{"sum(ClassRequests)=8 != Completed", func(r *Result) { r.ClassRequests[workload.SS] = 5 }},
		{"KVSwapIns=5 exceeds KVSwapOuts", func(r *Result) { r.KVSwapIns = 5 }},
		{"KV preemption conservation", func(r *Result) { r.KVRecomputes = 3 }},
		{"negative KV counter", func(r *Result) { r.KVRejected = -1 }},
	} {
		r := valid()
		c.mutate(&r)
		err := r.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), c.law) {
			t.Errorf("%s: CheckInvariants() = %v, want an error naming it", c.law, err)
		}
	}
}
