package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/workload"
)

func cfg70(tp model.TP, f gpu.Freq) Config {
	return Config{Model: model.Llama2_70B, TP: tp, Freq: f}
}

// steady70 evaluates the Llama2-70B steady state for a class at a total
// token throughput (the Table I load basis).
func steady70(c workload.Class, totalTPS float64, tp model.TP, f gpu.Freq) Steady {
	in, out := workload.RepresentativeLengths(c)
	lambda := totalTPS / float64(in+out)
	return SteadyState(cfg70(tp, f), lambda, in, out)
}

func feasible(c workload.Class, tps float64, tp model.TP, f gpu.Freq) bool {
	return steady70(c, tps, tp, f).MeetsSLO(c, 1)
}

func energy(c workload.Class, tps float64, tp model.TP, f gpu.Freq) float64 {
	return steady70(c, tps, tp, f).EnergyPerRequest
}

func TestIterTimeInPaperRange(t *testing.T) {
	// Decode iterations for Llama2-70B take 20-30 ms (§III-C).
	st := steady70(workload.MM, 2000, model.TP8, gpu.MaxFreq)
	if st.IterTime < 0.010 || st.IterTime > 0.035 {
		t.Errorf("TP8 decode iteration = %v s, want ~0.015-0.03", st.IterTime)
	}
}

func TestIsolatedLatencyWithinSLOHeadroom(t *testing.T) {
	// Table IV sets SLOs at 5x isolated latency; the model must leave at
	// least that headroom for every class on the reference config.
	for _, c := range workload.AllClasses {
		in, out := workload.RepresentativeLengths(c)
		ttft, tbt := IsolatedLatency(model.Llama2_70B, in, out)
		slo := workload.SLOFor(c)
		if slo.TTFT < 5*ttft {
			t.Errorf("%v: TTFT SLO %v < 5x isolated %v", c, slo.TTFT, ttft)
		}
		if slo.TBT < 5*tbt {
			t.Errorf("%v: TBT SLO %v < 5x isolated %v", c, slo.TBT, tbt)
		}
	}
}

// --- Table I shape ----------------------------------------------------------

// TestTableIShortRequestsRunAtTP2 pins §III-A: "the least-energy
// configuration for SS requests is TP2 at 1.2 GHz" (at medium load).
func TestTableIShortRequestsRunAtTP2(t *testing.T) {
	if !feasible(workload.SS, 2000, model.TP2, 1200) {
		t.Fatal("SS at TP2/1.2GHz must be feasible at 2K TPS")
	}
	best := math.Inf(1)
	var bestTP model.TP
	for _, tp := range model.TPChoices {
		for _, f := range gpu.CoarseLadder() {
			if feasible(workload.SS, 2000, tp, f) {
				if e := energy(workload.SS, 2000, tp, f); e < best {
					best, bestTP = e, tp
				}
			}
		}
	}
	if bestTP != model.TP2 {
		t.Errorf("SS least-energy TP = %v, want TP2", bestTP)
	}
}

// TestTableIMediumRequestsNeedTP4 pins the MM row: TP2 violates the SLO at
// medium load at every frequency, TP4 meets it from 1.2 GHz but not 0.8.
func TestTableIMediumRequestsNeedTP4(t *testing.T) {
	for _, f := range gpu.CoarseLadder() {
		if feasible(workload.MM, 2000, model.TP2, f) {
			t.Errorf("MM at TP2/%v should violate SLO at 2K TPS", f)
		}
	}
	if feasible(workload.MM, 2000, model.TP4, 800) {
		t.Error("MM at TP4/0.8GHz should violate the TBT SLO (long prefill chunks)")
	}
	for _, f := range []gpu.Freq{1200, 1600, gpu.MaxFreq} {
		if !feasible(workload.MM, 2000, model.TP4, f) {
			t.Errorf("MM at TP4/%v should be feasible at 2K TPS", f)
		}
	}
	if !feasible(workload.MM, 2000, model.TP8, 800) {
		t.Error("MM at TP8/0.8GHz should be feasible at 2K TPS")
	}
}

// TestTableISLOptimum pins §III-A: with the strict SLO, SL requests at
// medium load have their optimum at TP4 and 1.2 GHz.
func TestTableISLOptimum(t *testing.T) {
	best := math.Inf(1)
	var bestTP model.TP
	var bestF gpu.Freq
	for _, tp := range model.TPChoices {
		for _, f := range gpu.CoarseLadder() {
			if feasible(workload.SL, 2000, tp, f) {
				if e := energy(workload.SL, 2000, tp, f); e < best {
					best, bestTP, bestF = e, tp, f
				}
			}
		}
	}
	if bestTP != model.TP4 || bestF > 1200 {
		t.Errorf("SL optimum = %v@%v, want TP4 at a low clock (<=1.2GHz)", bestTP, bestF)
	}
}

// TestTableILongRequestsCannotUseTP2 pins the LL row boundary: TP2 is
// infeasible for LL at medium load; TP8 is feasible from low clocks and
// clocking down from the boost ceiling saves substantial energy (the
// paper's LL optimum sits well below 2.0 GHz). Our feasibility boundary
// sits lower than the paper's (their 0.8 GHz cell is blank because it is
// near saturation on their testbed), so we pin the direction and the
// magnitude of the saving rather than the exact minimum cell; see
// EXPERIMENTS.md.
func TestTableILongRequestsCannotUseTP2(t *testing.T) {
	for _, f := range gpu.CoarseLadder() {
		if feasible(workload.LL, 2000, model.TP2, f) {
			t.Errorf("LL at TP2/%v should violate SLO", f)
		}
	}
	if !feasible(workload.LL, 2000, model.TP8, 1200) {
		t.Error("LL at TP8/1.2GHz should be feasible")
	}
	e12 := energy(workload.LL, 2000, model.TP8, 1200)
	e20 := energy(workload.LL, 2000, model.TP8, gpu.MaxFreq)
	if e20 < e12*1.25 {
		t.Errorf("LL@TP8: max clock (%v) should cost >=25%% more than 1.2GHz (%v)", e20, e12)
	}
}

// TestLooseSLOWidensFeasibleSet pins §III-A's service-SLO observation:
// relaxing the SLO from 5x to 10x/20x admits configurations that the strict
// SLO rejects.
func TestLooseSLOWidensFeasibleSet(t *testing.T) {
	in, out := workload.RepresentativeLengths(workload.MM)
	lambda := 2000.0 / float64(in+out)
	cfg := cfg70(model.TP4, 800)
	st := SteadyState(cfg, lambda, in, out)
	if st.MeetsSLO(workload.MM, 1) {
		t.Fatal("MM TP4@0.8 should fail the strict SLO")
	}
	if !st.MeetsSLO(workload.MM, 4) {
		t.Error("MM TP4@0.8 should pass a 20x SLO")
	}
}

// --- Table II shape ---------------------------------------------------------

// TestTableIILoadShapesFeasibility: the prompt-TPS load sweep. Low load
// admits TP2; high load excludes TP2 entirely and pushes TP4 to >=1.6 GHz.
func TestTableIILoadShapesFeasibility(t *testing.T) {
	in, out := workload.RepresentativeLengths(workload.MM)
	st := func(promptTPS float64, tp model.TP, f gpu.Freq) Steady {
		return SteadyState(cfg70(tp, f), promptTPS/float64(in), in, out)
	}
	// Low (650 prompt TPS): some TP2 configuration works.
	lowTP2 := false
	for _, f := range gpu.CoarseLadder() {
		if st(650, model.TP2, f).MeetsSLO(workload.MM, 1) {
			lowTP2 = true
		}
	}
	if !lowTP2 {
		t.Error("at low load some TP2 configuration should meet the SLO")
	}
	// High (4000 prompt TPS): no TP2 configuration works; TP4 needs a
	// high clock; all TP8 clocks work.
	for _, f := range gpu.CoarseLadder() {
		if st(4000, model.TP2, f).MeetsSLO(workload.MM, 1) {
			t.Errorf("at high load TP2/%v should violate SLO", f)
		}
		if !st(4000, model.TP8, f).MeetsSLO(workload.MM, 1) {
			t.Errorf("at high load TP8/%v should be feasible", f)
		}
	}
	if st(4000, model.TP4, 1200).MeetsSLO(workload.MM, 1) {
		t.Error("at high load TP4/1.2GHz should saturate")
	}
	if !st(4000, model.TP4, 1600).MeetsSLO(workload.MM, 1) {
		t.Error("at high load TP4/1.6GHz should be feasible")
	}
}

// TestEnergySavingsShrinkWithLoad mirrors Fig. 12's trend: the gap between
// the best feasible configuration and the max-performance baseline narrows
// as load rises.
func TestEnergySavingsShrinkWithLoad(t *testing.T) {
	in, out := workload.RepresentativeLengths(workload.MM)
	saving := func(promptTPS float64) float64 {
		lambda := promptTPS / float64(in)
		base := SteadyState(cfg70(model.TP8, gpu.MaxFreq), lambda, in, out)
		best := base.EnergyPerRequest
		for _, tp := range model.TPChoices {
			for _, f := range gpu.CoarseLadder() {
				s := SteadyState(cfg70(tp, f), lambda, in, out)
				if s.MeetsSLO(workload.MM, 1) && s.EnergyPerRequest < best {
					best = s.EnergyPerRequest
				}
			}
		}
		return 1 - best/base.EnergyPerRequest
	}
	low, med, high := saving(650), saving(2000), saving(4000)
	if !(low > med && med > high) {
		t.Errorf("savings should shrink with load: low=%.2f med=%.2f high=%.2f", low, med, high)
	}
	if low < 0.2 {
		t.Errorf("low-load saving = %.2f, want substantial (>20%%)", low)
	}
}

// --- Table III shape --------------------------------------------------------

func TestTableIIIModelBoundaries(t *testing.T) {
	in, out := workload.RepresentativeLengths(workload.MM)
	lambda := 2000.0 / float64(in+out)
	// Small models meet the SLO at TP2; their optimum is TP2.
	for _, m := range []*model.Model{model.Llama2_13B, model.Mixtral8x7B} {
		st := SteadyState(Config{Model: m, TP: model.TP2, Freq: 1200}, lambda, in, out)
		if !st.MeetsSLO(workload.MM, 1) {
			t.Errorf("%s at TP2/1.2GHz should be feasible", m.Name)
		}
	}
	// Huge models only run at TP8 (memory), with 1.2 GHz beating 0.8.
	for _, m := range []*model.Model{model.Mixtral22B, model.Falcon180B} {
		for _, tp := range []model.TP{model.TP2, model.TP4} {
			st := SteadyState(Config{Model: m, TP: tp, Freq: gpu.MaxFreq}, lambda, in, out)
			if st.Feasible {
				t.Errorf("%s at %v should be infeasible (memory)", m.Name, tp)
			}
		}
		st := SteadyState(Config{Model: m, TP: model.TP8, Freq: gpu.MaxFreq}, lambda, in, out)
		if !st.MeetsSLO(workload.MM, 1) {
			t.Errorf("%s at TP8 max freq should be feasible", m.Name)
		}
	}
	// MoE sparsity: Mixtral-8x7B is cheaper than the dense 13B is NOT
	// required, but it must be far cheaper than dense 70B at same TP.
	e7b := SteadyState(Config{Model: model.Mixtral8x7B, TP: model.TP4, Freq: 1200}, lambda, in, out).EnergyPerRequest
	e70 := SteadyState(Config{Model: model.Llama2_70B, TP: model.TP4, Freq: 1200}, lambda, in, out).EnergyPerRequest
	if e7b >= e70 {
		t.Errorf("mixtral-8x7b energy %v should beat llama2-70b %v", e7b, e70)
	}
}

// --- Structural properties --------------------------------------------------

func TestIterMonotoneInBatch(t *testing.T) {
	c := cfg70(model.TP8, 1600)
	prev := 0.0
	for b := 1.0; b <= 256; b *= 2 {
		r := c.Iter(Batch{DecodeSeqs: b, ContextTokens: b * 600})
		if r.Time <= prev {
			t.Fatalf("iteration time not increasing in batch at B=%v", b)
		}
		prev = r.Time
	}
}

func TestIterEmptyBatch(t *testing.T) {
	r := cfg70(model.TP8, 1600).Iter(Batch{})
	if r.Time != 0 || r.Util != 0 {
		t.Errorf("empty batch should be free, got %+v", r)
	}
}

func TestIsolatedPrefillScalesWithInput(t *testing.T) {
	c := cfg70(model.TP8, gpu.MaxFreq)
	t512 := c.IsolatedPrefill(512)
	t3072 := c.IsolatedPrefill(3072)
	if t3072 < 4*t512 {
		t.Errorf("prefill(3072)=%v should be >=4x prefill(512)=%v", t3072, t512)
	}
	if c.IsolatedPrefill(0) != 0 {
		t.Error("empty prefill should be free")
	}
}

// Property: utilization and feasibility behave sanely across random loads.
func TestSteadyStateInvariants(t *testing.T) {
	f := func(loadSeed uint16, tpIdx, fIdx, clsIdx uint8) bool {
		tp := model.TPChoices[int(tpIdx)%3]
		freq := gpu.CoarseLadder()[int(fIdx)%4]
		cls := workload.AllClasses[int(clsIdx)%9]
		in, out := workload.RepresentativeLengths(cls)
		lambda := float64(loadSeed%5000)/1000 + 0.001
		st := SteadyState(cfg70(tp, freq), lambda, in, out)
		if st.Power < 0 || st.EnergyPerRequest < 0 {
			return false
		}
		if st.Feasible {
			if st.IterTime <= 0 || st.Batch < 0 {
				return false
			}
			if st.TBTP99 < st.TBTMean-1e-12 {
				return false
			}
			if st.TTFTP99 < 0 {
				return false
			}
			if st.Util < 0 || st.Util > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: energy per request decreases (or stays flat) as load grows at a
// fixed feasible configuration, since idle/static power amortizes.
func TestEnergyAmortizesWithLoad(t *testing.T) {
	in, out := workload.RepresentativeLengths(workload.MM)
	c := cfg70(model.TP8, 1600)
	prev := math.Inf(1)
	for _, lambda := range []float64{0.5, 1, 2, 4} {
		st := SteadyState(c, lambda, in, out)
		if !st.Feasible {
			t.Fatalf("lambda=%v should be feasible", lambda)
		}
		if st.EnergyPerRequest >= prev {
			t.Errorf("energy/request should fall with load: %v at lambda=%v", st.EnergyPerRequest, lambda)
		}
		prev = st.EnergyPerRequest
	}
}

func TestZeroLoadIdlePower(t *testing.T) {
	st := SteadyState(cfg70(model.TP8, 1600), 0, 512, 200)
	if st.PowerPerGPU != gpu.H100.IdlePower {
		t.Errorf("zero-load power = %v, want idle %v", st.PowerPerGPU, gpu.H100.IdlePower)
	}
}

func TestInfeasibleTPRejected(t *testing.T) {
	st := SteadyState(Config{Model: model.Falcon180B, TP: model.TP2, Freq: 1600}, 1, 512, 200)
	if st.Feasible {
		t.Error("falcon-180b at TP2 must be infeasible")
	}
}

func TestMaxLoad(t *testing.T) {
	load, ok := MaxLoad(cfg70(model.TP8, gpu.MaxFreq), workload.MM, 1)
	if !ok || load <= 0 {
		t.Fatalf("MaxLoad = %v, %v", load, ok)
	}
	in, out := workload.RepresentativeLengths(workload.MM)
	at := SteadyState(cfg70(model.TP8, gpu.MaxFreq), load*0.99, in, out)
	if !at.MeetsSLO(workload.MM, 1) {
		t.Error("99% of MaxLoad should meet the SLO")
	}
	over := SteadyState(cfg70(model.TP8, gpu.MaxFreq), load*1.05, in, out)
	if over.MeetsSLO(workload.MM, 1) {
		t.Error("105% of MaxLoad should violate the SLO")
	}
	// Higher frequency or parallelism cannot reduce MaxLoad.
	lowF, _ := MaxLoad(cfg70(model.TP8, 1200), workload.MM, 1)
	if lowF > load {
		t.Errorf("MaxLoad at 1.2GHz (%v) exceeds max freq (%v)", lowF, load)
	}
	tp4, _ := MaxLoad(cfg70(model.TP4, gpu.MaxFreq), workload.MM, 1)
	if tp4 > load {
		t.Errorf("MaxLoad at TP4 (%v) exceeds TP8 (%v)", tp4, load)
	}
}

func TestMaxLoadInfeasibleConfig(t *testing.T) {
	if _, ok := MaxLoad(Config{Model: model.Falcon180B, TP: model.TP2, Freq: 800}, workload.MM, 1); ok {
		t.Error("MaxLoad on infeasible config should report not-ok")
	}
}

// TestLooseSLORaisesMaxLoad: relaxing the SLO can only increase capacity.
func TestLooseSLORaisesMaxLoad(t *testing.T) {
	strict, _ := MaxLoad(cfg70(model.TP4, 1200), workload.MM, 1)
	loose, _ := MaxLoad(cfg70(model.TP4, 1200), workload.MM, 2)
	if loose < strict {
		t.Errorf("10x SLO MaxLoad %v < 5x MaxLoad %v", loose, strict)
	}
}
