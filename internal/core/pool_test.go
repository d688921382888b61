package core

import (
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/workload"
)

// emptyState builds a run's state with no instance provisioned, for
// direct controller tests that arrange their own pools and instances.
func emptyState(t *testing.T, opts Options) *simulation {
	t.Helper()
	r, _ := fixtures(t)
	return newState(nil, opts, r, false)
}

func TestTransitionHasDowntime(t *testing.T) {
	m := model.Llama2_70B
	// Scaling up never takes the instance fully down (§IV-C).
	for _, c := range [][2]model.TP{{model.TP2, model.TP4}, {model.TP4, model.TP8}, {model.TP2, model.TP8}} {
		if transitionHasDowntime(m, c[0], c[1]) {
			t.Errorf("scale-up %v->%v should not require downtime", c[0], c[1])
		}
	}
	// TP4->TP2 for a 70B model cannot hold both shard sets.
	if !transitionHasDowntime(m, model.TP4, model.TP2) {
		t.Error("70B TP4->TP2 must require downtime")
	}
	// A small model's shards coexist on the way down.
	if transitionHasDowntime(model.Llama2_13B, model.TP4, model.TP2) {
		t.Error("13B TP4->TP2 should not require downtime")
	}
}

func TestPriceCountsFeasibility(t *testing.T) {
	sm := emptyState(t, DynamoLLM())
	mix := func(tp model.TP, n int) (counts [len(model.TPChoices)]int) {
		counts[tp.Slot()] = n
		return counts
	}
	// A TP2-only mix cannot serve MM at medium load (Table I): per-pair
	// fair share of 3 req/s exceeds a TP2 instance's SLO capacity.
	_, _, ok := priceCounts(sm, workload.MM, mix(model.TP2, 2), 6.0)
	if ok {
		t.Error("TP2-only mix should be infeasible for 6 req/s of MM")
	}
	power, cap, ok := priceCounts(sm, workload.MM, mix(model.TP4, 2), 3.0)
	if !ok || cap < 3.0 || power <= 0 {
		t.Errorf("TP4x2 pricing: power=%v cap=%v ok=%v", power, cap, ok)
	}
	// More instances at the same demand cannot price cheaper per the
	// whole group than needed capacity... but must raise capacity.
	_, cap4, _ := priceCounts(sm, workload.MM, mix(model.TP4, 4), 3.0)
	if cap4 <= cap {
		t.Error("doubling instances should raise capacity")
	}
	if _, _, ok := priceCounts(sm, workload.MM, [len(model.TPChoices)]int{}, 1); ok {
		t.Error("empty mix should be infeasible")
	}
}

func TestInstanceCapacityRespectsFreqAndTP(t *testing.T) {
	sm := emptyState(t, DynamoLLM())
	mk := func(tp model.TP, f gpu.Freq) *Instance {
		in := newInstance(1, 0, tp, true)
		in.mixIn, in.mixOut = 512, 187 // MM shape
		in.freqCtl.Set(f)
		return in
	}
	c48 := mk(model.TP4, gpu.MaxFreq).capacity(sm)
	c12 := mk(model.TP4, 1200).capacity(sm)
	if c12 > c48 {
		t.Errorf("capacity at 1.2GHz (%v) exceeds max clock (%v)", c12, c48)
	}
	c8 := mk(model.TP8, gpu.MaxFreq).capacity(sm)
	if c8 < c48 {
		t.Errorf("TP8 capacity (%v) below TP4 (%v)", c8, c48)
	}
	// Throughput throttling during transitions scales capacity.
	in := mk(model.TP8, gpu.MaxFreq)
	in.throughputFactor = 0.5
	if got := in.capacity(sm); got < c8*0.45 || got > c8*0.55 {
		t.Errorf("throttled capacity = %v, want ~half of %v", got, c8)
	}
}

func TestPickInstancePrefersHeadroom(t *testing.T) {
	sm := emptyState(t, DynamoLLM())
	p := &Pool{Index: 0, Classes: []workload.Class{workload.MM}, RepClass: workload.MM}
	a := newInstance(1, 0, model.TP4, true)
	b := newInstance(2, 0, model.TP4, true)
	for _, in := range []*Instance{a, b} {
		in.mixIn, in.mixOut = 512, 187
	}
	// The paper's rule is min-marginal-energy WITHIN per-instance
	// throughput: a saturated instance is excluded outright.
	a.rate = a.capacity(sm) * 1.01 // saturated
	b.rate = 0.1
	p.Instances = []*Instance{a, b}
	if got := p.pickInstance(sm, 0); got != b {
		t.Errorf("picked the saturated instance")
	}
}

func TestPickInstanceSkipsInactive(t *testing.T) {
	sm := emptyState(t, DynamoLLM())
	p := &Pool{Index: 0, Classes: []workload.Class{workload.MM}, RepClass: workload.MM}
	a := newInstance(1, 0, model.TP4, true)
	a.mixIn, a.mixOut = 512, 187
	a.state = stateProvisioning
	a.readyAt = 100
	p.Instances = []*Instance{a}
	if p.pickInstance(sm, 0) != nil {
		t.Error("picked a provisioning instance")
	}
	a.settle(100)
	if p.pickInstance(sm, 100) != a {
		t.Error("did not pick the settled instance")
	}
}

func TestReshardPoolConservesGPUs(t *testing.T) {
	sm := emptyState(t, DynamoLLM())
	p := &Pool{Index: 0, Classes: []workload.Class{workload.SS}, RepClass: workload.SS, targetGPUs: 16}
	for i := 0; i < 2; i++ {
		in := newInstance(sm.nextInstanceID(), 0, model.TP8, true)
		in.mixIn, in.mixOut = poolRepLengths(p)
		in.rate = 1
		p.Instances = append(p.Instances, in)
	}
	p.observedSince = 1
	touched := p.reshardPool(sm, 200, 2.0)
	if p.gpusInUse() > p.targetGPUs {
		t.Errorf("reshard exceeded GPU budget: %d > %d", p.gpusInUse(), p.targetGPUs)
	}
	// SS at 2 req/s should shed the TP8-only layout toward smaller
	// degrees (its optimum is TP2).
	if touched == 0 {
		t.Error("oversized TP8 pool should reconfigure for SS traffic")
	}
}

func TestReshardPoolGatedUntilObserved(t *testing.T) {
	sm := emptyState(t, DynamoLLM())
	p := &Pool{Index: 0, Classes: []workload.Class{workload.SS}, RepClass: workload.SS, targetGPUs: 16}
	in := newInstance(1, 0, model.TP8, true)
	p.Instances = []*Instance{in}
	if got := p.reshardPool(sm, 0, 1); got != 0 {
		t.Error("cold pool resharded before observing traffic")
	}
	p.observedSince = 1
	if got := p.reshardPool(sm, 30, 1); got != 0 {
		t.Error("pool resharded before estimates settled")
	}
}

func TestReshardHysteresisHoldsNearOptimal(t *testing.T) {
	sm := emptyState(t, DynamoLLM())
	p := &Pool{Index: 0, Classes: []workload.Class{workload.MM}, RepClass: workload.MM, targetGPUs: 8}
	p.observedSince = 1
	// First reshard settles a configuration...
	in := newInstance(sm.nextInstanceID(), 0, model.TP8, true)
	in.mixIn, in.mixOut = poolRepLengths(p)
	in.rate = 2
	p.Instances = []*Instance{in}
	p.reshardPool(sm, 100, 2.0)
	for _, x := range p.Instances {
		x.settle(1e9)
		x.rate = 2 / float64(len(p.Instances))
	}
	// ...and re-solving with a marginally different demand must not
	// thrash the layout.
	if got := p.reshardPool(sm, 400, 2.05); got != 0 {
		t.Errorf("reshard thrashing: %d transitions for a 2.5%% demand change", got)
	}
}

func TestEarliestReady(t *testing.T) {
	p := &Pool{}
	a := newInstance(1, 0, model.TP8, true)
	a.state = stateResharding
	a.readyAt = 50
	b := newInstance(2, 0, model.TP8, true)
	b.state = stateProvisioning
	b.readyAt = 20
	off := newInstance(3, 0, model.TP8, true)
	off.state = stateOff
	p.Instances = []*Instance{a, b, off}
	if got := earliestReady(p); got != b {
		t.Errorf("earliestReady = %v, want instance 2", got.ID)
	}
}

func TestObserveMixEWMA(t *testing.T) {
	in := newInstance(1, 0, model.TP8, true)
	in.observeMix(512, 200, 1)
	if in.mixIn != 512 || in.mixOut != 200 {
		t.Fatalf("first observation not adopted: %v/%v", in.mixIn, in.mixOut)
	}
	in.observeMix(1024, 400, 1)
	if in.mixIn <= 512 || in.mixIn >= 1024 {
		t.Errorf("EWMA out of range: %v", in.mixIn)
	}
	in.observeMix(0, 0, 0) // zero count ignored
	if in.mixIn <= 512 {
		t.Error("zero-count observation changed the mix")
	}
}

func TestProfileSnapFrequencyConsistency(t *testing.T) {
	// capacity() must not crash on off-ladder frequencies.
	sm := emptyState(t, DynamoLLM())
	in := newInstance(1, 0, model.TP4, true)
	in.mixIn, in.mixOut = 512, 187
	in.freqCtl.Set(1333) // snaps to 1400
	if in.capacity(sm) <= 0 {
		t.Error("no capacity at snapped frequency")
	}
}

// TestPoolRepClassMatchesPooling: every pool's RepClass is the largest
// class of its base pool under any pool count, with and without
// disaggregation — decode twins carry their prefill twin's class. The
// controllers read the field directly, so nothing may let it drift from
// the pooling table.
func TestPoolRepClassMatchesPooling(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for _, disagg := range []bool{false, true} {
			sm := emptyState(t, Options{NumPools: n, Substrate: Substrate{Disagg: disagg}})
			want := n
			if disagg {
				want = 2 * n
			}
			if len(sm.pools) != want {
				t.Fatalf("NumPools=%d disagg=%v: %d pools, want %d", n, disagg, len(sm.pools), want)
			}
			for _, p := range sm.pools {
				if got, exp := p.RepClass, sm.pooling.Largest(p.Index%n); got != exp {
					t.Errorf("NumPools=%d disagg=%v pool %d: RepClass %v, want %v", n, disagg, p.Index, got, exp)
				}
			}
		}
	}
}
