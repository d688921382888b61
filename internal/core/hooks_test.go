package core

import (
	"testing"

	"dynamollm/internal/model"
	"dynamollm/internal/simclock"
)

// hookEvent is one scheduled perturbation of a testHook.
type hookEvent struct {
	at simclock.Time
	do func(*Controls)
}

// testHook is the minimal TickHook core's own tests install: events,
// given in time order, each fire once on the first tick reaching them.
// (The production hook, scenario.Agenda, lives in a package that imports
// core.)
type testHook struct {
	events []hookEvent
	next   int
}

func (h *testHook) OnTick(now simclock.Time, ctl *Controls) {
	for h.next < len(h.events) && h.events[h.next].at <= now {
		h.events[h.next].do(ctl)
		h.next++
	}
}

// TestControlsFailAndRecover drives outages through a real cluster and
// checks capacity bookkeeping: failed servers leave the fleet, recovery
// restores them (through provisioning), and counters land in the Result.
func TestControlsFailAndRecover(t *testing.T) {
	r, _ := fixtures(t)
	opts := preset("singlepool")
	opts.Seed = 1
	sm := newSimulation(nil, opts, r)
	res := sm.res
	ctl := (*Controls)(sm)

	before := ctl.ActiveServers()
	if before != sm.opts.Servers {
		t.Fatalf("static provision gave %d servers, want %d", before, sm.opts.Servers)
	}
	if got := ctl.FailServers(3); got != 3 {
		t.Fatalf("FailServers(3) = %d", got)
	}
	sm.compactPools()
	if got := ctl.ActiveServers(); got != before-3 {
		t.Errorf("after outage: %d servers, want %d", got, before-3)
	}
	if res.Outages == 0 {
		t.Error("no Outages recorded")
	}

	if got := ctl.RecoverServers(5); got != 3 {
		t.Errorf("RecoverServers(5) restored %d, want 3 (only 3 failed)", got)
	}
	if res.Recoveries != 3 {
		t.Errorf("Recoveries = %d, want 3", res.Recoveries)
	}
	// Recovered instances provision first, then serve.
	if got := ctl.ActiveServers(); got != before {
		t.Errorf("after recovery: %d servers, want %d", got, before)
	}

	// Failing more than exists caps at the fleet.
	got := ctl.FailServers(1000)
	if got > before {
		t.Errorf("failed %d servers out of %d", got, before)
	}
	sm.compactPools()
	if live := ctl.ActiveServers(); live != 0 {
		t.Errorf("%d servers survived a total outage", live)
	}
}

// TestControlsPriceAndSLOClamp: non-positive inputs reset to nominal.
func TestControlsPriceAndSLOClamp(t *testing.T) {
	ctl := (*Controls)(emptyState(t, preset("singlepool")))
	ctl.SetPriceMult(4)
	if ctl.priceMult != 4 {
		t.Errorf("PriceMult = %v", ctl.priceMult)
	}
	ctl.SetPriceMult(-1)
	if ctl.priceMult != 1 {
		t.Errorf("negative price mult not clamped: %v", ctl.priceMult)
	}
	ctl.SetSLOFactor(0.5)
	if ctl.sloMult != 0.5 {
		t.Errorf("SLOFactor = %v", ctl.sloMult)
	}
	ctl.SetSLOFactor(0)
	if ctl.sloMult != 1 {
		t.Errorf("zero SLO factor not clamped: %v", ctl.sloMult)
	}
}

// TestControlsShardedOutageRecoveryParity: on a fragmented multi-pool
// fleet (TP2/TP4/TP8 mixed), a matched outage + recovery pair must
// restore the fleet to its original GPU count — per-pool remainders
// below the 8-GPU server size must not strand failed capacity.
func TestControlsShardedOutageRecoveryParity(t *testing.T) {
	sm := emptyState(t, preset("multipool"))
	for i := 0; i < 3; i++ {
		sm.addInstance(sm.pools[i], model.TP2, 0, true)
	}
	sm.addInstance(sm.pools[3], model.TP4, 0, true)
	sm.addInstance(sm.pools[4], model.TP8, 0, true)
	gpus := func() int {
		n := 0
		for _, p := range sm.pools {
			n += p.gpusInUse()
		}
		return n
	}
	before := gpus() // 3x2 + 4 + 8 = 18
	ctl := (*Controls)(sm)

	failed := ctl.FailServers(2) // 16 GPUs, spread across pools as 8+4+2+2
	if failed != 2 {
		t.Fatalf("FailServers(2) = %d", failed)
	}
	sm.compactPools()
	if got := gpus(); got != before-16 {
		t.Fatalf("after outage: %d GPUs, want %d", got, before-16)
	}
	if got := ctl.RecoverServers(failed); got != failed {
		t.Fatalf("RecoverServers(%d) = %d", failed, got)
	}
	if got := gpus(); got != before {
		t.Errorf("matched outage+recovery left %d GPUs, want %d (stranded remainder)", got, before)
	}
}
