package core

import (
	"dynamollm/internal/model"
	"dynamollm/internal/simclock"
)

// TickHook observes and perturbs a running simulation at tick granularity.
// The hook fires at the start of every tick, after lifecycle timers settle
// and before the epoch managers and the router run, so an injected outage
// or price change is visible to every controller decision made that tick.
//
// Implementations on the steady path must not allocate: the tick loop's
// zero-allocation invariant (TestTickLoopAllocationFree) is asserted with
// a hook installed. scenario.Agenda, the standard implementation, costs
// one bounds check plus a scan of its open windows per tick.
type TickHook interface {
	OnTick(now simclock.Time, ctl *Controls)
}

// Controls is a facade over a run's state: the narrow mutation surface a
// TickHook may use to perturb the cluster mid-run — fail and recover
// capacity, move the electricity price, and tighten or relax the SLO
// window. It is the run state itself under another method set (a
// *simulation converts to a *Controls for free), and it deliberately
// exposes no direct access to pools or instances so hooks cannot break
// the tick loop's scratch-state invariants.
type Controls simulation

// ActiveServers reports the cluster's live capacity in 8-GPU server
// equivalents (provisioning instances count: their GPUs are occupied).
func (ct *Controls) ActiveServers() int {
	gpus := 0
	for _, p := range ct.pools {
		gpus += p.gpusInUse()
	}
	return gpus / 8
}

// FailServers abruptly removes up to n servers' worth (8 GPUs each) of
// instances from the cluster — the injected GPU/node outage. Victims are
// taken instance by instance from the pool with the most GPUs in use, so
// a multi-server outage spreads the way a rack failure would; whole
// instances die, so a sharded fleet may lose slightly more than n*8 GPUs
// (you cannot fail half a machine). Each killed instance's in-flight
// work goes to the frontend retry path (re-routed after a backoff,
// terminally squashed only past the retry budget); the instance is
// parked stateOff and reaped by compactPools on the same tick. Returns the
// number of servers failed, rounded up from the GPUs actually lost (the
// cluster may hold fewer than asked).
//
// Static systems stay degraded until a recovery event; autoscaling systems
// re-provision at the next cluster epoch (or sooner through the emergency
// path), which is exactly the asymmetry outage scenarios measure.
func (ct *Controls) FailServers(n int) int {
	want := n * 8
	killed := 0
	for killed < want {
		p := ct.busiestPool()
		if p == nil {
			break
		}
		in := newestLive(p)
		if in == nil {
			break
		}
		killed += in.TP.GPUs()
		ct.failedGPUs[p.Index] += in.TP.GPUs()
		ct.killInstance(in)
	}
	return (killed + 7) / 8
}

// RecoverServers restores up to n previously failed servers: fresh TP8
// instances are provisioned (paying the usual Table V boot latency) in
// the pools the outage hit, draining the per-pool failed-GPU ledger
// largest-debt first. Fractional per-pool remainders (a sharded victim
// straddling the 8-GPU server size) still count toward recovery — every
// failed GPU is eventually restored, never stranded below a whole-server
// threshold. Returns the number of servers brought back.
func (ct *Controls) RecoverServers(n int) int {
	recovered := 0
	for ; n > 0; n-- {
		pool := -1
		for i, g := range ct.failedGPUs {
			if g > 0 && (pool < 0 || g > ct.failedGPUs[pool]) {
				pool = i
			}
		}
		if pool < 0 {
			break
		}
		if ct.failedGPUs[pool] -= 8; ct.failedGPUs[pool] < 0 {
			ct.failedGPUs[pool] = 0
		}
		(*simulation)(ct).addInstance(ct.pools[pool], model.TP8, ct.tickStart, false)
		ct.res.Recoveries++
		recovered++
	}
	return recovered
}

// FailRack models a correlated failure: up to n co-located instances die
// at once, all taken from the single pool with the most GPUs in use (one
// "rack" hosting one placement group). Unlike FailServers, which spreads
// victims across the cluster server by server, the whole blast radius
// lands on one request type — the worst case for that pool's SLO. Lost
// GPUs enter the same per-pool ledger RecoverServers drains. Returns the
// number of instances killed.
func (ct *Controls) FailRack(n int) int {
	p := ct.busiestPool()
	if p == nil {
		return 0
	}
	killed := 0
	for killed < n {
		in := newestLive(p)
		if in == nil {
			break
		}
		ct.failedGPUs[p.Index] += in.TP.GPUs()
		ct.killInstance(in)
		killed++
	}
	return killed
}

// StraggleServers degrades up to n healthy instances to stragglers: their
// achieved clock becomes factor × the commanded frequency (0 < factor < 1)
// until RepairStragglers clears them. Victims are the newest healthy
// instances cluster-wide — deterministic and independent of per-tick
// iteration state, like outage victim choice. The degradation is invisible
// to the controllers' plans (marginalPower prices the commanded clock);
// they observe only its symptoms — backlog growth, capacity misses — which
// is exactly what makes stragglers harder than crashes. Returns the number
// of instances degraded.
func (ct *Controls) StraggleServers(n int, factor float64) int {
	if factor <= 0 || factor >= 1 {
		return 0
	}
	made := 0
	for made < n {
		var victim *Instance
		for _, p := range ct.pools {
			for _, in := range p.Instances {
				if in.state == stateOff || in.slowFactor != 1 {
					continue
				}
				if victim == nil || in.ID > victim.ID {
					victim = in
				}
			}
		}
		if victim == nil {
			break
		}
		victim.slowFactor = factor
		ct.res.Stragglers++
		made++
	}
	return made
}

// RepairStragglers restores up to n straggling instances to full speed
// (pool order, oldest first — repairs land in rack-visit order, not
// LIFO). Returns the number repaired.
func (ct *Controls) RepairStragglers(n int) int {
	repaired := 0
	for _, p := range ct.pools {
		for _, in := range p.Instances {
			if repaired >= n {
				return repaired
			}
			if in.state != stateOff && in.slowFactor != 1 {
				in.slowFactor = 1
				repaired++
			}
		}
	}
	return repaired
}

// SetSubmitDelay adds d seconds of frontend submission latency to every
// request arriving from this tick on (a transient network blip or
// overloaded gateway between the frontend and the instances); 0 ends the
// blip. The delay rides each request's SteerPenalty, so it pushes event
// submission and fluid TTFT identically.
func (ct *Controls) SetSubmitDelay(d float64) {
	if d < 0 {
		d = 0
	}
	if d > 0 && ct.submitDelay == 0 {
		ct.res.Blips++
	}
	ct.submitDelay = d
}

// SetPriceMult sets the electricity-price multiplier applied on top of
// the nominal electricity price (energy.DefaultCost, the §V-F
// ERCOT-like $0.03/kWh) from this tick on (1 = nominal). The
// multiplier feeds Result.EnergyCostUSD and the price-aware controllers:
// expensive energy tightens the DVFS headroom and the re-sharding
// hysteresis, and routes the pool manager through the cost-objective
// solver.
func (ct *Controls) SetPriceMult(x float64) {
	if x <= 0 {
		x = 1
	}
	ct.priceMult = x
}

// SetSLOFactor scales the SLOs of requests arriving from this tick on:
// factors below 1 tighten (an SLO-crunch window), above 1 relax. The
// controllers keep planning against the nominal SLO — a sudden contractual
// tightening stresses the system precisely because capacity was not
// provisioned for it.
func (ct *Controls) SetSLOFactor(x float64) {
	if x <= 0 {
		x = 1
	}
	ct.sloMult = x
}

// busiestPool returns the live pool with the most GPUs in use.
func (ct *Controls) busiestPool() *Pool {
	var best *Pool
	bestGPUs := 0
	for _, p := range ct.pools {
		if g := p.gpusInUse(); g > bestGPUs {
			best, bestGPUs = p, g
		}
	}
	return best
}

// newestLive returns the most recently created non-off instance — outages
// take whole machines, and taking the newest keeps the victim choice
// deterministic and independent of per-tick iteration state.
func newestLive(p *Pool) *Instance {
	var best *Instance
	for _, in := range p.Instances {
		if in.state == stateOff {
			continue
		}
		if best == nil || in.ID > best.ID {
			best = in
		}
	}
	return best
}

// killInstance models the abrupt loss of one instance: queued work is
// handed to the frontend retry path through the fidelity backend, and
// the instance is parked for compaction.
func (ct *Controls) killInstance(in *Instance) {
	in.state = stateOff
	ct.backend.Retire(in, ct.tickStart, false)
	ct.res.Outages++
}
