package core

import (
	"math"

	"dynamollm/internal/energy"
	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/profile"
	"dynamollm/internal/reshard"
	"dynamollm/internal/simclock"
	"dynamollm/internal/solver"
	"dynamollm/internal/workload"
)

// Pooling maps the nine request classes onto NumPools pools (Fig. 13
// sweeps the pool count; 9 is the paper's choice).
//
// For fewer than nine pools, classes are merged along the request-size
// order, so short requests share pools only with other short requests and
// the merge target is always the pool serving longer requests (§III-B).
// For more than nine, the heaviest classes get duplicate pools, which
// fragments resources exactly as §V-C observes.
type Pooling struct {
	NumPools int
	// classPool maps each class to its primary pool.
	classPool [workload.NumClasses]int
	// poolClasses lists the classes each pool serves.
	poolClasses [][]workload.Class
	// duplicates: extra pools serving the same class as another pool.
	duplicateOf []int
	// classOptions precomputes, per class, the primary pool plus its
	// duplicates — PoolFor is on the per-request hot path and must not
	// rebuild this list.
	classOptions [workload.NumClasses][]int
}

// sizeOrder lists classes from smallest to largest total work.
var sizeOrder = []workload.Class{
	workload.SS, workload.SM, workload.MS, workload.MM,
	workload.SL, workload.LS, workload.ML, workload.LM, workload.LL,
}

// NewPooling builds the class-to-pool mapping.
func NewPooling(n int) *Pooling {
	if n <= 0 {
		n = 1
	}
	p := &Pooling{NumPools: n}
	base := n
	if base > workload.NumClasses {
		base = workload.NumClasses
	}
	p.poolClasses = make([][]workload.Class, n)
	p.duplicateOf = make([]int, n)
	for i := range p.duplicateOf {
		p.duplicateOf[i] = -1
	}
	// Contiguous partition of sizeOrder into `base` groups.
	for i, cls := range sizeOrder {
		pool := i * base / len(sizeOrder)
		p.classPool[cls] = pool
		p.poolClasses[pool] = append(p.poolClasses[pool], cls)
	}
	// Extra pools duplicate the heaviest-traffic classes (ML, MM, LL, ...).
	heavy := []workload.Class{workload.ML, workload.MM, workload.LL, workload.SM, workload.LM, workload.SL, workload.SS}
	for extra := 0; extra < n-base; extra++ {
		cls := heavy[extra%len(heavy)]
		pool := base + extra
		p.duplicateOf[pool] = p.classPool[cls]
		p.poolClasses[pool] = []workload.Class{cls}
	}
	for cls := range p.classOptions {
		primary := p.classPool[cls]
		options := []int{primary}
		for pool, dup := range p.duplicateOf {
			if dup == primary {
				options = append(options, pool)
			}
		}
		p.classOptions[cls] = options
	}
	return p
}

// PoolFor returns the pool serving a class; when duplicates exist the
// choice alternates via the provided counter to split load.
func (p *Pooling) PoolFor(cls workload.Class, counter uint64) int {
	options := p.classOptions[cls]
	return options[int(counter)%len(options)]
}

// Largest returns the largest (by size order) class a pool serves; merged
// pools are sized for their biggest member.
func (p *Pooling) Largest(pool int) workload.Class {
	classes := p.poolClasses[pool]
	best := classes[0]
	rank := func(c workload.Class) int {
		for i, x := range sizeOrder {
			if x == c {
				return i
			}
		}
		return 0
	}
	for _, c := range classes {
		if rank(c) > rank(best) {
			best = c
		}
	}
	return best
}

// NextLarger returns the pool that serves the next-larger request type
// (the fragmentation spill-over target, §IV-B), or -1 for the largest.
func (p *Pooling) NextLarger(pool int) int {
	largest := p.Largest(pool)
	idx := -1
	for i, c := range sizeOrder {
		if c == largest {
			idx = i
		}
	}
	for i := idx + 1; i < len(sizeOrder); i++ {
		t := p.classPool[sizeOrder[i]]
		if t != pool {
			return t
		}
	}
	return -1
}

// --- Instance -------------------------------------------------------------------

// instState is the lifecycle of one inference-server instance.
type instState int

const (
	stateProvisioning instState = iota // VM booting, weights loading (Table V)
	stateActive
	stateResharding // weights moving / engine sync (§IV-C)
	stateOff
)

// Instance is one inference server: an engine on TP GPUs with a DVFS
// controller, plus the bookkeeping the instance manager needs.
type Instance struct {
	ID    int
	Pool  int
	TP    model.TP
	state instState
	// readyAt is when provisioning/resharding completes.
	readyAt simclock.Time
	// freqCtl models nvidia-smi with or without the resident monitor.
	freqCtl *gpu.FreqController

	// rate is the EWMA of assigned request rate (req/s).
	rate float64
	// mixIn/mixOut are EWMAs of assigned request shapes.
	mixIn, mixOut float64
	// backlog is requests queued beyond engine capacity.
	backlog float64
	// throughputFactor scales capacity during re-sharding transitions.
	throughputFactor float64
	// slowFactor models an injected straggler: the clock the hardware
	// actually achieves as a fraction of the commanded frequency (thermal
	// throttling, a flaky NVLink, a noisy neighbour). 1 = healthy. Unlike
	// throughputFactor it is NOT reset when lifecycle timers settle — it
	// persists until Controls.RepairStragglers clears it.
	slowFactor float64
	// tickAssigned counts requests placed on this instance in the
	// current tick, so placement sees intra-tick load immediately.
	tickAssigned float64
	// emergency notes an active emergency episode (§IV-D).
	emergency bool

	// Hot-path memoization. The tick loop queries capacity, marginal
	// power, and the steady state many times per tick for inputs that
	// only change on transitions (new mix EWMA, frequency change,
	// re-shard, rate-bucket move), so each instance caches its last
	// answer and revalidates by key comparison — the run-wide caches are
	// consulted only when a key changes.

	// mixB* are the geometric shape buckets of the mix EWMAs; mixBValid
	// is cleared whenever observeMix moves them.
	mixInB, mixOutB int
	mixBValid       bool
	// capKeyC/capC memoize capacity() for the last (TP, freq, shape) key.
	capKeyC  capKey
	capC     float64
	capValid bool
	// stKeyC/stC memoize instanceSteady for the last steady key.
	stKeyC  steadyKey
	stC     perfmodel.Steady
	stValid bool
	// marginalC/marginalEntryC memoize pickInstance's marginal-power
	// term, which depends only on tick-stable inputs (rate, mix, freq);
	// marginalTick is the 1-based tick it was computed for (0 = never).
	marginalC      float64
	marginalEntryC *profile.Entry
	marginalTick   int
}

func newInstance(id, pool int, tp model.TP, resident bool) *Instance {
	return &Instance{
		ID:               id,
		Pool:             pool,
		TP:               tp,
		state:            stateActive,
		freqCtl:          gpu.NewFreqController(resident),
		throughputFactor: 1,
		slowFactor:       1,
	}
}

// effFreq is the clock the instance actually achieves: the controller's
// commanded frequency degraded by any injected straggler factor. Healthy
// instances (the steady state) pay one comparison. The degraded value is
// deliberately not snapped back onto the DVFS ladder — the perf model
// handles continuous clocks, and snapping would erase degradation near
// the ladder floor. Cache cardinality stays bounded because slowFactor
// takes only the few values fault scenarios inject.
func (in *Instance) effFreq() gpu.Freq {
	f := in.freqCtl.Current()
	if in.slowFactor == 1 || in.slowFactor <= 0 {
		return f
	}
	return gpu.Freq(float64(f) * in.slowFactor)
}

// Active reports whether the instance can serve right now.
func (in *Instance) Active(now simclock.Time) bool {
	switch in.state {
	case stateActive:
		return true
	case stateResharding:
		// During a soft transition the old shards keep serving at
		// reduced throughput; a hard transition sets factor 0.
		return in.throughputFactor > 0
	default:
		return false
	}
}

// settle advances lifecycle timers.
func (in *Instance) settle(now simclock.Time) {
	if (in.state == stateProvisioning || in.state == stateResharding) && now >= in.readyAt {
		in.state = stateActive
		in.throughputFactor = 1
	}
}

// observeMix folds newly assigned requests into the shape EWMAs.
func (in *Instance) observeMix(inTok, outTok float64, n float64) {
	if n <= 0 {
		return
	}
	in.mixBValid = false
	const a = 0.2
	if in.mixIn == 0 {
		in.mixIn, in.mixOut = inTok, outTok
		return
	}
	in.mixIn = a*inTok + (1-a)*in.mixIn
	in.mixOut = a*outTok + (1-a)*in.mixOut
}

// mixBuckets returns the geometric shape buckets of the mix EWMAs,
// recomputing the logs only when observeMix has moved the EWMAs. Mix
// fields assigned directly at construction are picked up on first use.
func (in *Instance) mixBuckets() (int, int) {
	if !in.mixBValid {
		in.mixInB = shapeBucket(in.mixIn, 8)
		in.mixOutB = shapeBucket(in.mixOut, 4)
		in.mixBValid = true
	}
	return in.mixInB, in.mixOutB
}

// capacity returns the instance's max sustainable rate (req/s) for its
// current mix and configuration, scaled by any transition throttling. It
// is the SLO-constrained capacity of the instance's live request mix,
// against a smoothly interpolated TTFT target so mixed pools do not see
// capacity cliffs when their average crosses a class boundary. The result
// is memoized until TP, frequency, or a shape bucket changes.
func (in *Instance) capacity(sm *simulation) float64 {
	inB, outB := in.mixBuckets()
	key := capKey{tp: in.TP, freq: in.effFreq(), inB: inB, outB: outB}
	if !in.capValid || key != in.capKeyC {
		in.capKeyC = key
		in.capC = sm.shapeCapacityKey(key)
		in.capValid = true
	}
	return in.capC * in.throughputFactor
}

// --- Pool -----------------------------------------------------------------------

// PoolRole is a pool's place in a disaggregated deployment: unified pools
// serve requests end to end (the default); under Options.Disagg each base
// pool becomes prefill-only and gains a decode-only twin that finishes
// generation after the KV handoff.
type PoolRole int

const (
	RoleUnified PoolRole = iota
	RolePrefill
	RoleDecode
)

// String returns the role's display name.
func (r PoolRole) String() string {
	switch r {
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	}
	return "unified"
}

// Pool groups instances serving one request type (or a merged set).
type Pool struct {
	Index     int
	Classes   []workload.Class
	RepClass  workload.Class // largest member class, used for cold sizing
	Role      PoolRole
	Instances []*Instance
	// spillFrac is the fraction of arrivals forwarded to the next-larger
	// pool this epoch (fragmentation handling, §IV-B).
	spillFrac float64
	// targetGPUs is the cluster manager's budget for this pool.
	targetGPUs int
	// arrivalsThisTick counts routed requests for rate estimation.
	arrivalsThisTick int
	// observedSince is when the pool first saw traffic (zero = never);
	// re-sharding waits for rate estimates to settle.
	observedSince simclock.Time
	// lastEmergencyReshard rate-limits out-of-band capacity expansion.
	lastEmergencyReshard simclock.Time
	// emergencyFlag is set by instance managers to escalate to the pool
	// manager (§IV-D).
	emergencyFlag bool
	// merged marks a pool whose load is forwarded to the next-larger
	// pool to avoid fragmentation at low demand (§III-B, §IV-B).
	merged bool
	// rrCounter spreads round-robin decisions.
	rrCounter uint64
}

// gpusInUse sums GPUs of non-off instances.
func (p *Pool) gpusInUse() int {
	n := 0
	for _, in := range p.Instances {
		if in.state != stateOff {
			n += in.TP.GPUs()
		}
	}
	return n
}

// activeInstances returns instances able to serve at t.
func (p *Pool) activeInstances(t simclock.Time) []*Instance {
	var out []*Instance
	for _, in := range p.Instances {
		if in.Active(t) {
			out = append(out, in)
		}
	}
	return out
}

// pickInstance implements the pool manager's energy-aware placement
// (§IV-D): choose the instance whose predicted energy increase is
// smallest while staying within per-instance throughput. Returns nil when
// every instance is saturated. Called once per pool hop per routed
// request, so it iterates the pool directly and never allocates.
func (p *Pool) pickInstance(sm *simulation, now simclock.Time) *Instance {
	var best *Instance
	bestScore := math.Inf(1)
	anyActive := false
	for _, in := range p.Instances {
		if !in.Active(now) {
			continue
		}
		anyActive = true
		cap := in.capacity(sm)
		if cap <= 0 {
			continue
		}
		headroom := cap - in.effRate(sm.opts.Tick)
		if headroom <= 0 {
			continue
		}
		// Marginal power of adding one unit of load: slope of the
		// profile's power curve at the current rate (tick-stable, cached).
		marginal, ok := in.marginalPower(sm)
		if !ok {
			continue
		}
		// Normalize by headroom so nearly-full instances are less
		// attractive (keeps tail latency in check).
		score := marginal + 0.05*in.effRate(sm.opts.Tick)/cap
		if score < bestScore {
			best, bestScore = in, score
		}
	}
	if best == nil && anyActive {
		// All saturated: least loaded relative to capacity.
		for _, in := range p.Instances {
			if !in.Active(now) {
				continue
			}
			cap := in.capacity(sm)
			if cap <= 0 {
				continue
			}
			score := in.effRate(sm.opts.Tick) / cap
			if score < bestScore {
				best, bestScore = in, score
			}
		}
	}
	return best
}

// marginalPower returns the marginal power of adding one unit of load to
// the instance. Its inputs (rate, mix, frequency) are constant while a
// tick's arrivals are being routed, so the value is memoized per tick;
// tick 0 (direct controller tests) always recomputes.
func (in *Instance) marginalPower(sm *simulation) (float64, bool) {
	if sm.curTick != 0 && in.marginalTick == sm.curTick {
		return in.marginalC, in.marginalEntryC != nil
	}
	cls := workload.Classify(int(in.mixIn), int(in.mixOut))
	// The profile only holds ladder frequencies, and the placement policy
	// is the controller's plan anyway — it prices the commanded clock, not
	// a straggler's degraded one (the controller cannot see the fault; the
	// emergency path reacts to the resulting backlog instead).
	e := sm.prof.Entry(profile.Key{Class: cls, TP: in.TP, Freq: in.freqCtl.Current()})
	in.marginalTick = sm.curTick
	in.marginalEntryC = e
	if e == nil {
		in.marginalC = 0
		return 0, false
	}
	const dl = 0.01
	in.marginalC = e.Power.At(in.rate+dl) - e.Power.At(in.rate)
	return in.marginalC, true
}

// effRate is the instance's rate including requests placed this tick.
func (in *Instance) effRate(tick float64) float64 {
	if tick <= 0 {
		return in.rate
	}
	return in.rate + in.tickAssigned/tick
}

// --- Pool manager: shard-up/down (§IV-B) ------------------------------------------

// reshardPool recomputes the pool's parallelism mix with the simplified
// solver (instances pinned at max frequency) and applies the change with
// staggered transitions. Returns the number of instances touched.
func (p *Pool) reshardPool(sm *simulation, now simclock.Time, rate float64) int {
	if p.targetGPUs <= 0 {
		return 0
	}
	// Hold the max-performance configuration until the pool's rate
	// estimate has settled (one minute of observed traffic); re-sharding
	// on a cold estimate collapses capacity under the incoming load.
	if p.observedSince == 0 || now < p.observedSince+60 {
		return 0
	}
	rep := p.RepClass
	if mi, mo := p.meanMixIn(), p.meanMixOut(); mi > 0 {
		rep = workload.Classify(int(mi), int(mo))
	}
	// Never solve for literally zero load: keep enough capacity for a
	// trickle so the pool stays alive between bursts.
	minRate := 0.05 * sm.prof.MaxLoadHighestPerf(rep)
	// Burst headroom: 35% relative plus an absolute floor so sparse pools
	// (fractional req/s) survive Poisson bursts between epochs.
	demand := math.Max(rate*1.35+0.5, minRate)
	var assignment solver.Assignment
	var err error
	priceAware := sm.priceMult != 1
	weights := solver.CostWeights{
		GPUHourUSD:      energy.DefaultCost.GPUHourUSD,
		EnergyUSDPerKWh: energy.DefaultCost.EnergyUSDPerKWh * sm.priceMult,
	}
	if priceAware {
		// Price signal active: solve the full cost objective (GPU rental
		// + electricity at the current price) over the whole frequency
		// ladder instead of the fixed-max-frequency simplification.
		assignment, err = solver.SolveCost(sm.prof, rep, p.targetGPUs, demand, weights, solver.Options{})
	} else {
		assignment, err = solver.SolveSharding(sm.prof, rep, p.targetGPUs, demand)
	}
	if err != nil {
		// Cannot cover: fall back to max-performance sharding.
		assignment = solver.Assignment{Groups: []solver.Group{{
			TP: model.TP8, Count: p.targetGPUs / 8, Freq: gpu.MaxFreq,
		}}}
		if assignment.Groups[0].Count == 0 {
			assignment.Groups[0] = solver.Group{TP: model.TP4, Count: p.targetGPUs / 4, Freq: gpu.MaxFreq}
		}
	}

	// Desired counts per TP.
	want := map[model.TP]int{}
	for _, g := range assignment.Groups {
		want[g.TP] += g.Count
	}

	cur := map[model.TP]int{}
	for _, in := range p.Instances {
		if in.state != stateOff {
			cur[in.TP]++
		}
	}
	if sameCounts(cur, want) {
		return 0
	}

	// Overhead-aware hysteresis (§IV-B "Accounting for the overheads"):
	// reconfigure only when the current mix either cannot cover the
	// demand or wastes at least 10% of the active objective against the
	// proposed mix. This kills oscillation between near-equal optima,
	// whose transition downtime would dwarf the savings. The gate
	// compares the same objective the solver minimized: watts normally,
	// dollars per hour while a price signal holds (a cheap-energy window
	// may propose fewer GPUs at MORE watts — a watt gate would veto
	// exactly the reconfigurations the price signal exists to trigger).
	// Expensive electricity also tightens the band: smaller savings are
	// worth chasing when joules cost more.
	hysteresis := 1 + 0.10/math.Max(sm.priceMult, 1)
	curPower, curCap, curOK := priceCounts(sm, rep, cur, demand)
	if curOK && curCap >= demand {
		if priceAware {
			curGPUs := 0
			for _, tp := range model.TPChoices {
				curGPUs += cur[tp] * tp.GPUs()
			}
			curHourly := float64(curGPUs)*weights.GPUHourUSD + curPower/1000*weights.EnergyUSDPerKWh
			if curHourly <= weights.HourlyUSD(assignment)*hysteresis {
				return 0
			}
		} else if curPower <= assignment.PowerW*hysteresis {
			return 0
		}
	}

	touched := 0
	// Staggered reconfiguration: touch at most half of the pool's
	// instances per epoch so capacity never collapses (§IV-B).
	budget := (len(p.Instances) + 1) / 2
	if budget < 1 {
		budget = 1
	}

	// Reconcile by GPU inventory: surplus instances donate their GPUs to
	// under-represented degrees. A TP8 donor converting to TP2 spawns up
	// to four TP2 instances; four TP2 donors merge into one TP8.
	surplus := map[model.TP]int{}
	deficit := map[model.TP]int{}
	for _, tp := range model.TPChoices {
		switch d := cur[tp] - want[tp]; {
		case d > 0:
			surplus[tp] = d
		case d < 0:
			deficit[tp] = -d
		}
	}

	takeDonor := func() *Instance {
		// Prefer donating from the degree with the most surplus.
		var bestTP model.TP
		for _, tp := range model.TPChoices {
			if surplus[tp] > surplus[bestTP] {
				bestTP = tp
			}
		}
		if surplus[bestTP] == 0 {
			return nil
		}
		in := p.findInstance(bestTP)
		if in == nil {
			surplus[bestTP] = 0
			return nil
		}
		surplus[bestTP]--
		return in
	}

	for _, to := range []model.TP{model.TP8, model.TP4, model.TP2} {
		for deficit[to] > 0 && budget > 0 {
			donor := takeDonor()
			if donor == nil {
				budget = 0
				break
			}
			// Never take a pool's last serving instance through a hard
			// transition (old and new shards cannot coexist, §IV-C): the
			// outage would stall the whole request type. Wait for the
			// next epoch when a sibling can cover.
			if len(p.activeInstances(now)) <= 1 && transitionHasDowntime(sm.opts.Model, donor.TP, to) {
				surplus[donor.TP]++ // put the donor back
				budget = 0
				break
			}
			freed := donor.TP.GPUs()
			// Convert the donor itself.
			applyReshard(sm, now, donor, to)
			donor.Pool = p.Index
			deficit[to]--
			touched++
			budget--
			freed -= to.GPUs()
			// Spare GPUs from a large donor become additional small
			// instances (they inherit the donor's transition window).
			for freed >= to.GPUs() && deficit[to] > 0 {
				extra := newInstance(sm.nextInstanceID(), p.Index, to, sm.opts.ReducedOverheads)
				extra.mixIn, extra.mixOut = poolRepLengths(p)
				extra.state = donor.state
				extra.readyAt = donor.readyAt
				extra.throughputFactor = 0 // new shards must arrive first
				p.Instances = append(p.Instances, extra)
				freed -= to.GPUs()
				deficit[to]--
				touched++
			}
			// A small donor converting up consumes sibling donors' GPUs.
			for freed < 0 {
				sib := takeDonor()
				if sib == nil {
					freed = 0
					break
				}
				sib.state = stateOff
				sm.backend.Retire(sib, now, true)
				freed += sib.TP.GPUs()
			}
		}
	}
	// Remaining pure surplus (nothing needs growth): park, but keep the
	// pool alive with at least one instance.
	for _, tp := range model.TPChoices {
		for surplus[tp] > 0 && budget > 0 && p.liveCount() > 1 {
			in := p.findInstance(tp)
			if in == nil {
				break
			}
			in.state = stateOff
			sm.backend.Retire(in, now, true)
			surplus[tp]--
			touched++
			budget--
		}
	}
	return touched
}

// transitionHasDowntime reports whether re-sharding from one degree to
// another forces the instance fully offline for the transition.
func transitionHasDowntime(m *model.Model, from, to model.TP) bool {
	if to >= from {
		return false
	}
	plan := reshard.PlanReshard(
		reshard.CanonicalLayout(reshard.Config{from}),
		reshard.Config{to},
	)
	return reshard.TransitionImpact(m, from, to, plan).DowntimeSeconds > 0
}

// poolRepLengths returns the representative request shape of a pool's
// largest class, used to initialize cold instances.
func poolRepLengths(p *Pool) (float64, float64) {
	in, out := workload.RepresentativeLengths(p.RepClass)
	return float64(in), float64(out)
}

// liveCount reports non-off instances.
func (p *Pool) liveCount() int {
	n := 0
	for _, in := range p.Instances {
		if in.state != stateOff {
			n++
		}
	}
	return n
}

// priceCounts prices an existing instance-count mix at fair-share load with
// per-group optimal frequencies; ok=false when the mix cannot serve the
// demand at all.
func priceCounts(sm *simulation, cls workload.Class, counts map[model.TP]int, demand float64) (power, capacity float64, ok bool) {
	total := 0
	//dynamolint:order-independent exact integer sum; addition order cannot change it
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0, 0, false
	}
	// Capacity at max frequency.
	for _, tp := range model.TPChoices {
		if counts[tp] == 0 {
			continue
		}
		e := sm.prof.Entry(profile.Key{Class: cls, TP: tp, Freq: gpu.MaxFreq})
		if e != nil {
			capacity += e.MaxLoad * float64(counts[tp])
		}
	}
	if capacity <= 0 {
		return 0, 0, false
	}
	for _, tp := range model.TPChoices {
		n := counts[tp]
		if n == 0 {
			continue
		}
		e := sm.prof.Entry(profile.Key{Class: cls, TP: tp, Freq: gpu.MaxFreq})
		share := 0.0
		if e != nil && capacity > 0 {
			share = demand * e.MaxLoad / capacity
		}
		// Best feasible frequency for the fair share.
		best := math.Inf(1)
		for _, f := range gpu.Ladder() {
			ef := sm.prof.Entry(profile.Key{Class: cls, TP: tp, Freq: f})
			if ef != nil && ef.Feasible(share) {
				if w := ef.Power.At(share); w < best {
					best = w
				}
			}
		}
		if math.IsInf(best, 1) {
			return 0, 0, false
		}
		power += best * float64(n)
	}
	return power, capacity, true
}

func sameCounts(a, b map[model.TP]int) bool {
	for _, tp := range model.TPChoices {
		if a[tp] != b[tp] {
			return false
		}
	}
	return true
}

func (p *Pool) findInstance(tp model.TP) *Instance {
	for _, in := range p.Instances {
		if in.TP == tp && in.state == stateActive {
			return in
		}
	}
	return nil
}

// applyReshard transitions one instance to a new TP degree using the
// matching planner's makespan and the §IV-C impact model.
func applyReshard(sm *simulation, now simclock.Time, in *Instance, to model.TP) {
	from := in.TP
	plan := reshard.PlanReshard(
		reshard.CanonicalLayout(reshard.Config{from}),
		reshard.Config{to},
	)
	im := reshard.TransitionImpact(sm.opts.Model, from, to, plan)
	transfer := im.TransferSeconds
	sync := im.SyncSeconds
	if !sm.opts.ReducedOverheads {
		// Naive path: stop the engine, reload weights from host, restart
		// (§III-C: "around 1-2 minutes" on the critical path).
		in.state = stateResharding
		in.TP = to
		in.throughputFactor = 0
		in.readyAt = now + simclock.Time(90)
		sm.backend.Reconfigure(in, now)
		return
	}
	in.state = stateResharding
	in.TP = to
	in.throughputFactor = im.ThroughputFactor
	if im.DowntimeSeconds > 0 {
		in.throughputFactor = 0
	}
	in.readyAt = now + simclock.Time(transfer+sync)
	sm.backend.Reconfigure(in, now)
}

func (p *Pool) meanMixIn() float64 {
	sum, n := 0.0, 0
	for _, in := range p.Instances {
		if in.mixIn > 0 {
			sum += in.mixIn
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (p *Pool) meanMixOut() float64 {
	sum, n := 0.0, 0
	for _, in := range p.Instances {
		if in.mixOut > 0 {
			sum += in.mixOut
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func avgOr(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// poolRate returns the pool's current EWMA arrival rate.
func (p *Pool) poolRate() float64 {
	sum := 0.0
	for _, in := range p.Instances {
		if in.state != stateOff {
			sum += in.rate
		}
	}
	return sum
}
