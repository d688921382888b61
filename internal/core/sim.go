package core

import (
	"fmt"
	"math"

	"dynamollm/internal/energy"
	"dynamollm/internal/engine"
	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/predict"
	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/solver"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// provisionHeadroom pads peak-based static provisioning (the paper
// provisions baselines "to handle the peak load").
const provisionHeadroom = 1.25

// mergeFraction: a pool predicted below this fraction of one
// highest-performance node's capacity merges into the next-larger pool.
const mergeFraction = 0.35

// Provisioning latencies (Table V): creating an 8xH100 VM, initializing the
// distributed environment, downloading weights, configuring the engine and
// installing weights takes 6-8 minutes on the naive path. DynamoLLM's
// snapshot start with cluster-cached weights and background pre-warming
// cuts the critical-path cost to seconds (§IV-C).
const (
	NaiveProvisionSeconds    = 7 * 60
	SnapshotProvisionSeconds = 33 // engine config + weight install only
)

const (
	squashWaitFactor          = 6 // wait beyond SLO x this => squash
	emergencyBacklogThreshold = 1 // seconds of backlog triggers emergency
)

// Frontend retry parameters (§IV-D failure handling). A request squashed
// by an outage or an empty pool re-enters the router after an exponential
// backoff in virtual time: attempt k waits retryBackoffBase * 2^(k-1)
// seconds, capped at retryBackoffCap, and gives up for good once
// Options.RetryBudget attempts are spent. The queue itself is bounded:
// when a failure burst would grow it past retryQueueCap the overflow is
// shed (Result.Shed) instead of retried — an unbounded retry queue under
// a sustained outage is a retry storm, not resilience.
const (
	// DefaultRetryBudget is the retry budget withDefaults installs when
	// Options.RetryBudget is zero.
	DefaultRetryBudget = 3
	// retryBackoffBase is the first attempt's backoff in virtual seconds.
	retryBackoffBase = 1.0
	// retryBackoffCap bounds the exponential backoff (virtual seconds).
	retryBackoffCap = 30.0
	// retryQueueCap bounds the pending-retry queue; overflow is shed.
	retryQueueCap = 4096
)

// Result aggregates everything the evaluation figures need from one run.
type Result struct {
	Opts     Options
	Duration float64

	// Request conservation: every routed request reaches exactly one
	// terminal state, so Requests == Completed + Squashed + Shed holds
	// under both fidelities and any StepJobs (fidelity tests assert it).
	Requests  int // requests routed (counted once, at first arrival)
	Squashed  int // terminally dropped: retry budget exhausted or undrainable at run end
	SLOMet    int
	Completed int

	// Frontend retry accounting (§IV-D). Retried counts retry attempts
	// scheduled (a request retried twice counts twice — Retried/Requests
	// is the retry amplification factor); RetrySuccess counts completed
	// requests that needed at least one retry; Shed counts requests
	// dropped by retry-queue overflow instead of being retried.
	Retried      int
	RetrySuccess int
	Shed         int

	// EnergyJ is total cluster energy; EnergyByClassJ splits it by the
	// true class of the work served (Fig. 6's stacking).
	EnergyJ        float64
	EnergyByClassJ [workload.NumClasses]float64

	// EnergyCostUSD is the electricity bill integrated tick by tick at
	// the (possibly hook-perturbed) time-varying price, so price-signal
	// scenarios separate "energy used" from "energy paid for".
	EnergyCostUSD float64

	// Latency distributions (Fig. 7).
	TTFT, TBT *metrics.Dist

	// ClassTTFT/ClassTBT are per-true-class latency distributions
	// captured at token level by the event backend
	// (Options.Fidelity == FidelityEvent); nil in fluid mode.
	ClassTTFT, ClassTBT [workload.NumClasses]*metrics.Dist

	// Power (Fig. 8): cluster power samples per tick and per-GPU samples.
	ClusterPowerW *metrics.Dist
	GPUPowerW     *metrics.Dist

	// Frequency over time (Fig. 9): cluster-wide and per tracked pool.
	FreqSeries     *metrics.Series
	PoolFreqSeries map[workload.Class]*metrics.Series

	// Sharding over time (Fig. 10): GPUs per TP degree, cluster and pools.
	ShardSeries     map[model.TP]*metrics.Series
	PoolShardSeries map[workload.Class]map[model.TP]*metrics.Series
	PoolLoadSeries  map[workload.Class]*metrics.Series

	// Energy over time (Fig. 15): joules per 5-minute bucket.
	EnergySeries *metrics.Series

	// GPU occupancy for the cost model (§V-F).
	GPUSeconds float64
	AvgServers float64

	// Reconfiguration counters.
	Reshards, ScaleOuts, ScaleIns, FreqChanges int
	Emergencies                                int
	Merges                                     int

	// Injected-fault counters: instances lost to hook-driven outages,
	// servers restored by recovery events, instances degraded to
	// stragglers, and submission-delay blip windows opened.
	Outages, Recoveries, Stragglers, Blips int

	// Per-true-class SLO accounting (diagnostics and Fig. 6 breakdown).
	ClassRequests   [workload.NumClasses]int
	ClassViolations [workload.NumClasses]int

	// KV-cache dynamics (event fidelity with block-granular accounting):
	// the engines' counter bank summed over the run — preemptions, prefix
	// hits, rejections, handoffs and the spill tier's swaps, recomputes and
	// evictions — under the same names and laws as engine.KVCounters.
	engine.KVCounters
}

// SLOAttainment returns the fraction of completed requests meeting SLOs.
func (r *Result) SLOAttainment() float64 {
	if r.Completed == 0 {
		return 1
	}
	return float64(r.SLOMet) / float64(r.Completed)
}

// EnergyKWh returns total energy in kWh.
func (r *Result) EnergyKWh() float64 { return energy.KWh(r.EnergyJ) }

// CheckInvariants verifies the result's accounting identities: request
// conservation (every routed request reaches exactly one terminal state —
// completed, terminally squashed, or shed) and the ordering relations
// between the terminal counters. Tests assert it after every run; a
// non-nil error means the simulation leaked or double-counted a request.
func (r *Result) CheckInvariants() error {
	if r.Requests != r.Completed+r.Squashed+r.Shed {
		return fmt.Errorf("core: request conservation violated: Requests=%d != Completed=%d + Squashed=%d + Shed=%d",
			r.Requests, r.Completed, r.Squashed, r.Shed)
	}
	if r.SLOMet > r.Completed {
		return fmt.Errorf("core: SLOMet=%d exceeds Completed=%d", r.SLOMet, r.Completed)
	}
	if r.RetrySuccess > r.Completed {
		return fmt.Errorf("core: RetrySuccess=%d exceeds Completed=%d", r.RetrySuccess, r.Completed)
	}
	if err := r.KVCounters.CheckLaws(); err != nil {
		return err
	}
	// Retry accounting: every completed-after-retry request had at least
	// one retry attempt scheduled, so RetrySuccess can never pass Retried.
	if r.Retried < 0 || r.RetrySuccess > r.Retried {
		return fmt.Errorf("core: retry accounting violated: RetrySuccess=%d with Retried=%d",
			r.RetrySuccess, r.Retried)
	}
	// Reconfiguration and fault counters are pure event tallies; the only
	// algebra they obey is monotonicity from zero.
	if r.Reshards < 0 || r.ScaleOuts < 0 || r.ScaleIns < 0 || r.FreqChanges < 0 ||
		r.Emergencies < 0 || r.Merges < 0 {
		return fmt.Errorf("core: negative reconfiguration counter: reshards=%d out=%d in=%d freq=%d emergencies=%d merges=%d",
			r.Reshards, r.ScaleOuts, r.ScaleIns, r.FreqChanges, r.Emergencies, r.Merges)
	}
	if r.Outages < 0 || r.Recoveries < 0 || r.Stragglers < 0 || r.Blips < 0 {
		return fmt.Errorf("core: negative fault counter: outages=%d recoveries=%d stragglers=%d blips=%d",
			r.Outages, r.Recoveries, r.Stragglers, r.Blips)
	}
	// A recovery drains the failed-GPU ledger, which only outages fill.
	if r.Recoveries > 0 && r.Outages == 0 {
		return fmt.Errorf("core: %d recoveries with no outage", r.Recoveries)
	}
	// Per-class SLO accounting: every completion is judged against its
	// true class, so ClassRequests sums to Completed, and each judged
	// request lands in exactly one of SLOMet or its class's violation
	// bucket.
	classReqs, classViol := 0, 0
	for cls := range r.ClassRequests {
		if r.ClassViolations[cls] > r.ClassRequests[cls] {
			return fmt.Errorf("core: class %d: ClassViolations=%d exceeds ClassRequests=%d",
				cls, r.ClassViolations[cls], r.ClassRequests[cls])
		}
		classReqs += r.ClassRequests[cls]
		classViol += r.ClassViolations[cls]
	}
	if classReqs != r.Completed {
		return fmt.Errorf("core: sum(ClassRequests)=%d != Completed=%d", classReqs, r.Completed)
	}
	if r.SLOMet+classViol != classReqs {
		return fmt.Errorf("core: SLO judgement not exhaustive: SLOMet=%d + violations=%d != judged=%d",
			r.SLOMet, classViol, classReqs)
	}
	return nil
}

// trackedClasses are the pools Figs. 9-10 plot.
var trackedClasses = []workload.Class{workload.SL, workload.ML, workload.LL}

// decodeTwin returns a prefill pool's decode twin. Pools are positionally
// indexed (compactPools removes instances, never pools), so the twin sits
// at base index + NumPools.
func (sm *simulation) decodeTwin(p *Pool) *Pool {
	return sm.pools[p.Index+sm.pooling.NumPools]
}

// splitNodes divides a logical pool's node budget between its prefill and
// decode halves: prefill gets ~40% (prefill is compute-dense; decode holds
// the long-lived KV), both clamped to at least one node so neither half
// can strand the other. A one-node budget yields one node each — the
// overage is the price of keeping a tiny disaggregated pool serviceable.
func splitNodes(n int) (prefill, decode int) {
	if n <= 0 {
		return 0, 0
	}
	prefill = (2*n + 4) / 5
	if prefill < 1 {
		prefill = 1
	}
	decode = n - prefill
	if decode < 1 {
		decode = 1
	}
	return prefill, decode
}

// addInstance creates an instance in a pool. booted=false models VM
// provisioning latency.
func (sm *simulation) addInstance(p *Pool, tp model.TP, now simclock.Time, booted bool) *Instance {
	in := newInstance(sm.nextInstanceID(), p.Index, tp, sm.opts.ReducedOverheads)
	in.mixIn, in.mixOut = poolRepLengths(p)
	if !booted {
		in.state = stateProvisioning
		d := float64(NaiveProvisionSeconds)
		if sm.opts.ReducedOverheads {
			d = SnapshotProvisionSeconds
		}
		in.readyAt = now + simclock.Time(d)
	}
	p.Instances = append(p.Instances, in)
	return in
}

// staticProvision sets up the non-autoscaling baselines: every pool gets
// enough highest-performance instances for its peak load, computed from a
// pre-pass over the trace (§V-B provisions baselines for peak).
func (sm *simulation) staticProvision(tr trace.Trace) {
	peaks := sm.peakRates(tr)
	if sm.opts.NumPools == 1 {
		// SinglePool: the paper fixes the server count (12 by default).
		sm.provisionBooted(sm.pools[0], sm.opts.Servers)
		return
	}
	counts := make([]int, len(sm.pools))
	total := 0
	for i, p := range sm.pools {
		if p.Role == RoleDecode {
			continue // provisioned alongside its prefill twin below
		}
		rep := p.RepClass
		// Provision for peak with burst headroom: 30-minute-epoch peaks
		// hide shorter bursts.
		n := solver.NodesForPeak(sm.prof, rep, peaks[p.Index]*provisionHeadroom)
		if n < 1 {
			n = 1
		}
		counts[i] = n
		total += n
	}
	// The cluster owns opts.Servers machines; static systems use them
	// all, handing surplus to the busiest pools (per-pool partitioning
	// can only fragment, never shrink, the fleet — §V-B).
	for total < sm.opts.Servers {
		best, bestLoad := 0, -1.0
		for i, p := range sm.pools {
			if p.Role == RoleDecode {
				continue
			}
			if load := peaks[i] / float64(counts[i]); load > bestLoad {
				best, bestLoad = i, load
			}
		}
		counts[best]++
		total++
	}
	for i, p := range sm.pools {
		if p.Role == RoleDecode {
			continue
		}
		sm.provisionBooted(p, counts[i])
	}
}

// provisionBooted adds n pre-booted TP8 nodes to a pool at t=0, splitting
// the budget with the pool's decode twin under disaggregation.
func (sm *simulation) provisionBooted(p *Pool, n int) {
	if p.Role == RolePrefill {
		pre, dec := splitNodes(n)
		tw := sm.decodeTwin(p)
		for k := 0; k < pre; k++ {
			sm.addInstance(p, model.TP8, 0, true)
		}
		p.targetGPUs = pre * 8
		for k := 0; k < dec; k++ {
			sm.addInstance(tw, model.TP8, 0, true)
		}
		tw.targetGPUs = dec * 8
		return
	}
	for k := 0; k < n; k++ {
		sm.addInstance(p, model.TP8, 0, true)
	}
	p.targetGPUs = n * 8
}

// peakRates computes each pool's peak arrival rate over cluster epochs.
// Counts live in per-pool slot tables sized from the trace horizon (the
// slot index is a direct array offset, not a hashed map key).
func (sm *simulation) peakRates(tr trace.Trace) []float64 {
	peaks := make([]float64, len(sm.pools))
	if len(tr) == 0 {
		return peaks
	}
	epoch := sm.opts.ClusterEpoch
	slots := int(float64(tr.End())/epoch) + 1
	counts := make([][]float64, len(sm.pools))
	var counter uint64
	for _, e := range tr {
		pool := sm.pooling.PoolFor(e.Class(), counter)
		counter++
		if counts[pool] == nil {
			counts[pool] = make([]float64, slots)
		}
		counts[pool][int(float64(e.At)/epoch)]++
	}
	for pool, slotCounts := range counts {
		for _, n := range slotCounts {
			if r := n / epoch; r > peaks[pool] {
				peaks[pool] = r
			}
		}
	}
	return peaks
}

// RunWithRepo drives the trace through the cluster and returns the
// aggregated result. The simulation is discrete-time at the
// instance-manager epoch, matching the paper's large-scale simulator
// (§V-E). repo is a shared profile repository (experiments reuse
// profiles across the six systems); nil builds a private one.
func RunWithRepo(tr trace.Trace, opts Options, repo *profile.Repository) *Result {
	sm := newSimulation(tr, opts, repo, false)
	for tick := 0; tick < sm.nTicks; tick++ {
		sm.step(tick)
	}
	sm.finish()
	return sm.res
}

// newSimulation prepares a run: the run state plus static provisioning
// for the trace's peak. Callers drive it with step(0..nTicks-1) and close
// with finish; loop replays the trace forever (NewLoopingLive).
func newSimulation(tr trace.Trace, opts Options, repo *profile.Repository, loop bool) *simulation {
	sm := newState(tr, opts, repo, loop)
	sm.staticProvision(tr)
	return sm
}

// newState builds a run's state with every pool still empty: the options
// with their defaults, the profile and predictors, the pools, the result
// sinks, the fidelity backend, and the tick-loop scratch. It uses the
// shared profile repository so repeated experiments do not re-profile the
// model. tr is read, never written.
func newState(tr trace.Trace, opts Options, repo *profile.Repository, loop bool) *simulation {
	opts = opts.withDefaults()
	end := tr.End()
	if opts.WarmLoad == nil {
		// No history supplied: train the load template on the trace
		// itself, as the paper's predictor trains on prior weeks of the
		// same periodic workload (§IV-E/[62]).
		opts.WarmLoad = traceTemplate(tr, opts.ClusterEpoch)
	}
	var period simclock.Time
	if loop && end > 0 {
		// The trace replays forever: wrap the warm curve at the replay
		// period so the expected load stays in phase with the traffic
		// served (the trace's own template is zero past its horizon).
		period = end
		inner := opts.WarmLoad
		opts.WarmLoad = func(t simclock.Time, c workload.Class) float64 {
			return inner(simclock.Time(math.Mod(float64(t), float64(period))), c)
		}
	}
	if repo == nil {
		repo = profile.NewRepository(nil)
	}
	rng := simclock.NewRNG(opts.Seed)
	sm := &simulation{
		opts:             opts,
		prof:             repo.Get(opts.Model, opts.SLOScale),
		loadPred:         predict.NewLoadPredictor(opts.ClusterEpoch),
		lenPred:          predict.NewLengthPredictor(opts.PredictorAccuracy, rng.Uint64()),
		rng:              rng,
		capCache:         map[capKey]float64{},
		steadyCache:      map[steadyKey]perfmodel.Steady{},
		priceMult:        1,
		sloMult:          1,
		pooling:          NewPooling(opts.NumPools),
		tr:               tr,
		period:           period,
		lastPoolEpoch:    -1,
		lastClusterEpoch: -1,
	}
	sm.loadPred.Warm(opts.WarmLoad)
	for i := 0; i < sm.pooling.NumPools; i++ {
		sm.pools = append(sm.pools, &Pool{Index: i, Classes: sm.pooling.poolClasses[i], RepClass: sm.pooling.Largest(i)})
	}
	if opts.Disagg {
		// Prefill/decode disaggregation: every base pool becomes
		// prefill-only and gains a decode twin at index base + NumPools.
		// The router and pooling tables keep addressing base pools only;
		// twins are reached exclusively through the KV handoff, so the
		// steering, merging, and spill logic is untouched.
		for _, p := range sm.pools[:sm.pooling.NumPools] {
			p.Role = RolePrefill
			sm.pools = append(sm.pools, &Pool{
				Index:    len(sm.pools),
				Classes:  p.Classes,
				RepClass: p.RepClass,
				Role:     RoleDecode,
			})
		}
	}
	sm.failedGPUs = make([]int, len(sm.pools))

	res := &Result{
		Opts:            opts,
		TTFT:            metrics.NewDist(),
		TBT:             metrics.NewDist(),
		ClusterPowerW:   metrics.NewDist(),
		GPUPowerW:       metrics.NewDist(),
		FreqSeries:      metrics.NewSeries(simclock.Minute),
		PoolFreqSeries:  map[workload.Class]*metrics.Series{},
		ShardSeries:     map[model.TP]*metrics.Series{},
		PoolShardSeries: map[workload.Class]map[model.TP]*metrics.Series{},
		PoolLoadSeries:  map[workload.Class]*metrics.Series{},
		EnergySeries:    metrics.NewSeries(5 * simclock.Minute),
	}
	for _, cls := range trackedClasses {
		res.PoolFreqSeries[cls] = metrics.NewSeries(simclock.Minute)
		res.PoolShardSeries[cls] = map[model.TP]*metrics.Series{}
		res.PoolLoadSeries[cls] = metrics.NewSeries(simclock.Minute)
		for _, tp := range model.TPChoices {
			res.PoolShardSeries[cls][tp] = metrics.NewSeries(simclock.Minute)
		}
	}
	for _, tp := range model.TPChoices {
		res.ShardSeries[tp] = metrics.NewSeries(simclock.Minute)
	}
	if opts.Fidelity == FidelityEvent {
		for i := range res.ClassTTFT {
			res.ClassTTFT[i] = metrics.NewDist()
			res.ClassTBT[i] = metrics.NewDist()
		}
	}
	// Round the horizon up to a whole tick.
	res.Duration = math.Ceil(float64(end)/opts.Tick) * opts.Tick
	if res.Duration == 0 {
		res.Duration = opts.Tick
	}
	sm.res = res
	sm.nTicks = int(res.Duration / opts.Tick)
	sm.backend = newBackend(sm)
	sm.reserve()
	return sm
}

// assign accumulates one instance's arrivals for the current tick. Entries
// live in a flat slice indexed by instance ID and are invalidated lazily
// by tick stamp, so the router never allocates or clears per tick.
type assign struct {
	tick             int // 1-based tick stamp (0 = never touched)
	n, inTok, outTok float64
	reqs             []int32 // indices into simulation.reqs
}

// simulation is the one state of a run: its options, the controllers'
// inputs, the pools, the fidelity backend, the result sinks, and the
// scratch buffers the tick loop reuses across ticks. The controllers,
// both backends and the Controls facade all reach a run through it. In
// steady state (no epoch reconfiguration in flight) step performs zero
// heap allocations.
type simulation struct {
	opts    Options
	res     *Result
	backend InstanceBackend

	prof        *profile.Profile
	loadPred    *predict.LoadPredictor
	lenPred     *predict.LengthPredictor
	rng         *simclock.RNG
	nextID      int
	capCache    map[capKey]float64
	steadyCache map[steadyKey]perfmodel.Steady

	pooling *Pooling
	pools   []*Pool
	// retiredFreqSets preserves the frequency-change counts of instances
	// removed by compactPools, so Result.FreqChanges stays complete.
	retiredFreqSets int
	// steadyProbe is a reusable stand-in instance for steady-state
	// queries against pools that currently have no instance at all.
	steadyProbe *Instance

	// curTick is the 1-based tick currently being simulated (0 outside a
	// run); per-instance tick-scoped memos key on it. tickStart is that
	// tick's start time, the instant hook-driven changes take effect at.
	curTick   int
	tickStart simclock.Time
	// priceMult is the hook-injected electricity-price multiplier
	// (1 = nominal); it scales EnergyCostUSD accounting and steers the
	// price-aware controller paths.
	priceMult float64
	// sloMult is the hook-injected SLO scaling applied to requests at
	// arrival (values below 1 tighten, above 1 relax; 1 = nominal).
	sloMult float64
	// submitDelay is the hook-injected transient submission delay in
	// seconds (a frontend/network blip): requests arriving while it is
	// non-zero reach their instance that much later, paying the delay in
	// their TTFT.
	submitDelay float64
	// failedGPUs tracks injected capacity loss per pool so
	// Controls.RecoverServers can restore it where it was taken, mirroring
	// a repaired machine rejoining its old placement group.
	failedGPUs []int

	// tr is the base trace, read and never written; idx is the next
	// entry. A looping run (period > 0, NewLoopingLive) replays it
	// forever: loops counts the passes the cursor has finished, and entry
	// i of pass k arrives at tr[i].At + k*period.
	tr               trace.Trace
	idx              int
	period           simclock.Time
	loops            int
	nTicks           int
	lastPoolEpoch    int
	lastClusterEpoch int

	// injected is the live-injection queue (Live.Inject): arrivals
	// inserted after the run started, kept time-sorted and merged with
	// the base trace at consumption so neither stream is ever memmoved.
	// injIdx is its consumption cursor.
	injected []trace.Entry
	injIdx   int

	// assigns is indexed by Instance.ID (IDs are dense: handed out
	// sequentially and never reused, so the slice grows with the total
	// number of instances ever created, not with simulated time).
	assigns []assign
	// reqs pools this tick's workload.Request values; assign entries
	// refer to them by index because the backing array may move while a
	// tick's arrivals are still being appended.
	reqs []workload.Request

	// retryQ holds squashed requests awaiting their backoff deadline
	// (frontend retry, §IV-D). Appends happen only in the serial phases
	// (routing, delivery, retirement, finish), so its order — and the
	// whole retry schedule — is deterministic for any StepJobs. Empty in
	// steady state: drainRetries is a single length check then.
	retryQ []retryEntry
	// retryScratch stages the due prefix during drainRetries so
	// re-admission may push fresh failures onto retryQ mid-drain.
	retryScratch []retryEntry
	// draining marks the post-horizon backend drain (finish): failures
	// surfaced there are terminal — a retry could never be served.
	draining bool
}

// retryEntry is one squashed request waiting out its retry backoff.
type retryEntry struct {
	due simclock.Time
	req workload.Request
}

// nextInstanceID hands out unique instance IDs.
func (sm *simulation) nextInstanceID() int {
	sm.nextID++
	return sm.nextID
}

// reserve pre-sizes the scratch buffers and series so the steady-state
// loop does not grow them tick by tick.
func (sm *simulation) reserve() {
	perTick := 256
	if sm.nTicks > 0 {
		if est := 4 * len(sm.tr) / sm.nTicks; est > perTick {
			perTick = est
		}
	}
	sm.reqs = make([]workload.Request, 0, perTick)
	sm.assigns = make([]assign, 64)

	res := sm.res
	series := []*metrics.Series{res.FreqSeries, res.EnergySeries}
	//dynamolint:order-independent each series is Reserved exactly once; visit order has no effect
	for _, s := range res.PoolFreqSeries {
		series = append(series, s)
	}
	//dynamolint:order-independent each series is Reserved exactly once; visit order has no effect
	for _, s := range res.PoolLoadSeries {
		series = append(series, s)
	}
	//dynamolint:order-independent each series is Reserved exactly once; visit order has no effect
	for _, s := range res.ShardSeries {
		series = append(series, s)
	}
	//dynamolint:order-independent each series is Reserved exactly once; visit order has no effect
	for _, byTP := range res.PoolShardSeries {
		//dynamolint:order-independent each series is Reserved exactly once; visit order has no effect
		for _, s := range byTP {
			series = append(series, s)
		}
	}
	for _, s := range series {
		s.Reserve(res.Duration)
	}
}

// assignFor returns the live assign entry for an instance ID, resetting a
// stale one from an earlier tick in place.
func (sm *simulation) assignFor(id int) *assign {
	if id >= len(sm.assigns) {
		grown := make([]assign, id+1, 2*(id+1))
		copy(grown, sm.assigns)
		sm.assigns = grown
	}
	a := &sm.assigns[id]
	if a.tick != sm.curTick {
		a.tick = sm.curTick
		a.n, a.inTok, a.outTok = 0, 0, 0
		a.reqs = a.reqs[:0]
	}
	return a
}

// step advances the simulation by one instance-manager tick.
//
//dynamolint:steadystate
func (sm *simulation) step(tick int) {
	res, opts := sm.res, &sm.opts
	sm.curTick = tick + 1
	now := simclock.Time(float64(tick) * opts.Tick)
	tickEnd := now + simclock.Time(opts.Tick)
	sm.tickStart = now

	// Lifecycle timers.
	for _, p := range sm.pools {
		for _, in := range p.Instances {
			in.settle(now)
		}
	}

	// Injected events (scenario engine): outages, price moves, SLO
	// windows take effect before any controller looks at the cluster.
	if opts.Hook != nil {
		opts.Hook.OnTick(now, (*Controls)(sm))
	}

	// Cluster manager epoch (§IV-B scale-out/in).
	if ce := int(float64(now) / opts.ClusterEpoch); ce != sm.lastClusterEpoch {
		sm.lastClusterEpoch = ce
		if opts.ScaleInstances {
			sm.clusterManagerEpoch(now)
		}
	}
	// Pool manager epoch (§IV-B shard-up/down).
	if pe := int(float64(now) / opts.PoolEpoch); pe != sm.lastPoolEpoch {
		sm.lastPoolEpoch = pe
		if opts.ScaleSharding {
			for _, p := range sm.pools {
				res.Reshards += p.reshardPool(sm, now, p.poolRate())
			}
		}
	}
	// Out-of-band escalation (§IV-D): a pool whose instance managers
	// raised emergencies re-solves immediately with extra headroom,
	// using its idle GPU budget. Only the optimized re-sharding path
	// is fast enough to help; the naive stop-and-reload path would
	// make the outage worse.
	if opts.ScaleSharding && opts.ReducedOverheads {
		for _, p := range sm.pools {
			if p.emergencyFlag && now > p.lastEmergencyReshard+60 {
				p.lastEmergencyReshard = now
				res.Reshards += p.reshardPool(sm, now, p.poolRate()*1.6)
				// If the pool's whole GPU budget cannot cover the
				// demand, escalate to the cluster level: pre-warm an
				// extra node immediately instead of waiting for the
				// next 30-minute epoch.
				if opts.ScaleInstances {
					capTotal := 0.0
					for _, in := range p.Instances {
						if in.Active(now) {
							capTotal += in.capacity(sm)
						}
					}
					if p.poolRate() > capTotal*0.9 {
						p.targetGPUs += 8
						sm.addInstance(p, model.TP8, now, false)
						res.ScaleOuts++
					}
				}
			}
			p.emergencyFlag = false
		}
	}

	// Scale-in and re-sharding park instances stateOff; drop them now so
	// nothing downstream ever scans a dead instance again.
	sm.compactPools()

	// Route this tick's arrivals (§IV-D predictive scheduling). Squashed
	// requests whose retry backoff expired re-enter first: they arrived
	// before anything in this tick.
	sm.reqs = sm.reqs[:0]
	sm.drainRetries(now)
	for {
		e, ok := sm.nextArrival(tickEnd)
		if !ok {
			break
		}
		res.Requests++ // counted once per request, at first arrival
		sm.reqs = append(sm.reqs, workload.Request{
			Tag:          e.Tag,
			PromptGroup:  e.PromptGroup,
			Arrival:      e.At,
			InputTokens:  e.InputTokens,
			OutputTokens: e.OutputTokens,
			// sloMult < 1 models an injected SLO-tightening window: the
			// request is judged against the crunched target while the
			// controllers keep planning for the nominal one.
			SLOScale: opts.SLOScale * sm.sloMult,
		})
		req := &sm.reqs[len(sm.reqs)-1]
		req.PredictedClass = sm.lenPred.PredictClass(e.InputTokens, e.OutputTokens)
		pool := sm.route(req, now)
		// Misprediction handling (§IV-D): the engine discovers the
		// true length as generation proceeds. An under-predicted
		// request is re-steered to the correct pool: the wrong pool
		// has already spent admission and prefill work on it (wasted
		// energy), and the request pays a detection delay.
		if trueCls := req.Class(); trueCls != req.PredictedClass {
			wrongPool := pool
			if wi := wrongPool.pickInstance(sm, now); wi != nil {
				wi.tickAssigned += 0.5 // wasted prefill/admission work
			}
			if trueCls.Output() > req.PredictedClass.Output() {
				// Under-estimate: move to the correct pool once the
				// output outgrows the prediction.
				req.PredictedClass = trueCls
				pool = sm.route(req, now)
				st := sm.instanceSteady(sm.earliestOrAny(wrongPool))
				req.SteerPenalty = 3*st.IterTime + 0.05
			}
			// Over-estimates stay where they were routed: they run
			// with sub-optimal energy but unaffected latency.
		}
		// An injected submission-delay blip holds every arrival at the
		// frontend; the request pays it like a steering detour.
		req.SteerPenalty += sm.submitDelay
		sm.place(pool, now)
	}

	// The event backend serves the tick's arrivals here (each engine
	// advances its private virtual clock, or its disaggregated pool
	// group's, up to the tick boundary); the fluid backend evaluates
	// instances analytically in Advance below.
	sm.backend.RunTo(tickEnd)

	sm.accountTick(now)
}

// nextArrival pops the earliest pending arrival before tickEnd, merging
// the base trace, its replays and the live-injection queue (base entries
// first among equal instants, so a pure-trace run consumes in exactly the
// batch order). A replayed entry is shifted by its pass's offset as it is
// read, so looping copies nothing. The consumed injection prefix is
// compacted lazily so the queue reuses its backing array.
func (sm *simulation) nextArrival(tickEnd simclock.Time) (trace.Entry, bool) {
	var base trace.Entry
	haveBase := sm.idx < len(sm.tr)
	if haveBase {
		base = sm.tr[sm.idx]
		if sm.loops > 0 {
			base.At += simclock.Time(float64(sm.loops)) * sm.period
		}
		haveBase = base.At < tickEnd
	}
	haveInj := sm.injIdx < len(sm.injected) && sm.injected[sm.injIdx].At < tickEnd
	switch {
	case haveBase && (!haveInj || base.At <= sm.injected[sm.injIdx].At):
		sm.idx++
		if sm.idx == len(sm.tr) && sm.period > 0 {
			sm.idx = 0
			sm.loops++
		}
		return base, true
	case haveInj:
		e := sm.injected[sm.injIdx]
		sm.injected[sm.injIdx] = trace.Entry{}
		sm.injIdx++
		if sm.injIdx == len(sm.injected) {
			sm.injected = sm.injected[:0]
			sm.injIdx = 0
		}
		return e, true
	}
	return trace.Entry{}, false
}

// place admits the tick's newest request (the last entry of sm.reqs) on
// the pool: on the instance the pool picks, or — when every instance is
// transitioning — on the one returning first (the request pays the wait
// in its TTFT). A pool with nothing at all pops the request and hands it
// to the frontend retry path (§IV-D): it re-enters the router after a
// backoff, or is terminally squashed once out of budget.
//
//dynamolint:steadystate
func (sm *simulation) place(pool *Pool, now simclock.Time) {
	in := pool.pickInstance(sm, now)
	if in == nil {
		in = earliestReady(pool)
	}
	last := len(sm.reqs) - 1
	req := &sm.reqs[last]
	if in == nil {
		r := *req
		sm.reqs = sm.reqs[:last]
		sm.frontendFail(r, now)
		return
	}
	a := sm.assignFor(in.ID)
	a.n++
	a.inTok += float64(req.InputTokens)
	a.outTok += float64(req.OutputTokens)
	a.reqs = append(a.reqs, int32(last))
	in.tickAssigned++
	sm.backend.Admit(in, req, now)
	pool.arrivalsThisTick++
	if pool.observedSince == 0 {
		pool.observedSince = now
		if pool.observedSince == 0 {
			pool.observedSince = simclock.Time(1e-9)
		}
	}
}

// frontendFail is the single choke point for a request that lost its
// instance (outage drain, dead-target delivery, pool with no capacity).
// With budget left it schedules a retry after an exponential backoff in
// virtual time (Result.Retried); past the budget — or past the bounded
// retry queue — the request is terminal: Squashed, or Shed on overflow.
// Once the run is over (the final drain) a retry could never be served,
// so every failure is terminal. Callers are all serial phases, so retry
// order is StepJobs-independent.
func (sm *simulation) frontendFail(r workload.Request, now simclock.Time) {
	if budget := sm.opts.RetryBudget; sm.draining || budget <= 0 || r.Retries >= budget {
		sm.drop(r, false)
		return
	}
	if len(sm.retryQ) >= retryQueueCap {
		// Retry queue full: shed instead of amplifying the failure burst.
		sm.drop(r, true)
		return
	}
	r.Retries++
	sm.res.Retried++
	// A fresh attempt: any partial progress died with the instance.
	// Arrival is preserved so TTFT keeps measuring from the original
	// submission.
	r.FirstToken, r.Finish = 0, 0
	delay := retryBackoffBase * math.Pow(2, float64(r.Retries-1))
	if delay > retryBackoffCap {
		delay = retryBackoffCap
	}
	sm.retryQ = append(sm.retryQ, retryEntry{due: now + simclock.Time(delay), req: r})
}

// drop ends a request that will never complete — counted Shed when the
// retry queue overflowed, Squashed otherwise — and tells the observer.
// With complete it is one of the two terminal writes to the request
// ledger (Requests == Completed + Squashed + Shed).
func (sm *simulation) drop(r workload.Request, shed bool) {
	if shed {
		sm.res.Shed++
	} else {
		sm.res.Squashed++
	}
	r.Squashed = true
	if obs := sm.opts.Observer; obs != nil {
		obs.RequestDone(&r, -1, -1, false)
	}
}

// complete books one finished request: Completed, retry success, the
// latency distributions (a negative tbt — no inter-token gap, as for a
// single-token request — adds no TBT sample), the true-class SLO
// judgement met, and the observer. Both backends finish requests
// through it.
//
//dynamolint:steadystate
func (sm *simulation) complete(req *workload.Request, ttft, tbt float64, met bool) {
	res := sm.res
	res.Completed++
	if req.Retries > 0 {
		res.RetrySuccess++
	}
	res.TTFT.Add(ttft)
	if tbt >= 0 {
		res.TBT.Add(tbt)
	}
	cls := req.Class()
	res.ClassRequests[cls]++
	if met {
		res.SLOMet++
	} else {
		res.ClassViolations[cls]++
	}
	if obs := sm.opts.Observer; obs != nil {
		obs.RequestDone(req, ttft, tbt, met)
	}
}

// drainRetries re-admits every queued retry whose backoff expired. In
// steady state the queue is empty and this is one length check (the
// zero-allocation tick invariant covers it). Entries re-enter in queue
// order — the order they failed in — so the schedule is deterministic.
func (sm *simulation) drainRetries(now simclock.Time) {
	if len(sm.retryQ) == 0 {
		return
	}
	sm.retryScratch = sm.retryScratch[:0]
	kept := sm.retryQ[:0]
	for _, e := range sm.retryQ {
		if e.due > now {
			kept = append(kept, e)
			continue
		}
		sm.retryScratch = append(sm.retryScratch, e)
	}
	sm.retryQ = kept
	for i := range sm.retryScratch {
		sm.readmit(sm.retryScratch[i].req, now)
	}
}

// readmit routes one retry attempt. The request keeps its predicted class
// and steering penalty (misprediction was already handled on the first
// attempt) and does not recount in Result.Requests; it does feed the
// rate/mix estimators like any other admission, because a retry is real
// load. A failed re-admission goes straight back through frontendFail.
func (sm *simulation) readmit(r workload.Request, now simclock.Time) {
	// Time already burned between the original arrival and this attempt;
	// the fluid latency model adds it to the sampled TTFT.
	r.RetryDelay = float64(now - r.Arrival)
	if r.RetryDelay < 0 {
		r.RetryDelay = 0
	}
	sm.reqs = append(sm.reqs, r)
	sm.place(sm.route(&sm.reqs[len(sm.reqs)-1], now), now)
}

// accountTick closes one tick: per-instance rate updates, instance
// managers, energy integration, latency sampling, and series capture.
func (sm *simulation) accountTick(now simclock.Time) {
	res, opts := sm.res, &sm.opts

	// Update per-instance rates, run instance managers, integrate
	// energy, and sample latencies.
	clusterPower := 0.0
	var freqNum, freqDen float64
	for _, p := range sm.pools {
		var poolGPUs [3]float64 // indexed by tpIdx over model.TPChoices
		var pFreqNum, pFreqDen float64
		for _, in := range p.Instances {
			if in.state == stateOff {
				continue
			}
			var a *assign
			if in.ID < len(sm.assigns) && sm.assigns[in.ID].tick == sm.curTick {
				a = &sm.assigns[in.ID]
			}
			var tickRate float64
			if a != nil {
				tickRate = a.n / opts.Tick
				in.observeMix(a.inTok/a.n, a.outTok/a.n, a.n)
			}
			const ew = 0.3
			in.rate = ew*tickRate + (1-ew)*in.rate
			in.tickAssigned = 0
			if in.rate < 1e-6 {
				in.rate = 0
			}

			// Instance manager (§IV-B scale-up/down + §IV-D
			// emergency handling).
			sm.instanceManager(in, now)

			// Backend tick: service dynamics, backlog signal, latency
			// accounting; returns the tick's average power draw.
			watts := sm.backend.Advance(in, a, now)
			clusterPower += watts
			res.GPUSeconds += float64(in.TP.GPUs()) * opts.Tick
			perGPU := watts / float64(in.TP.GPUs())
			res.GPUPowerW.Add(perGPU)
			poolGPUs[tpIdx(in.TP)] += float64(in.TP.GPUs())
			pFreqNum += float64(in.effFreq()) * float64(in.TP.GPUs())
			pFreqDen += float64(in.TP.GPUs())

			// Attribute energy to classes by served mix. A zero tick is
			// booked too: its Accumulate marks the series bucket.
			sm.bookEnergy(workload.Classify(int(in.mixIn), int(in.mixOut)), watts*opts.Tick, now)
		}
		// Per-pool tracked series.
		for _, cls := range trackedClasses {
			if sm.pooling.classPool[cls] == p.Index {
				if pFreqDen > 0 {
					res.PoolFreqSeries[cls].Observe(float64(now), pFreqNum/pFreqDen, pFreqDen)
				}
				for ti, tp := range model.TPChoices {
					res.PoolShardSeries[cls][tp].Observe(float64(now), poolGPUs[ti], 1)
				}
				res.PoolLoadSeries[cls].Observe(float64(now), float64(p.arrivalsThisTick)/opts.Tick, 1)
			}
		}
		for ti, tp := range model.TPChoices {
			res.ShardSeries[tp].Observe(float64(now), poolGPUs[ti], 1)
		}
		freqNum += pFreqNum
		freqDen += pFreqDen

		// Feed the load predictor. Decode twins see no router arrivals —
		// feeding their permanent zeros would dilute the class template
		// with duplicate observations.
		if p.Role != RoleDecode {
			for _, cls := range p.Classes {
				share := float64(p.arrivalsThisTick) / opts.Tick / float64(len(p.Classes))
				sm.loadPred.Observe(now, cls, share)
			}
		}
		p.arrivalsThisTick = 0
	}
	res.ClusterPowerW.Add(clusterPower)
	if freqDen > 0 {
		res.FreqSeries.Observe(float64(now), freqNum/freqDen, 1)
	}
}

// bookEnergy is the one writer of the run's energy ledger: it charges
// joules to the totals, the price-weighted cost, the class and the energy
// series bucket at `at`. Carbon accounting integrates EnergySeries, so the
// series must never miss joules the totals carry.
func (sm *simulation) bookEnergy(cls workload.Class, joules float64, at simclock.Time) {
	res := sm.res
	res.EnergyJ += joules
	res.EnergyCostUSD += energy.KWh(joules) * energy.DefaultCost.EnergyUSDPerKWh * sm.priceMult
	res.EnergyByClassJ[cls] += joules
	res.EnergySeries.Accumulate(float64(at), joules)
}

// finish closes out the run-level aggregates.
func (sm *simulation) finish() {
	res := sm.res
	sm.draining = true
	sm.backend.Finish(simclock.Time(res.Duration))
	// Retries still waiting out their backoff when the run ends can never
	// be served: they are terminally squashed so the conservation
	// identity closes.
	for i := range sm.retryQ {
		sm.drop(sm.retryQ[i].req, false)
	}
	sm.retryQ = sm.retryQ[:0]
	res.AvgServers = res.GPUSeconds / 8 / res.Duration
	res.FreqChanges = sm.retiredFreqSets
	for _, p := range sm.pools {
		for _, in := range p.Instances {
			res.FreqChanges += in.freqCtl.Sets()
		}
	}
	sm.curTick = 0
}

// tpChoiceIdx maps a TP degree to its index in model.TPChoices for
// array-indexed per-tick accumulators ([len(model.TPChoices)]float64).
var tpChoiceIdx = func() [model.TP8 + 1]int8 {
	var m [model.TP8 + 1]int8
	for i := range m {
		m[i] = -1
	}
	for i, tp := range model.TPChoices {
		m[tp] = int8(i)
	}
	return m
}()

// tpIdx resolves an instance's TP to its TPChoices slot; a TP outside the
// controller knob space would silently corrupt the shard series, so it
// fails loudly instead.
func tpIdx(tp model.TP) int {
	i := tpChoiceIdx[tp]
	if i < 0 {
		panic("core: instance TP outside model.TPChoices")
	}
	return int(i)
}

// compactPools removes stateOff instances from every pool. Scale-in and
// re-sharding only mark instances off; without compaction every later
// tick re-scans the corpses (rate updates, settle, earliestReady,
// placement), so week-long runs degrade as reconfigurations accumulate.
// Relative order of live instances is preserved, keeping iteration — and
// therefore the simulation — deterministic. Retired frequency-change
// counts are folded into the run state so Result.FreqChanges stays exact.
func (sm *simulation) compactPools() {
	for _, p := range sm.pools {
		live := p.Instances[:0]
		for _, in := range p.Instances {
			if in.state == stateOff {
				sm.retiredFreqSets += in.freqCtl.Sets()
				continue
			}
			live = append(live, in)
		}
		if len(live) == len(p.Instances) {
			continue
		}
		// Clear the tail so dropped instances can be collected.
		for i := len(live); i < len(p.Instances); i++ {
			p.Instances[i] = nil
		}
		p.Instances = live
	}
}

// traceTemplate builds a per-class rate function from a trace, bucketed at
// the cluster epoch. The table is a dense slice sized from the trace
// horizon; queries outside it return 0 (as the map version did for
// untouched slots).
func traceTemplate(tr trace.Trace, slotWidth float64) func(simclock.Time, workload.Class) float64 {
	if len(tr) == 0 {
		return func(simclock.Time, workload.Class) float64 { return 0 }
	}
	rates := make([][workload.NumClasses]float64, int(float64(tr.End())/slotWidth)+1)
	for _, e := range tr {
		rates[int(float64(e.At)/slotWidth)][e.Class()]++
	}
	return func(t simclock.Time, c workload.Class) float64 {
		s := int(float64(t) / slotWidth)
		if s < 0 || s >= len(rates) {
			return 0
		}
		return rates[s][c] / slotWidth
	}
}

// route implements the cluster manager's request steering (§IV-D): predict
// the class, pick its pool, honour the fragmentation spill fraction, and
// fall back to the next-larger pool when the target is overloaded.
func (sm *simulation) route(req *workload.Request, now simclock.Time) *Pool {
	cls := req.PredictedClass
	p := sm.pools[sm.pooling.PoolFor(cls, sm.poolCounter(cls))]
	// Merged pools forward everything to the next-larger pool.
	for hops := 0; p.merged && hops <= len(sm.pools); hops++ {
		next := sm.pooling.NextLarger(p.Index)
		if next < 0 {
			break
		}
		p = sm.pools[next]
	}
	// Fragmentation spill-over.
	if p.spillFrac > 0 && sm.rng.Float64() < p.spillFrac {
		if next := sm.pooling.NextLarger(p.Index); next >= 0 {
			p = sm.pools[next]
		}
	}
	// Walk toward larger pools until one can actually serve: first pool
	// with an instance that has headroom, else the first with any active
	// instance at all (§IV-D overload fallback).
	var firstActive *Pool
	cur := p
	for hops := 0; hops <= len(sm.pools); hops++ {
		if in := cur.pickInstance(sm, now); in != nil {
			if firstActive == nil {
				firstActive = cur
			}
			if in.rate < in.capacity(sm) {
				return cur
			}
		}
		next := sm.pooling.NextLarger(cur.Index)
		if next < 0 {
			break
		}
		cur = sm.pools[next]
	}
	if firstActive != nil {
		return firstActive
	}
	return p
}

func (sm *simulation) poolCounter(cls workload.Class) uint64 {
	p := sm.pools[sm.pooling.classPool[cls]]
	p.rrCounter++
	return p.rrCounter
}

// rateBucketStep is the geometric grid for request rates (~8% buckets).
const rateBucketStep = 0.08

// zeroRateBucket is the sentinel rate bucket for idle instances.
const zeroRateBucket = math.MinInt32

// steadyKeyFor grades an instance's operating point onto the geometric
// (rate, shape) grid.
func steadyKeyFor(tp model.TP, f gpu.Freq, rate, inTok, outTok float64) steadyKey {
	key := steadyKey{
		tp:    tp,
		freq:  f,
		rateB: zeroRateBucket,
		inB:   int(math.Round(math.Log(inTok) / shapeBucketStep)),
		outB:  int(math.Round(math.Log(outTok) / shapeBucketStep)),
	}
	if rate > 0 {
		key.rateB = int(math.Round(math.Log(rate+1e-9) / rateBucketStep))
	}
	return key
}

// instanceSteady evaluates the instance's operating point for its current
// mix, rate, and configuration. The instance memoizes its last answer and
// revalidates by key, so the shared (rate, shape)-grid cache is consulted
// only when the instance moves to a new bucket.
func (sm *simulation) instanceSteady(in *Instance) perfmodel.Steady {
	key := steadyKeyFor(in.TP, in.effFreq(), in.rate,
		avgOr(in.mixIn, 512), avgOr(in.mixOut, 200))
	if in.stValid && key == in.stKeyC {
		return in.stC
	}
	st := sm.steadyLookup(key)
	in.stKeyC, in.stC, in.stValid = key, st, true
	return st
}

// steadyLookup resolves a bucketed operating point through the shared
// cache, computing the closed-form steady state on a miss.
func (sm *simulation) steadyLookup(key steadyKey) perfmodel.Steady {
	if st, ok := sm.steadyCache[key]; ok {
		return st
	}
	rate := 0.0
	if key.rateB != zeroRateBucket {
		rate = math.Exp(float64(key.rateB) * rateBucketStep)
	}
	cfg := perfmodel.Config{Model: sm.opts.Model, TP: key.tp, Freq: key.freq}
	st := perfmodel.SteadyState(cfg, rate,
		int(math.Exp(float64(key.inB)*shapeBucketStep)),
		int(math.Exp(float64(key.outB)*shapeBucketStep)))
	sm.steadyCache[key] = st
	return st
}

type steadyKey struct {
	tp               model.TP
	freq             gpu.Freq
	rateB, inB, outB int
}

// instanceManager is the 5-second controller (§IV-B scale-up/down and
// §IV-D emergencies).
func (sm *simulation) instanceManager(in *Instance, now simclock.Time) {
	if in.state != stateActive {
		return
	}
	res := sm.res
	cls := workload.Classify(int(avgOr(in.mixIn, 512)), int(avgOr(in.mixOut, 200)))

	// Emergency: queue building up (§IV-D). Ramp to max frequency, then
	// re-steer backlog to a sibling, finally squash.
	if in.backlog > emergencyBacklogThreshold*math.Max(in.rate, 1) {
		sm.pools[in.Pool].emergencyFlag = true
		if !in.emergency {
			res.Emergencies++
			in.emergency = true
		}
		in.freqCtl.Set(gpu.MaxFreq)
		if sm.opts.Fidelity == FidelityEvent {
			// The engine owns its queue: emergencies escalate through
			// the pool flag and max frequency, but work is neither
			// re-steered nor squashed behind the engine's back.
			return
		}
		// Re-steer: shed half the backlog to the least-loaded sibling.
		p := sm.pools[in.Pool]
		var target *Instance
		for _, other := range p.activeInstances(now) {
			if other != in && other.rate < other.capacity(sm)*0.8 {
				if target == nil || other.rate < target.rate {
					target = other
				}
			}
		}
		if target != nil {
			shed := in.backlog / 2
			in.backlog -= shed
			target.backlog += shed
		} else {
			// Shed only the backlog portion whose projected wait
			// (draining at full capacity) still exceeds the threshold.
			// Fluid backlog is load (fractional request-seconds), not
			// request identity — the requests behind it were already
			// sampled as Completed in their arrival tick — so the loss
			// stays outside the request-count ledger.
			slo := workload.SLOFor(cls).TTFT * sm.opts.SLOScale
			cap := in.capacity(sm)
			overdue := in.backlog - math.Max(cap, 0.2)*slo*squashWaitFactor
			if overdue > 0 {
				in.backlog -= overdue
			}
		}
		return
	}
	in.emergency = false

	if !sm.opts.ScaleFrequency {
		in.freqCtl.Set(gpu.MaxFreq)
		return
	}
	// Min-energy feasible frequency for the current load with headroom.
	// Expensive electricity (an injected price surge) shrinks the burst
	// headroom from 15% toward 5%, trading tail slack for joules exactly
	// while they cost the most; at the nominal price the term is 1.15.
	head := 1.05 + 0.10/math.Max(sm.priceMult, 1)
	f, ok := sm.prof.BestFreq(cls, in.TP, in.rate*head+0.01)
	if !ok {
		f = gpu.MaxFreq
	}
	in.freqCtl.Set(f)
}

// sampleLatencies draws per-request TTFT/TBT from the instance's steady
// state and judges SLOs against each request's true class. reqIdx indexes
// the tick's pooled request buffer.
func (sm *simulation) sampleLatencies(in *Instance, st perfmodel.Steady, reqIdx []int32) {
	rng := sm.rng
	saturated := !st.Feasible || st.IterTime == 0
	if saturated {
		// Overloaded instance: it still serves, at its capacity point,
		// with the excess showing up as backlog-driven queueing below.
		capRate := in.capacity(sm) * 0.9
		st = sm.steadyLookup(steadyKeyFor(in.TP, in.effFreq(),
			math.Max(capRate, 0.01), avgOr(in.mixIn, 512), avgOr(in.mixOut, 200)))
	}
	for _, ri := range reqIdx {
		req := &sm.reqs[ri]
		slo := req.SLO()
		if st.IterTime == 0 {
			// No operating point even at capacity: the request is
			// served late and judged a violation.
			sm.complete(req, slo.TTFT*3, slo.TBT*2, false)
			continue
		}
		// TTFT: own prompt's chunks at this instance's pace, plus
		// queueing wait scaled by backlog.
		chunks := math.Ceil(float64(req.InputTokens) / perfmodel.PrefillChunk)
		base := chunks*st.ChunkIterTime + 0.5*st.IterTime
		wait := st.TTFTMean - (math.Ceil(avgOr(in.mixIn, 512)/perfmodel.PrefillChunk)*st.ChunkIterTime + 0.5*st.IterTime)
		if wait < 0 {
			wait = 0
		}
		if in.backlog > 0 && in.rate > 0 {
			wait += in.backlog / math.Max(in.capacity(sm), in.rate)
		}
		// Tail shaping: exponential-ish spread reaching the modeled P99.
		u := rng.Float64()
		tail := 1.0
		if u > 0.9 {
			tail = 1 + (u-0.9)/0.09*2.2 // up to ~3.2x at P99+
		}
		// RetryDelay charges the whole pre-retry history (backoff plus
		// failed attempts) so the SLO judgement measures TTFT from the
		// ORIGINAL arrival, not the latest re-admission.
		ttft := base + wait*tail + req.SteerPenalty + req.RetryDelay
		// TBT: mean iteration time; the tail sees chunk-carrying
		// iterations.
		tbt := st.TBTMean * (0.92 + 0.16*rng.Float64())
		if rng.Float64() < 0.02 {
			tbt = math.Max(st.TBTP99, tbt)
		}
		sm.complete(req, ttft, tbt, ttft <= slo.TTFT && tbt <= slo.TBT)
	}
}

// clusterManagerEpoch re-sizes every pool (§IV-B scale-out/in): predicted
// peak over the epoch, highest-performance per-node capacity, ceil
// division, fragmentation spill-over, and pre-warmed provisioning.
func (sm *simulation) clusterManagerEpoch(now simclock.Time) {
	horizon := sm.opts.ClusterEpoch
	total := 0
	type want struct {
		pool  *Pool
		nodes int
		pl    float64
		ml    float64
	}
	// First pass: raw demand forecast per pool. Decode twins carry no
	// router arrivals — their budget rides along with the prefill twin's
	// in resizePool, so they are skipped throughout.
	raw := make([]float64, len(sm.pools))
	for i, p := range sm.pools {
		if p.Role == RoleDecode {
			continue
		}
		var pl float64
		if sm.opts.ReducedOverheads {
			// Predictive sizing: forecast the epoch's peak (§IV-C
			// pre-warms VMs for the predicted peak).
			for _, cls := range p.Classes {
				pl += sm.loadPred.PredictPeak(now, horizon, cls)
			}
			// Blend with the currently observed rate so a cold or stale
			// template cannot starve a loaded pool.
			if cur := p.poolRate() * 1.3; cur > pl {
				pl = cur
			}
		} else {
			// Naive autoscaling reacts to the current load with a fixed
			// margin; rising load eats the margin while the Table V
			// provisioning latency plays out (the ScaleInst tail, §V-B).
			pl = p.poolRate() * 1.3
		}
		raw[i] = pl
	}
	// Pool merging (§III-B): a pool whose demand would leave most of a
	// highest-performance node idle hands its load to the next-larger
	// pool. Walk smallest-first so merges cascade upward.
	merged := make([]bool, len(sm.pools))
	if sm.opts.ScaleInstances && sm.opts.ReducedOverheads && sm.opts.NumPools > 1 {
		for _, cls := range sizeOrder {
			i := sm.pooling.classPool[cls]
			p := sm.pools[i]
			if merged[i] || p.Index != i {
				continue
			}
			next := sm.pooling.NextLarger(i)
			if next < 0 {
				continue
			}
			ml := sm.prof.MaxLoadHighestPerf(p.RepClass)
			if ml > 0 && raw[i] < mergeFraction*ml {
				merged[i] = true
				sm.res.Merges++
				raw[next] += raw[i]
				raw[i] = 0
			}
		}
	}
	wants := make([]want, 0, len(sm.pools))
	for i, p := range sm.pools {
		if p.Role == RoleDecode {
			continue
		}
		p.merged = merged[i]
		pl := raw[i]
		if p.merged {
			wants = append(wants, want{pool: p, nodes: 0})
			continue
		}
		if pl <= 0 {
			// Cold start with no signal: keep the current allocation.
			continue
		}
		// Per-node capacity at the highest-performance configuration,
		// evaluated on the pool's LIVE mix when available (heavy tails
		// within a class make the class representative optimistic).
		ml := sm.prof.MaxLoadHighestPerf(p.RepClass)
		if mi, mo := p.meanMixIn(), p.meanMixOut(); mi > 0 {
			if live := sm.shapeCapacity(model.TP8, gpu.MaxFreq, mi, mo); live > 0 && live < ml {
				ml = live
			}
		}
		nodes := 1
		if ml > 0 {
			nodes = int(math.Ceil(pl * provisionHeadroom / ml))
		}
		if nodes < 1 {
			nodes = 1
		}
		wants = append(wants, want{pool: p, nodes: nodes, pl: pl, ml: ml})
		total += nodes
	}

	// Fleet ceiling: shrink proportionally if over budget (merged pools
	// stay at zero).
	if sm.opts.Servers > 0 && total > sm.opts.Servers {
		scale := float64(sm.opts.Servers) / float64(total)
		for i := range wants {
			if wants[i].nodes > 0 {
				wants[i].nodes = int(math.Max(1, math.Floor(float64(wants[i].nodes)*scale)))
			}
		}
	}

	for i := range wants {
		w := &wants[i]
		p := w.pool
		// Fragmentation handling (§IV-B): if the pool is overprovisioned
		// by more than half a node, hand one node back and spill the
		// uncovered load fraction to the next-larger pool.
		p.spillFrac = 0
		if w.nodes >= 2 && w.ml > 0 {
			slack := float64(w.nodes)*w.ml - w.pl
			if slack > 0.5*w.ml && sm.pooling.NextLarger(p.Index) >= 0 {
				w.nodes--
				uncovered := w.pl - float64(w.nodes)*w.ml
				if uncovered > 0 {
					p.spillFrac = uncovered / w.pl
				}
			}
		}
		sm.resizePool(p, w.nodes, now)
	}
}

// resizePool adjusts a pool's node budget. Unified pools resize directly;
// a prefill pool splits the budget with its decode twin (~40/60 — prefill
// is compute-dense, decode holds the long-lived KV) so the cluster
// manager keeps reasoning about one logical pool per request type.
func (sm *simulation) resizePool(p *Pool, nodes int, now simclock.Time) {
	if p.Role == RolePrefill {
		tw := sm.decodeTwin(p)
		tw.merged = p.merged
		pre, dec := splitNodes(nodes)
		sm.resizePoolNodes(p, pre, now)
		sm.resizePoolNodes(tw, dec, now)
		return
	}
	sm.resizePoolNodes(p, nodes, now)
}

// resizePoolNodes adjusts one physical pool's node count, pre-warming on
// scale-out and draining on scale-in.
func (sm *simulation) resizePoolNodes(p *Pool, nodes int, now simclock.Time) {
	p.targetGPUs = nodes * 8
	// The pool may be sharded into multiple instances per node; compare
	// GPU totals instead of instance counts.
	curGPUs := p.gpusInUse()
	wantGPUs := nodes * 8
	for curGPUs < wantGPUs {
		// Pre-warmed VMs come up fast under ReducedOverheads; the naive
		// path pays the full Table V latency.
		sm.addInstance(p, model.TP8, now, false)
		curGPUs += 8
		sm.res.ScaleOuts++
	}
	for curGPUs > wantGPUs {
		victim := leastLoaded(p)
		if victim == nil {
			break
		}
		if !p.merged && len(p.activeInstances(now))+provisioningCount(p) <= 1 {
			break
		}
		curGPUs -= victim.TP.GPUs()
		victim.state = stateOff
		sm.backend.Retire(victim, now, true)
		sm.res.ScaleIns++
	}
}

func provisioningCount(p *Pool) int {
	n := 0
	for _, in := range p.Instances {
		if in.state == stateProvisioning {
			n++
		}
	}
	return n
}

// earliestOrAny returns some live instance for state queries; a pool with
// nothing at all falls back to a per-run probe instance, reused so the
// per-request hot path never allocates.
func (sm *simulation) earliestOrAny(p *Pool) *Instance {
	if in := earliestReady(p); in != nil {
		return in
	}
	if sm.steadyProbe == nil {
		sm.steadyProbe = &Instance{TP: model.TP8, freqCtl: gpu.NewFreqController(true), throughputFactor: 1, slowFactor: 1, mixIn: 512, mixOut: 187}
	}
	return sm.steadyProbe
}

// earliestReady returns the non-off instance that will serve soonest.
func earliestReady(p *Pool) *Instance {
	var best *Instance
	for _, in := range p.Instances {
		if in.state == stateOff {
			continue
		}
		if best == nil || in.readyAt < best.readyAt {
			best = in
		}
	}
	return best
}

// leastLoaded returns the pool's non-off instance with the lowest rate.
func leastLoaded(p *Pool) *Instance {
	var victim *Instance
	for _, in := range p.Instances {
		if in.state == stateOff {
			continue
		}
		if victim == nil || in.rate < victim.rate {
			victim = in
		}
	}
	return victim
}
