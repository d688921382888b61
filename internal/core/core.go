// Package core implements DynamoLLM itself (§IV): the hierarchy of
// controllers — cluster manager, pool managers, instance managers — that
// dynamically reconfigures an LLM inference cluster for energy efficiency
// under latency SLOs, plus the discrete-time cluster simulation that the
// paper's large-scale evaluation uses (§V-E).
//
// The controller hierarchy and its epochs follow §IV-B:
//
//	ClusterManager  every 30 min  scale-out/in  (instance counts per pool)
//	PoolManager     every  5 min  shard-up/down (TP mix within the pool)
//	InstanceManager every  5 s    scale-up/down (GPU frequency)
//
// Baseline systems (singlepool, multipool, scaleinst, scaleshard,
// scalefreq; see SystemByName) are expressed as Options that disable
// subsets of the knobs, exactly mirroring §V-A. How each instance is
// simulated — fidelity, disaggregation, the KV pool and spill tier — is
// a separate choice, grouped in Substrate.
//
// Options.Hook accepts a TickHook (see hooks.go) through which the
// scenario engine injects mid-run conditions — server outages and
// recoveries, electricity-price signals, SLO windows — without touching
// the tick loop's zero-allocation steady state.
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// Fidelity selects the instance service model behind the cluster
// simulation: the closed-form fluid model (fast, the paper's large-scale
// simulator, §V-E) or the event-level continuous-batching engine (one
// engine.Engine per instance, each on a private virtual clock that only a
// disaggregated prefill/decode pool group shares — request-level queueing,
// batching, and tail behaviour emerge instead of being sampled from
// formulas). Fluid is the default; event mode is the ground-truth
// check, a few orders of magnitude slower per simulated second.
type Fidelity int

const (
	// FidelityFluid drives every instance through perfmodel.Steady.
	FidelityFluid Fidelity = iota
	// FidelityEvent embeds one event-level engine per instance.
	FidelityEvent
)

// FidelityNames lists the accepted fidelity names in definition order.
var FidelityNames = []string{"fluid", "event"}

// String, MarshalText and UnmarshalText map a Fidelity to and from
// its FidelityNames entry.
func (f Fidelity) String() string               { return enumName(FidelityNames, "Fidelity", f) }
func (f Fidelity) MarshalText() ([]byte, error) { return []byte(f.String()), nil }
func (f *Fidelity) UnmarshalText(text []byte) error {
	return parseEnum(FidelityNames, "fidelity", text, f)
}

// KVTier selects the KV spill tier below each engine's GPU block pool.
type KVTier int

const (
	// KVTierNone disables spilling: preemption always recomputes (the
	// PR 8 behaviour, bit-identical event stream).
	KVTierNone KVTier = iota
	// KVTierCPU spills to host memory over PCIe: a fast link and a pool a
	// few times the GPU's unscaled KV capacity.
	KVTierCPU
	// KVTierSSD spills to NVMe: a far larger pool behind a slower link,
	// so the swap-vs-recompute policy earns its keep.
	KVTierSSD
)

// KVTierNames lists the accepted tier names in definition order.
var KVTierNames = []string{"none", "cpu", "ssd"}

// String, MarshalText and UnmarshalText map a KVTier to and from its
// KVTierNames entry.
func (t KVTier) String() string                   { return enumName(KVTierNames, "KVTier", t) }
func (t KVTier) MarshalText() ([]byte, error)     { return []byte(t.String()), nil }
func (t *KVTier) UnmarshalText(text []byte) error { return parseEnum(KVTierNames, "kv tier", text, t) }

// KVSwapPolicy picks swap versus recompute for each preemption victim
// when a spill tier is configured.
type KVSwapPolicy int

const (
	// KVSwapAuto compares modeled transfer time against modeled prefill
	// recompute time per victim and takes the cheaper path.
	KVSwapAuto KVSwapPolicy = iota
	// KVSwapAlways spills every victim the tier can hold.
	KVSwapAlways
)

// KVSwapPolicyNames lists the accepted swap policy names in definition
// order.
var KVSwapPolicyNames = []string{"auto", "always"}

// String, MarshalText and UnmarshalText map a KVSwapPolicy to and from
// its KVSwapPolicyNames entry.
func (p KVSwapPolicy) String() string               { return enumName(KVSwapPolicyNames, "KVSwapPolicy", p) }
func (p KVSwapPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }
func (p *KVSwapPolicy) UnmarshalText(text []byte) error {
	return parseEnum(KVSwapPolicyNames, "kv swap policy", text, p)
}

// enumName returns v's CLI name from names, or typ(v) when out of range.
func enumName[T ~int](names []string, typ string, v T) string {
	if v < 0 || int(v) >= len(names) {
		return fmt.Sprintf("%s(%d)", typ, int(v))
	}
	return names[v]
}

// parseEnum resolves text against names into *dst; an unknown name's
// error lists every valid one.
func parseEnum[T ~int](names []string, what string, text []byte, dst *T) error {
	if i := slices.Index(names, string(text)); i >= 0 {
		*dst = T(i)
		return nil
	}
	return fmt.Errorf("unknown %s %q (want one of %s)", what, text, strings.Join(names, "|"))
}

// Substrate selects how each instance is simulated, independent of which
// control knobs the system scales: the service model, disaggregation,
// and the KV block pool with its spill tier. Options and expt.Config
// embed it, so each substrate knob is declared here once.
type Substrate struct {
	// Fidelity selects the instance service model: FidelityFluid (the
	// closed-form default) or FidelityEvent (an event-level engine per
	// instance). Every controller and scenario works under both; results
	// are deterministic for a fixed seed in either mode.
	Fidelity Fidelity

	// StepJobs bounds the worker pool the event backend uses to step
	// per-instance engines within each tick (FidelityEvent only; the
	// fluid backend is a single closed-form pass). 0 or 1 steps serially;
	// any value produces byte-identical results — engines are independent
	// between controller decisions and their outputs merge in a fixed
	// instance-ID order.
	StepJobs int

	// Disagg splits every pool into a prefill pool and a decode pool
	// (prefill/decode disaggregation): requests prefill and produce their
	// first token on a prefill instance, then hand their KV cache to a
	// decode instance of the twin pool, paying a modeled transfer cost.
	// Disagg implies FidelityEvent (the fluid model has no per-request KV
	// to hand off) and block-granular KV accounting (KVBlockTokens
	// defaults to DefaultKVBlockTokens when unset).
	Disagg bool

	// KVBlockTokens enables block-granular KV-cache accounting in every
	// event-fidelity engine: the paged-pool block size in tokens (16 is
	// vLLM's default). Zero keeps the legacy token-counting admission
	// path, which is byte-identical to pre-KV builds.
	KVBlockTokens int

	// KVCapacityFactor scales each engine's derived KV block capacity
	// (capacity sweeps shrink it below 1 to provoke preemption). Zero or
	// one means the full profile-derived capacity.
	KVCapacityFactor float64

	// KVPrefixCache enables the engine prompt-prefix cache: requests
	// sharing a non-zero PromptGroup skip prefill work for the cached
	// prefix. Only meaningful with KVBlockTokens > 0.
	KVPrefixCache bool

	// KVTier adds a spill tier below each engine's GPU block pool:
	// preemption victims may swap their KV blocks out over a modeled link
	// and swap back in on resume instead of recomputing. Like Disagg, a
	// tier implies FidelityEvent and block-granular KV accounting.
	KVTier KVTier

	// KVSwapPolicy picks swap vs recompute per preemption victim
	// (KVSwapAuto compares modeled costs; KVSwapAlways always spills).
	KVSwapPolicy KVSwapPolicy
}

// Options selects the system variant and its parameters.
type Options struct {
	// Model is the served LLM (default Llama2-70B).
	Model *model.Model
	// SLOScale relaxes the Table IV SLOs (1 = strict 5x).
	SLOScale float64

	// Substrate selects the instance simulation (fidelity, disagg, KV).
	Substrate

	// NumPools is the number of request-type pools (9 = paper default;
	// 1 = SinglePool; Fig. 13 sweeps 2..16).
	NumPools int

	// The three knobs (§V-A). DynamoLLM enables all three.
	ScaleInstances bool // scale-out/in server instances with load
	ScaleSharding  bool // re-shard tensor parallelism with load
	ScaleFrequency bool // DVFS with load

	// ReducedOverheads enables §IV-C's optimizations: snapshot-based VM
	// start with pre-warming, background NVLink re-sharding with the
	// matching planner, and the resident frequency monitor. Disabling it
	// models the naive paths (Table V, Fig. 3).
	ReducedOverheads bool

	// PredictorAccuracy is the output-length classifier accuracy
	// (Fig. 11; 1.0 = oracle).
	PredictorAccuracy float64

	// RetryBudget is the per-request frontend retry budget (§IV-D): how
	// many times a squashed request (instance outage, pool with no
	// capacity) re-enters the router before it is terminally dropped.
	// Zero takes the default (DefaultRetryBudget); negative disables
	// retries entirely, restoring squash-means-drop semantics.
	RetryBudget int

	// Servers is the static server count for non-scaling systems; when
	// ScaleInstances is set it is the fleet ceiling instead.
	Servers int

	// Epochs (seconds). Zeros take the paper defaults.
	PoolEpoch    float64 // 5 min
	ClusterEpoch float64 // 30 min

	// Tick is the simulation step and the instance-manager epoch
	// (default 5 s, the paper's instance epoch).
	Tick float64

	// Seed drives all stochastic elements.
	Seed uint64

	// WarmLoad pre-trains the load predictor on the ideal load
	// curve, as the paper trains on historical weeks.
	WarmLoad func(t simclock.Time, c workload.Class) float64

	// Hook, when non-nil, fires at the start of every tick and may
	// perturb the run through the Controls facade (outages, price
	// signals, SLO windows). The scenario engine installs a
	// scenario.Agenda here; hooks are per-run state and must never be
	// shared across concurrent simulations.
	Hook TickHook

	// Observer, when non-nil, receives per-request terminal notifications
	// (and, under FidelityEvent, per-token events for tagged requests)
	// from whichever backend serves the run. The live serving session
	// installs one to resolve injected requests; batch experiments leave
	// it nil, which keeps the steady tick loop allocation-free.
	Observer RequestObserver
}

// RequestObserver receives request lifecycle notifications from a running
// simulation. Callbacks fire synchronously inside the tick loop (or the
// event clock), so implementations must be fast and must not re-enter the
// simulation.
type RequestObserver interface {
	// RequestToken fires for each output token an event-fidelity engine
	// produces for a request with a non-zero Tag (never under
	// FidelityFluid, which has no token-level events). The pointer is
	// only valid during the call.
	RequestToken(req *workload.Request, produced int, now simclock.Time)
	// RequestDone fires exactly once when a request reaches a terminal
	// state: served (ttft/tbt in seconds, met is the SLO judgement) or
	// squashed (req.Squashed set, ttft = tbt = -1, met = false). The
	// pointer is only valid during the call.
	RequestDone(req *workload.Request, ttft, tbt float64, met bool)
}

// DefaultKVBlockTokens is the KV block size installed when Disagg is set
// without an explicit KVBlockTokens (vLLM's default page size).
const DefaultKVBlockTokens = 16

// withDefaults fills the paper's defaults.
func (o Options) withDefaults() Options {
	if o.Model == nil {
		o.Model = model.Llama2_70B
	}
	if o.Disagg || o.KVTier != KVTierNone {
		// Disaggregation and tiered KV both need per-request KV state:
		// event fidelity and block accounting are not optional once pools
		// are split or a spill tier is configured.
		o.Fidelity = FidelityEvent
		if o.KVBlockTokens <= 0 {
			o.KVBlockTokens = DefaultKVBlockTokens
		}
	}
	if o.SLOScale < 1 {
		o.SLOScale = 1
	}
	if o.NumPools <= 0 {
		o.NumPools = workload.NumClasses
	}
	if o.PredictorAccuracy <= 0 || o.PredictorAccuracy > 1 {
		o.PredictorAccuracy = 1
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = DefaultRetryBudget
	}
	if o.Servers <= 0 {
		o.Servers = 12
	}
	if o.PoolEpoch <= 0 {
		o.PoolEpoch = 5 * simclock.Minute
	}
	if o.ClusterEpoch <= 0 {
		o.ClusterEpoch = 30 * simclock.Minute
	}
	if o.Tick <= 0 {
		o.Tick = 5
	}
	return o
}

// systems is the preset table mirroring §V-A, in the paper's
// presentation order (Fig. 6). SinglePool is the state-of-the-practice
// baseline: one pool, TP8 at the highest GPU frequency, statically
// provisioned for peak. MultiPool separates request types into per-class
// pools but keeps every knob static; each Scale* baseline adds one knob
// to it, and DynamoLLM enables all three plus the overhead reductions.
var systems = []struct {
	name string
	opts Options
}{
	{"singlepool", Options{NumPools: 1}},
	{"multipool", Options{NumPools: workload.NumClasses}},
	{"scaleinst", Options{NumPools: workload.NumClasses, ScaleInstances: true}},
	{"scaleshard", Options{NumPools: workload.NumClasses, ScaleSharding: true}},
	{"scalefreq", Options{NumPools: workload.NumClasses, ScaleFrequency: true}},
	{"dynamollm", Options{NumPools: workload.NumClasses, ScaleInstances: true,
		ScaleSharding: true, ScaleFrequency: true, ReducedOverheads: true}},
}

// SystemNames lists the evaluated systems in the paper's presentation
// order (Fig. 6).
var SystemNames = func() []string {
	names := make([]string, len(systems))
	for i, sys := range systems {
		names[i] = sys.name
	}
	return names
}()

// SystemByName resolves one of the six evaluated systems to its options.
func SystemByName(name string) (Options, bool) {
	for _, sys := range systems {
		if sys.name == name {
			return sys.opts, true
		}
	}
	return Options{}, false
}

// DynamoLLM enables every knob and the overhead reductions.
func DynamoLLM() Options {
	o, _ := SystemByName("dynamollm")
	return o
}

// SmoothTTFTSLO interpolates the Table IV TTFT targets between the class
// representative input lengths (linear in log input length), so capacity
// estimates for mixed pools vary smoothly with the average mix.
func SmoothTTFTSLO(inTokens float64) float64 {
	var pts [3]struct{ in, slo float64 }
	for i := range pts {
		c := workload.MakeClass(workload.LengthBucket(i), 0)
		in, _ := workload.RepresentativeLengths(c)
		pts[i].in, pts[i].slo = float64(in), workload.SLOFor(c).TTFT
	}
	if inTokens <= pts[0].in {
		return pts[0].slo
	}
	if inTokens >= pts[2].in {
		return pts[2].slo
	}
	for i := 0; i < 2; i++ {
		if inTokens <= pts[i+1].in {
			f := (math.Log(inTokens) - math.Log(pts[i].in)) /
				(math.Log(pts[i+1].in) - math.Log(pts[i].in))
			return pts[i].slo + f*(pts[i+1].slo-pts[i].slo)
		}
	}
	return pts[2].slo
}

type capKey struct {
	tp        model.TP
	freq      gpu.Freq
	inB, outB int
}

// shapeBucketStep is the geometric grid for request shapes (~12% buckets).
const shapeBucketStep = 0.12

// shapeBucket grades a token-length EWMA onto the geometric grid.
func shapeBucket(v, floor float64) int {
	if v < floor {
		v = floor
	}
	return int(math.Round(math.Log(v) / shapeBucketStep))
}

// shapeCapacity returns the SLO-feasible capacity (req/s) of a
// configuration serving a request mix with the given average lengths. The
// bisection result is cached on a geometric grid of shapes.
func (sm *simulation) shapeCapacity(tp model.TP, f gpu.Freq, mixIn, mixOut float64) float64 {
	return sm.shapeCapacityKey(capKey{
		tp:   tp,
		freq: gpu.Nearest(f),
		inB:  shapeBucket(mixIn, 8),
		outB: shapeBucket(mixOut, 4),
	})
}

// shapeCapacityKey is shapeCapacity for an already-bucketed key (the
// per-instance capacity memo revalidates with the key alone).
func (sm *simulation) shapeCapacityKey(key capKey) float64 {
	if v, ok := sm.capCache[key]; ok {
		return v
	}
	inR := math.Exp(float64(key.inB) * shapeBucketStep)
	outR := math.Exp(float64(key.outB) * shapeBucketStep)
	cfg := perfmodel.Config{Model: sm.opts.Model, TP: key.tp, Freq: key.freq}
	ttft := SmoothTTFTSLO(inR) * sm.opts.SLOScale
	tbt := workload.SLOFor(workload.Classify(int(inR), int(outR))).TBT * sm.opts.SLOScale
	cap, ok := perfmodel.MaxLoadShape(cfg, int(inR), int(outR), ttft, tbt)
	if !ok {
		cap = 0
	}
	sm.capCache[key] = cap
	return cap
}
