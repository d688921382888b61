// Package profile implements the paper's energy-performance profiles
// (§IV-A): for every (request class, tensor parallelism, GPU frequency) the
// profiler characterizes energy, power, and latency across load levels and
// interpolates between the sampled loads (the SciPy interp1d of §IV-E).
// Profiles feed every controller decision.
//
// The package also provides the global repository / cluster-local cache
// structure: many services share a model, so a profile is computed once and
// reused (§IV-A).
package profile

import (
	"fmt"
	"math"
	"sync"

	"dynamollm/internal/gpu"
	"dynamollm/internal/interp"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/workload"
)

// Key identifies one profiled configuration for one request class.
type Key struct {
	Class workload.Class
	TP    model.TP
	Freq  gpu.Freq
}

func (k Key) String() string {
	return fmt.Sprintf("%v/%v/%v", k.Class, k.TP, k.Freq)
}

// Observation is one measured operating point, produced either analytically
// (fluid model) or by running the engine simulator at the load.
type Observation struct {
	Power   float64 // average instance watts
	TTFTP99 float64
	TBTP99  float64
	//dynamolint:api engine.Measure's saturation verdict, which planning from measured profiles (ROADMAP item 4) will read
	Feasible bool
}

// Measurer produces an observation for a configuration at a load. The
// default AnalyticMeasurer uses the fluid model; the engine package provides
// a measured alternative, mirroring the paper's offline profiling runs.
type Measurer func(cfg perfmodel.Config, lambda float64, inTokens, outTokens int, sloScale float64) Observation

// AnalyticMeasurer evaluates the closed-form steady state, which does not
// depend on the SLO scale.
func AnalyticMeasurer(cfg perfmodel.Config, lambda float64, inTokens, outTokens int, _ float64) Observation {
	st := perfmodel.SteadyState(cfg, lambda, inTokens, outTokens)
	return Observation{
		Power:    st.Power,
		TTFTP99:  st.TTFTP99,
		TBTP99:   st.TBTP99,
		Feasible: st.Feasible,
	}
}

// Entry is the profile of one configuration for one class: interpolation
// tables over load.
type Entry struct {
	Key Key
	// MaxLoad is the largest SLO-feasible request rate (req/s).
	MaxLoad float64
	// Power maps req/s to average instance watts.
	Power *interp.Table
	// TTFTP99 and TBTP99 map req/s to tail latencies in seconds.
	//dynamolint:api the latency curves engine.Measure measures, which planning from measured profiles (ROADMAP item 4) will read
	TTFTP99, TBTP99 *interp.Table
	// IdlePower is the instance's power at zero load (all GPUs idle).
	IdlePower float64
}

// EnergyPerRequest returns the modeled joules per request at the load,
// attributing full instance power to the stream.
func (e *Entry) EnergyPerRequest(lambda float64) float64 {
	if lambda <= 0 {
		return math.Inf(1)
	}
	return e.Power.At(lambda) / lambda
}

// Feasible reports whether the load is within the profiled SLO capacity.
func (e *Entry) Feasible(lambda float64) bool {
	return e.MaxLoad > 0 && lambda <= e.MaxLoad
}

// Profile holds the complete characterization of one model under one SLO
// scale: all classes, parallelisms, and ladder frequencies.
type Profile struct {
	entries map[Key]*Entry
}

// loadFractions are the load levels profiled per configuration, as
// fractions of the configuration's max throughput; the paper profiles "a
// few load levels, up to the maximum throughput" and extrapolates between
// them (§IV-A).
var loadFractions = []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95}

// Build characterizes a model with the given measurer (nil = analytic).
// Frequencies profiled are the coarse ladder plus the full ladder if
// fullLadder is set (the paper profiles 800-1980 MHz in 200 MHz steps).
func Build(m *model.Model, sloScale float64, measure Measurer) *Profile {
	if measure == nil {
		measure = AnalyticMeasurer
	}
	if sloScale < 1 {
		sloScale = 1
	}
	p := &Profile{entries: make(map[Key]*Entry)}
	for _, cls := range workload.AllClasses {
		in, out := workload.RepresentativeLengths(cls)
		for _, tp := range model.TPChoices {
			for _, f := range gpu.Ladder() {
				key := Key{Class: cls, TP: tp, Freq: f}
				p.entries[key] = buildEntry(key, m, in, out, sloScale, measure)
			}
		}
	}
	return p
}

func buildEntry(key Key, m *model.Model, in, out int, sloScale float64, measure Measurer) *Entry {
	cfg := perfmodel.Config{Model: m, TP: key.TP, Freq: key.Freq}
	e := &Entry{Key: key, IdlePower: gpu.H100.IdlePower * float64(key.TP.GPUs())}
	maxLoad, ok := perfmodel.MaxLoad(cfg, key.Class, sloScale)
	if !ok || maxLoad <= 0 {
		// Infeasible configuration: flat tables at idle power.
		e.MaxLoad = 0
		e.Power = interp.MustNew([]float64{0}, []float64{e.IdlePower})
		e.TTFTP99 = interp.MustNew([]float64{0}, []float64{math.Inf(1)})
		e.TBTP99 = interp.MustNew([]float64{0}, []float64{math.Inf(1)})
		return e
	}
	e.MaxLoad = maxLoad
	xs := []float64{0}
	power := []float64{e.IdlePower}
	ttft := []float64{0}
	tbt := []float64{0}
	for _, frac := range loadFractions {
		lambda := maxLoad * frac
		obs := measure(cfg, lambda, in, out, sloScale)
		xs = append(xs, lambda)
		power = append(power, obs.Power)
		ttft = append(ttft, obs.TTFTP99)
		tbt = append(tbt, obs.TBTP99)
	}
	e.Power = interp.MustNew(xs, power)
	// The zero-load latency samples are placeholders; anchor them to the
	// lightest measured point instead of zero to avoid optimistic
	// interpolation below the first sample.
	ttft[0] = ttft[1]
	tbt[0] = tbt[1]
	e.TTFTP99 = interp.MustNew(xs, ttft)
	e.TBTP99 = interp.MustNew(xs, tbt)
	return e
}

// Entry returns the profile entry for a key (nil if the key was not
// profiled, e.g. a frequency off the ladder).
func (p *Profile) Entry(key Key) *Entry {
	key.Freq = gpu.Nearest(key.Freq)
	return p.entries[key]
}

// MaxLoadHighestPerf returns the per-instance capacity of the
// highest-performance configuration (TP8 at max frequency) for the class —
// the ML term in the cluster manager's node-count formula (§IV-B).
func (p *Profile) MaxLoadHighestPerf(cls workload.Class) float64 {
	e := p.Entry(Key{Class: cls, TP: model.TP8, Freq: gpu.MaxFreq})
	if e == nil {
		return 0
	}
	return e.MaxLoad
}

// Choice is a candidate configuration with its modeled cost.
type Choice struct {
	Key              Key
	EnergyPerRequest float64
	Power            float64
}

// BestConfig returns the least-energy feasible configuration for serving
// lambda req/s of the class, optionally restricted to a TP degree
// (tpFilter = 0 means any). The paper's instance manager uses the
// frequency dimension of this query; the pool manager uses the TP
// dimension (§IV-B).
func (p *Profile) BestConfig(cls workload.Class, lambda float64, tpFilter model.TP) (Choice, bool) {
	best := Choice{EnergyPerRequest: math.Inf(1)}
	found := false
	for _, tp := range model.TPChoices {
		if tpFilter != 0 && tp != tpFilter {
			continue
		}
		for _, f := range gpu.Ladder() {
			e := p.Entry(Key{Class: cls, TP: tp, Freq: f})
			if e == nil || !e.Feasible(lambda) {
				continue
			}
			epr := e.EnergyPerRequest(lambda)
			if epr < best.EnergyPerRequest {
				best = Choice{Key: e.Key, EnergyPerRequest: epr, Power: e.Power.At(lambda)}
				found = true
			}
		}
	}
	return best, found
}

// BestFreq returns the least-energy SLO-feasible frequency for a fixed
// class and parallelism at the load — the instance manager's 5-second
// decision (§IV-B "Scale-up/down"). The bool reports whether any frequency
// is feasible; if none, the caller escalates (emergency path).
func (p *Profile) BestFreq(cls workload.Class, tp model.TP, lambda float64) (gpu.Freq, bool) {
	c, ok := p.BestConfig(cls, lambda, tp)
	if !ok {
		return gpu.MaxFreq, false
	}
	return c.Key.Freq, true
}

// --- Repository ---------------------------------------------------------------

// Repository caches profiles by (model, SLO scale), standing in for the
// paper's global profile store with cluster-local caching. It is safe for
// concurrent use: the global lock only guards the cache map, and each
// profile is built at most once outside it (per-key sync.Once), so
// concurrent simulations of different models or SLO scales profile in
// parallel while same-key callers share one build.
type Repository struct {
	mu       sync.Mutex
	profiles map[repoKey]*repoEntry
	measure  Measurer
	// Hits and Misses count cache behaviour (observable for tests). A miss
	// is counted per key, not per caller: concurrent Gets for a key being
	// built all block on the same build and the first counts the miss.
	Hits, Misses int //dynamolint:api test probes: TestWeekRunsSimulatedOnce and the repository tests prove the caches hit through them
}

type repoKey struct {
	model    string
	sloScale float64
}

type repoEntry struct {
	once sync.Once
	p    *Profile
}

// NewRepository returns an empty repository using the given measurer
// (nil = analytic).
func NewRepository(measure Measurer) *Repository {
	return &Repository{profiles: make(map[repoKey]*repoEntry), measure: measure}
}

// Get returns the profile for a model/SLO pair, building it on first use.
func (r *Repository) Get(m *model.Model, sloScale float64) *Profile {
	if sloScale < 1 {
		sloScale = 1
	}
	k := repoKey{model: m.Name, sloScale: sloScale}
	r.mu.Lock()
	e, ok := r.profiles[k]
	if ok {
		r.Hits++
	} else {
		r.Misses++
		e = &repoEntry{}
		r.profiles[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if e.p == nil {
				// Build panicked (e.g. a broken custom Measurer). Drop
				// the entry so a later Get retries the build instead of
				// returning nil forever.
				r.mu.Lock()
				delete(r.profiles, k)
				r.mu.Unlock()
			}
		}()
		e.p = Build(m, sloScale, r.measure)
	})
	if e.p == nil {
		// A concurrent caller's build panicked while we waited on it.
		panic(fmt.Sprintf("profile: build failed for %s/SLOx%g", k.model, k.sloScale))
	}
	return e.p
}
