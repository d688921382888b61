// Package dynamollm is a from-scratch Go reproduction of DynamoLLM
// (Stojkovic et al., HPCA 2025): an energy-management framework for LLM
// inference clusters that dynamically reconfigures instance counts, tensor
// parallelism, and GPU frequency to minimize energy under latency SLOs.
//
// The package is a facade over the internal implementation:
//
//   - Config selects a control system (DynamoLLM or one of the paper's five
//     baselines) and its parameters;
//   - NewTrace generates synthetic production-like traces (the substitute
//     for the paper's Azure Coding/Conversation traces);
//   - Simulate drives a trace through a simulated GPU cluster under the
//     chosen system and returns energy, latency, power, carbon, and cost
//     results;
//   - Experiments exposes the harness that regenerates every table and
//     figure in the paper's evaluation.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package dynamollm

import (
	"encoding"
	"errors"
	"fmt"

	"dynamollm/internal/core"
	"dynamollm/internal/energy"
	"dynamollm/internal/expt"
	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/scenario"
	"dynamollm/internal/serve"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// System names accepted by Config.System, in the paper's order.
var Systems = core.SystemNames

// Config selects and parameterizes a serving system.
type Config struct {
	// System is one of Systems ("dynamollm", "singlepool", ...).
	System string
	// Model is a catalog name (default "llama2-70b"); see Models().
	Model string
	// Servers is the fleet size (static for baselines, ceiling for
	// autoscaling systems). Default 12.
	Servers int
	// SLOScale relaxes the Table IV SLOs (1 = strict, 2 = 10x, 4 = 20x).
	SLOScale float64
	// PredictorAccuracy is the output-length classifier accuracy (0..1].
	PredictorAccuracy float64
	// NumPools overrides the pool count (0 = system default).
	NumPools int
	// Fidelity selects the instance service model: "fluid" (closed-form
	// steady state, the fast default; "" means fluid) or "event" (one
	// event-level continuous-batching engine per instance — request-level
	// queueing and tails, a few orders of magnitude slower). See
	// Fidelities.
	Fidelity string
	// StepJobs bounds the worker pool an event-fidelity simulation uses to
	// step its per-instance engines within each tick (0 or 1 = serial).
	// Output is byte-identical for any value. How much wall time it saves
	// depends on the host's core count and the number of instances; see
	// DESIGN.md "Parallel event stepping" for measured numbers.
	StepJobs int
	// Disagg splits every pool into a prefill pool and a decode pool with
	// a modeled KV-transfer handoff between them. Implies event fidelity
	// and block-granular KV accounting.
	Disagg bool
	// KVBlockTokens enables block-granular KV-cache accounting in every
	// event-fidelity engine: admission, decode growth, and preemption all
	// operate on pages of this many tokens (0 = legacy token-bucket
	// accounting, byte-identical to previous releases).
	KVBlockTokens int
	// KVCapacityFactor scales each engine's profile-derived KV block
	// capacity (0 or 1 = full capacity; small values force preemption
	// pressure). Only meaningful with KVBlockTokens > 0.
	KVCapacityFactor float64
	// KVPrefixCache enables the engine prompt-prefix cache: requests
	// tagged with a shared PromptGroup skip prefill for the cached
	// prefix. Only meaningful with KVBlockTokens > 0.
	KVPrefixCache bool
	// KVTier adds a spill tier below each engine's GPU KV pool: "none"
	// (or "", recompute-only), "cpu" (host memory over PCIe ~25 GB/s), or
	// "ssd" (NVMe ~5 GB/s, far larger pool). Preemption victims may swap
	// out and back in instead of recomputing. Implies event fidelity and
	// block-granular KV accounting. See KVTiers.
	KVTier string
	// KVSwapPolicy picks swap vs recompute per preemption victim: "auto"
	// (or "", compare modeled transfer vs recompute time) or "always".
	// See KVSwapPolicies.
	KVSwapPolicy string
	// Seed fixes all randomness.
	Seed uint64
}

// Fidelities lists the accepted Config.Fidelity values.
var Fidelities = core.FidelityNames

// KVTiers lists the accepted Config.KVTier values.
var KVTiers = core.KVTierNames

// KVSwapPolicies lists the accepted Config.KVSwapPolicy values.
var KVSwapPolicies = core.KVSwapPolicyNames

// Trace re-exports the trace type for the public API.
type Trace = trace.Trace

// Service identifies a synthetic workload family.
type Service = trace.Service

// The two production services the paper profiles.
const (
	Conversation = trace.Conversation
	Coding       = trace.Coding
)

// NewTrace generates a synthetic service trace spanning `days` days at the
// given weekly-peak request rate.
func NewTrace(svc Service, days float64, peakRPS float64, seed uint64) Trace {
	return trace.Generate(trace.GenConfig{
		Service:  svc,
		Duration: days * simclock.Day,
		PeakRPS:  peakRPS,
		Seed:     seed,
	})
}

// Models lists the LLM catalog names.
func Models() []string { return model.Names() }

// Result is the outcome of a simulation.
type Result struct {
	// EnergyKWh is total cluster energy.
	EnergyKWh float64
	// AvgServers is the mean number of occupied 8-GPU servers.
	AvgServers float64
	// SLOAttainment is the fraction of requests meeting their SLOs.
	SLOAttainment float64
	// TTFTP50/P99 and TBTP50/P99 are latency percentiles in seconds.
	TTFTP50, TTFTP99 float64
	TBTP50, TBTP99   float64
	// CarbonKg is operational CO2 under the CAISO-like intensity trace.
	CarbonKg float64
	// CostUSD is the GPU-hour + electricity bill (§V-F pricing).
	CostUSD float64
	// EnergyBillUSD is the electricity bill alone, integrated at the
	// time-varying price (scenario price surges show up here).
	EnergyBillUSD float64
	// Requests and Squashed count the workload.
	Requests, Squashed int
	// Outages counts instances lost to scenario-injected failures.
	Outages int
	// Raw exposes the full internal result for advanced consumers.
	Raw *core.Result
}

// Simulate runs the trace through a simulated cluster under cfg.
func Simulate(tr Trace, cfg Config) (*Result, error) {
	return SimulateWithRepo(tr, cfg, nil)
}

// Repo caches model profiles across simulations.
type Repo = profile.Repository

// NewRepo returns an empty profile repository.
func NewRepo() *Repo { return profile.NewRepository(nil) }

// SimulateWithRepo is Simulate reusing a profile repository.
func SimulateWithRepo(tr Trace, cfg Config, repo *Repo) (*Result, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	return wrapResult(core.RunWithRepo(tr, opts, repo)), nil
}

// coreOptions resolves the public Config into internal run options.
func (cfg Config) coreOptions() (core.Options, error) {
	name := cfg.System
	if name == "" {
		name = "dynamollm"
	}
	opts, ok := core.SystemByName(name)
	if !ok {
		return core.Options{}, fmt.Errorf("dynamollm: unknown system %q (want one of %v)", name, Systems)
	}
	if cfg.Model != "" {
		m, err := model.Lookup(cfg.Model)
		if err != nil {
			return core.Options{}, err
		}
		opts.Model = m
	}
	if cfg.Servers > 0 {
		opts.Servers = cfg.Servers
	}
	opts.SLOScale = cfg.SLOScale
	opts.PredictorAccuracy = cfg.PredictorAccuracy
	if cfg.NumPools > 0 {
		opts.NumPools = cfg.NumPools
	}
	opts.StepJobs = cfg.StepJobs
	opts.Disagg = cfg.Disagg
	opts.KVBlockTokens = cfg.KVBlockTokens
	opts.KVCapacityFactor = cfg.KVCapacityFactor
	opts.KVPrefixCache = cfg.KVPrefixCache
	if err := errors.Join(
		parseName(&opts.Fidelity, cfg.Fidelity),
		parseName(&opts.KVTier, cfg.KVTier),
		parseName(&opts.KVSwapPolicy, cfg.KVSwapPolicy),
	); err != nil {
		return core.Options{}, err
	}
	opts.Seed = cfg.Seed
	return opts, nil
}

// parseName resolves a facade enum string into dst; "" keeps dst's
// default.
func parseName(dst encoding.TextUnmarshaler, s string) error {
	if s == "" {
		return nil
	}
	if err := dst.UnmarshalText([]byte(s)); err != nil {
		return fmt.Errorf("dynamollm: %w", err)
	}
	return nil
}

// wrapResult converts an internal result into the public summary.
func wrapResult(res *core.Result) *Result {
	carbon := energy.NewCarbonMeter(energy.CAISO)
	for _, p := range res.EnergySeries.Points() {
		carbon.AddEnergy(simclock.Time(p.Time), p.Value)
	}
	bill := energy.DefaultCost.Bill(res.GPUSeconds, res.EnergyJ)

	return &Result{
		EnergyKWh:     res.EnergyKWh(),
		AvgServers:    res.AvgServers,
		SLOAttainment: res.SLOAttainment(),
		TTFTP50:       res.TTFT.Percentile(50),
		TTFTP99:       res.TTFT.Percentile(99),
		TBTP50:        res.TBT.Percentile(50),
		TBTP99:        res.TBT.Percentile(99),
		CarbonKg:      carbon.Kg(),
		CostUSD:       bill.Total(),
		EnergyBillUSD: res.EnergyCostUSD,
		Requests:      res.Requests,
		Squashed:      res.Squashed,
		Outages:       res.Outages,
		Raw:           res,
	}
}

// Scenarios lists the built-in scenario names (see SimulateScenario).
func Scenarios() []string { return scenario.Names() }

// SimulateScenario runs cfg's system under a named built-in scenario —
// an event-injected cluster condition such as a flash crowd, cascading
// GPU failures, or an electricity-price surge — at the given weekly-peak
// request rate. The scenario's trace-level events perturb the generated
// trace; its runtime events fire inside the simulation through the tick
// hook. Same name + cfg.Seed is fully deterministic.
func SimulateScenario(name string, peakRPS float64, cfg Config) (*Result, error) {
	sc, ok := scenario.ByName(name)
	if !ok {
		return nil, fmt.Errorf("dynamollm: unknown scenario %q (want one of %v)", name, Scenarios())
	}
	tr, err := sc.GenTrace(peakRPS, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	svc, err := sc.ServiceProfile()
	if err != nil {
		return nil, err
	}
	start := sc.Start()
	opts.WarmLoad = func(t simclock.Time, c workload.Class) float64 {
		return trace.ExpectedRate(svc, peakRPS, t+start, c)
	}
	opts.Hook = sc.Hook(cfg.Seed)
	return wrapResult(core.RunWithRepo(tr, opts, nil)), nil
}

// Experiments returns the evaluation harness with default settings. Set
// Parallelism on the returned config (or use ExperimentsParallel) to fan
// each experiment's independent simulations across a bounded worker pool;
// results are deterministic for any parallelism level. Experiments run on
// one config (or its copies) share the simulations they have in common.
func Experiments() expt.Config { return expt.Default() }

// Session is a live, wall-clock-paced serving session: the simulation
// advances incrementally as real time passes (at a configurable speedup)
// while requests and scenario runtime events are injected at their true
// virtual arrival instants. cmd/dynamoserve exposes one over HTTP; see
// NewSession to embed one directly.
type Session = serve.Session

// NewSession opens a live serving session over the base trace under cfg
// (cfg.Fidelity "event" gives injected requests real queueing and
// token-level latencies). speed is virtual seconds per wall second; loop
// replays the base trace whenever its horizon is reached so background
// load never runs dry. Call Start on the returned session to begin
// pacing, and Close to drain in-flight work when done.
func NewSession(tr Trace, cfg Config, speed float64, loop bool) (*Session, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	name := cfg.System
	if name == "" {
		name = "dynamollm"
	}
	return serve.New(serve.Config{
		Name:  name,
		Opts:  opts,
		Trace: tr,
		Speed: speed,
		Loop:  loop,
	}), nil
}

// ExperimentsParallel returns the evaluation harness with its Parallelism
// knob set: jobs bounds concurrent simulations per experiment (0 = one
// worker per CPU, 1 = sequential).
func ExperimentsParallel(jobs int) expt.Config {
	c := expt.Default()
	c.Parallelism = jobs
	return c
}

// Classes lists the nine request classes ("SS".."LL").
func Classes() []string {
	out := make([]string, 0, workload.NumClasses)
	for _, c := range workload.AllClasses {
		out = append(out, c.String())
	}
	return out
}
