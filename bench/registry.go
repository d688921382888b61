package main

// metric declares one reported number. BENCHMARK.json at the repository
// root lists the same metrics; TestRegistryMatchesBenchmarkJSON keeps the
// two in step.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which are not gated).
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator or the server sees,
// measured with tracing off. Every workload reports every one of them;
// README.md gives each one's meaning per workload. The bounds are about
// three times the largest spread over ten seeds on the reference host
// (README.md, Baselines); setup_s, measured over the least time, gets
// the widest.
var endToEnd = []metric{
	{"req_per_s", "req/s", "higher", 0.20},
	{"overhead_p50_ms", "ms", "lower", 0.25},
	{"overhead_p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer are computed from the spans of a traced run. A workload that
// does not exercise a layer reports 0 for that layer's metrics.
var perLayer = []metric{
	{"bench.trace_overhead_frac", "frac", "lower", 0},

	{"trace.gen_ms", "ms", "lower", 0},
	{"trace.entries", "count", "higher", 0},
	{"profile.build_ms", "ms", "lower", 0},
	{"core.newlive_ms", "ms", "lower", 0},

	{"core.tick_us_p50", "us", "lower", 0},
	{"core.tick_us_p99", "us", "lower", 0},
	{"core.pool_epoch_us_p50", "us", "lower", 0},
	{"core.cluster_epoch_us_p50", "us", "lower", 0},
	{"core.ticks", "count", "lower", 0},
	{"core.tick_busy_frac", "frac", "lower", 0},
	{"core.ns_per_request", "ns", "lower", 0},
	{"core.allocs_per_tick_p50", "count", "lower", 0},
	{"core.allocs_per_tick_p99", "count", "lower", 0},
	{"core.finish_ms", "ms", "lower", 0},
	{"go.alloc_mb", "MB", "lower", 0},
	{"go.gc_cpu_frac", "frac", "lower", 0},

	{"core.requests", "count", "higher", 0},
	{"core.completed", "count", "higher", 0},
	{"core.squashed", "count", "lower", 0},
	{"core.retried", "count", "lower", 0},
	{"core.reshards", "count", "lower", 0},
	{"core.scale_outs", "count", "lower", 0},
	{"core.scale_ins", "count", "lower", 0},

	{"engine.ns_per_token", "ns", "lower", 0},
	{"engine.kv_preemptions", "count", "lower", 0},
	{"engine.kv_swap_outs", "count", "lower", 0},
	{"engine.kv_swap_ins", "count", "lower", 0},
	{"engine.kv_recomputes", "count", "lower", 0},
	{"engine.kv_tier_evictions", "count", "lower", 0},
	{"engine.kv_prefix_hits", "count", "higher", 0},
	{"engine.swap_ratio", "frac", "higher", 0},
	{"engine.prefix_hit_ratio", "frac", "higher", 0},
	{"engine.kv_used_frac_p50", "frac", "lower", 0},
	{"engine.kv_used_frac_peak", "frac", "lower", 0},

	{"perfmodel.iter_ns", "ns", "lower", 0},
	{"perfmodel.steady_us", "us", "lower", 0},
	{"solver.solve_us", "us", "lower", 0},

	{"serve.handler_ms_p50", "ms", "lower", 0},
	{"serve.handler_ms_p99", "ms", "lower", 0},
	{"serve.sim_service_ms_p50", "ms", "lower", 0},
	{"serve.wait_excess_ms_p50", "ms", "lower", 0},
	{"serve.wait_excess_ms_p99", "ms", "lower", 0},
	{"serve.advance_ms_p50", "ms", "lower", 0},
	{"serve.advance_ms_p99", "ms", "lower", 0},
	{"serve.advance_ticks_p99", "count", "lower", 0},
	{"serve.lock_busy_frac", "frac", "lower", 0},
	{"serve.inflight_peak", "count", "lower", 0},
	{"serve.gen_late_ms_p99", "ms", "lower", 0},
	{"serve.latency_p50_ms", "ms", "lower", 0},
	{"serve.latency_p99_ms", "ms", "lower", 0},
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string
	Why  string
	run  func(cfg config, rec *recorder) (*report, error)
}

// workloads is the registry the -workload flag selects from. Each entry's
// why is the one-line rationale BENCHMARK.json repeats.
var workloads = []workloadDef{
	{
		Name: "fluid-week",
		Why:  "Fig. 14 grid, fluid fidelity: 2 services x 6 systems over 12 virtual hours; loads the core tick loop, controllers and solver, not the engine",
		run:  fluidWeek.run,
	},
	{
		Name: "event-hour",
		Why:  "Fig. 6-10 substrate, event fidelity, 6 systems x 5 virtual min, token-count KV: the engine dominates and the block pool is bypassed",
		run:  eventHour.run,
	},
	{
		Name: "event-kv",
		Why:  "15 virtual min with shared prompts, block KV at 0.3 capacity, prefix cache and cpu spill tier: exercises preemption, swaps and prefix hits",
		run:  eventKV.run,
	},
	{
		Name: "serve-http",
		Why:  "dynamoserve defaults over loopback h2c: open-loop Poisson POST /request at 1000, 2000 and 4000 req/s through HTTP, Session lock and pacer",
		run:  runServe,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
