package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// peakRPS is the weekly-peak arrival rate of every workload: the paper's
// and dynamoserve's default.
const peakRPS = 45.0

// weekPeakRPS thins the week-scale traces the way the quick harness does
// for Fig. 14 (0.3 of the peak).
const weekPeakRPS = 0.3 * peakRPS

// shortWindow is every batch workload's virtual length in smoke mode.
const shortWindow = 2 * simclock.Minute

// batchWorkload runs every system against every trace it generates, one
// simulation after another, through core.Live advanced one tick per call.
type batchWorkload struct {
	systems []string
	// traces generates the workload's inputs from the seed.
	traces func(seed uint64, short bool) []trace.Trace
	// options applies the workload's fixed settings for trace i.
	options func(o *core.Options, i int, tr trace.Trace)
}

var fluidServices = []trace.Service{trace.Conversation, trace.Coding}

// fluidWeek is the quick Fig. 14 grid over the first 12 virtual hours of
// the week: a pass must be short enough that a run makes several (see
// passSeconds).
var fluidWeek = &batchWorkload{
	systems: core.SystemNames,
	traces: func(seed uint64, short bool) []trace.Trace {
		days := simclock.Duration(12 * simclock.Hour)
		if short {
			days = shortWindow
		}
		out := make([]trace.Trace, len(fluidServices))
		for i, svc := range fluidServices {
			out[i] = trace.Generate(trace.GenConfig{
				Service:  svc,
				Duration: days,
				PeakRPS:  weekPeakRPS,
				Seed:     seed ^ uint64(svc+1)<<8,
			})
		}
		return out
	},
	options: func(o *core.Options, i int, tr trace.Trace) {
		svc := fluidServices[i]
		o.Servers = serversFor(tr)
		o.WarmLoad = func(t simclock.Time, c workload.Class) float64 {
			return trace.ExpectedRate(svc, weekPeakRPS, t, c)
		}
	},
}

// eventHour runs the first 5 minutes of the open-source hour: the full
// hour under six event-fidelity systems takes ~35 s on a 2-vCPU host, and
// a run must fit several passes into its time budget.
var eventHour = &batchWorkload{
	systems: core.SystemNames,
	traces: func(seed uint64, short bool) []trace.Trace {
		return []trace.Trace{hourTrace(seed, 5*simclock.Minute, short)}
	},
	options: func(o *core.Options, _ int, _ trace.Trace) {
		eventOptions(o)
	},
}

// kvPrefixShare and kvPrefixGroups put half the requests on four shared
// prompts, the kv sweep's hot-prefix shape. kvCapacity is the tightest
// capacity at which dynamollm preempts heavily without collapsing its SLO.
const (
	kvPrefixShare  = 0.5
	kvPrefixGroups = 4
	kvCapacity     = 0.3
)

// eventKV is the first quarter of the hour under KV pressure. The static
// systems never preempt at this capacity, so only the two scaling systems
// run.
var eventKV = &batchWorkload{
	systems: []string{"dynamollm", "scaleinst"},
	traces: func(seed uint64, short bool) []trace.Trace {
		tr := hourTrace(seed, 15*simclock.Minute, short)
		group := trace.GroupPrompts(0, simclock.Time(simclock.Hour), kvPrefixShare, kvPrefixGroups, seed)
		return []trace.Trace{group(tr)}
	},
	options: func(o *core.Options, _ int, _ trace.Trace) {
		eventOptions(o)
		o.KVBlockTokens = core.DefaultKVBlockTokens
		o.KVCapacityFactor = kvCapacity
		o.KVPrefixCache = true
		o.KVTier = core.KVTierCPU
		o.KVSwapPolicy = core.KVSwapAuto
	},
}

// hourTrace is the first window of the open-source hour.
func hourTrace(seed uint64, window simclock.Duration, short bool) trace.Trace {
	if short {
		window = shortWindow
	}
	return trace.OpenSourceHour(peakRPS, seed).Window(0, simclock.Time(window))
}

// eventOptions is the event-fidelity setting shared by the hour
// workloads, warmed on the hour's position in the week as the harness
// does.
func eventOptions(o *core.Options) {
	o.Fidelity = core.FidelityEvent
	o.StepJobs = runtime.NumCPU() // one worker per CPU: the load one process can offer
	o.WarmLoad = func(t simclock.Time, c workload.Class) float64 {
		return trace.ExpectedRate(trace.Conversation, peakRPS, t+trace.OpenSourceHourStart, c)
	}
}

// serversFor sizes the static fleet for a trace the way the experiment
// harness does: peak 30-minute demand over a mixed-instance capacity,
// padded for bursts.
func serversFor(tr trace.Trace) int {
	buckets := map[int]float64{}
	for _, e := range tr {
		buckets[int(float64(e.At)/1800)]++
	}
	peak := 0.0
	for _, n := range buckets {
		peak = math.Max(peak, n/1800)
	}
	const mixedCapacityRPS = 4.0
	return max(int(peak/mixedCapacityRPS*1.25)+1, 3)
}

// sim is one simulation of a batch workload.
type sim struct {
	label string
	tr    int // index into the workload's traces
	opts  core.Options
}

func (w *batchWorkload) sims(traces []trace.Trace, seed uint64) []sim {
	var out []sim
	for i, tr := range traces {
		for _, name := range w.systems {
			opts, ok := core.SystemByName(name)
			if !ok {
				panic("bench: unknown system " + name)
			}
			opts.Seed = seed
			w.options(&opts, i, tr)
			out = append(out, sim{label: fmt.Sprintf("trace%d/%s", i, name), tr: i, opts: opts})
		}
	}
	return out
}

// simRun is what one simulation measured.
type simRun struct {
	res       *core.Result
	kv        core.KVStats
	requests  int
	outTokens int
	grouped   int // requests carrying a shared-prompt group
	// wallNS is the wall time of the tick loop and the drain, without the
	// speed kernel's samples; factor rescales it to the reference speed.
	wallNS int64
	factor float64
	tickMS []float64 // untraced: each tick's time, rescaled
	liveMB float64   // mean live heap over the tick loop, when measured
	digest uint64
}

// liveSamples is how many times the live heap is measured over a
// simulation's tick loop, evenly spaced and the last at its end.
const liveSamples = 4

// scaledNS is the run's time at the reference speed.
func (r simRun) scaledNS() float64 { return float64(r.wallNS) * r.factor }

// drainSamples kernel samples follow the drain, so the speed factor also
// covers the host's speed at the end of a long drain.
const drainSamples = 25

// runSim drives one simulation tick by tick and closes it, sampling the
// speed kernel as it goes. Untraced, it times each tick; traced, it
// records a span per tick with its class and heap allocations, and
// samples KV occupancy into kvUsed.
func runSim(s sim, tr trace.Trace, repo *profile.Repository, ref *speedRef, rec *recorder, lane int32, kvUsed *[]float64, measureLive bool) (simRun, error) {
	l := core.NewLive(tr, s.opts, repo)
	opts := l.Options()
	n := tickCount(tr, opts.Tick)
	allocs := newHeapReader("/gc/heap/allocs:objects")
	lastPool, lastCluster := -1, -1

	var tickMS []float64
	if rec == nil {
		tickMS = make([]float64, 0, n)
	}
	meter := speedMeter{ref: ref}
	var live []float64
	simSpan := rec.begin(spSim, lane, -1)
	start := time.Now()
	for k := 1; k <= n; k++ {
		meter.tick(time.Since(start) - meter.spent)
		target := simclock.Time(float64(k) * opts.Tick)
		if rec == nil {
			t0 := time.Now()
			l.AdvanceTo(target)
			tickMS = append(tickMS, float64(time.Since(t0))/1e6)
		} else {
			begin := float64(k-1) * opts.Tick
			class := tickSteady
			if pe := int(begin / opts.PoolEpoch); pe != lastPool {
				lastPool, class = pe, tickPoolEpoch
			}
			if ce := int(begin / opts.ClusterEpoch); ce != lastCluster {
				lastCluster, class = ce, tickClusterEpoch
			}
			sp := rec.begin(spTick, lane, simSpan)
			a0 := allocs.read()
			l.AdvanceTo(target)
			a1 := allocs.read()
			rec.end(sp, int64(class), int64(a1-a0))
			if st := l.KVStats(); st.TotalBlocks > 0 {
				*kvUsed = append(*kvUsed, float64(st.UsedBlocks)/float64(st.TotalBlocks))
			}
		}
		for measureLive && len(live) < liveSamples && k*liveSamples >= (len(live)+1)*n {
			w0 := time.Now()
			live = append(live, liveHeapMB())
			start = start.Add(time.Since(w0)) // not part of the simulation's time
		}
	}
	fin := rec.begin(spFinish, lane, simSpan)
	res := l.Finish()
	rec.end(fin, 0, 0)
	wall := time.Since(start) - meter.spent
	rec.end(simSpan, int64(meter.spent), int64(res.Requests))
	meter.add(drainSamples)
	run := simRun{res: res, kv: l.KVStats(), requests: len(tr), wallNS: int64(wall),
		factor: meter.factor(), tickMS: tickMS, liveMB: ratio(sum(live), float64(len(live))), digest: digest(res)}
	for i := range tickMS {
		tickMS[i] *= run.factor
	}
	for _, e := range tr {
		run.outTokens += e.OutputTokens
		if e.PromptGroup != 0 {
			run.grouped++
		}
	}
	if err := res.CheckInvariants(); err != nil {
		return run, fmt.Errorf("%s: %w", s.label, err)
	}
	if res.Requests != len(tr) {
		return run, fmt.Errorf("%s: routed %d of %d trace requests", s.label, res.Requests, len(tr))
	}
	return run, nil
}

// tickCount is the number of ticks a batch run executes: the horizon
// rounded up to a whole tick, as core.RunWithRepo does.
func tickCount(tr trace.Trace, tick float64) int {
	if len(tr) == 0 {
		return 1
	}
	return max(int(math.Ceil(float64(tr[len(tr)-1].At)/tick)), 1)
}

// digest hashes the outcome a refactor must leave unchanged: the
// conservation and reconfiguration counters, energy bits, latency
// percentiles and the KV counters.
func digest(r *core.Result) uint64 {
	var vals []uint64
	for _, v := range []int{
		r.Requests, r.Completed, r.Squashed, r.Shed, r.SLOMet, r.Retried, r.RetrySuccess,
		r.Reshards, r.ScaleOuts, r.ScaleIns, r.FreqChanges, r.Emergencies, r.Merges,
		r.KVPreemptions, r.KVPrefixHits, r.KVRejected, r.Handoffs,
		r.KVSwapOuts, r.KVSwapIns, r.KVRecomputes, r.KVTierEvictions,
	} {
		vals = append(vals, uint64(v))
	}
	for _, v := range []float64{
		r.EnergyJ, r.TTFT.Percentile(50), r.TTFT.Percentile(99), r.TBT.Percentile(50), r.TBT.Percentile(99),
	} {
		vals = append(vals, math.Float64bits(v))
	}
	return hash64(vals)
}

// hash64 is the FNV-1a hash of the values' little-endian bytes.
func hash64(vals []uint64) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	return h.Sum64()
}

// heapReader reads one runtime/metrics counter.
type heapReader struct{ s []metrics.Sample }

func newHeapReader(name string) heapReader {
	return heapReader{s: []metrics.Sample{{Name: name}}}
}

func (h heapReader) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

// liveHeapMB collects the heap and returns the MB still reachable: the
// memory the program retains, which unlike its resident set does not
// depend on when the collector happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(newHeapReader("/gc/heap/live:bytes").read()) / (1 << 20)
}

// goCounters snapshots the runtime counters go.alloc_mb and
// go.gc_cpu_frac are computed from.
type goCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (c goCounters) sub(d goCounters) goCounters {
	return goCounters{c.allocBytes - d.allocBytes, c.gcCPU - d.gcCPU, c.totalCPU - d.totalCPU}
}

func (c goCounters) add(d goCounters) goCounters {
	return goCounters{c.allocBytes + d.allocBytes, c.gcCPU + d.gcCPU, c.totalCPU + d.totalCPU}
}

// passSeconds is the budget one pass is given: a pass of every batch
// workload takes 2-4 s on the reference host. The number of passes
// follows from --seconds alone, never from how fast the host ran, so the
// median is always taken over the same number of runs; it is at least two.
const passSeconds = 2.5

// deadlineFactor bounds the measured phase of a batch run on a slow host:
// no pass starts once this multiple of --seconds has passed.
const deadlineFactor = 1.5

// run measures the workload: set-up repeated on fresh state, then a fixed
// number of passes over every simulation; every pass must reproduce the
// first one's digests. A traced run makes one pass, running each
// simulation untraced and then traced, and compares their digests.
func (w *batchWorkload) run(cfg config, rec *recorder) (*report, error) {
	rep := newReport()
	var traces []trace.Trace
	var repo *profile.Repository
	setupS, err := repeatSetup(cfg, func() (func(), error) {
		setup := rec.begin(spSetup, 0, -1)
		sp := rec.begin(spTraceGen, 0, setup)
		traces = w.traces(cfg.seed, cfg.short)
		rec.end(sp, 0, 0)
		sp = rec.begin(spProfileBuild, 0, setup)
		repo = profile.NewRepository(nil)
		repo.Get(model.Llama2_70B, 1)
		rec.end(sp, 0, 0)
		for _, s := range w.sims(traces, cfg.seed) {
			sp := rec.begin(spNewLive, 0, setup)
			core.NewLive(traces[s.tr], s.opts, repo)
			rec.end(sp, 0, 0)
		}
		rec.end(setup, 0, 0)
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	rep.endToEnd["setup_s"] = setupS
	rec.nameLane(0, "setup")

	sims := w.sims(traces, cfg.seed)
	rep.stepJobs = sims[0].opts.StepJobs
	// runs holds every pass's run of each simulation. Every pass repeats
	// the same deterministic simulations; each run's time is rescaled to
	// the reference speed, and the median over the passes is kept.
	runs := make([][]simRun, len(sims))
	var (
		kvUsed                       []float64
		passRates, passS             []float64
		passP50, passP99             []float64
		untracedScaled, tracedScaled float64
		traced                       []simRun
		goDelta                      goCounters
		measureStart                 = time.Now()
	)
	passes := max(2, int(math.Round(cfg.seconds/passSeconds)))
	if cfg.trace {
		passes = 1
	}
	for pass := range passes {
		// On a host so slow that the planned passes would overrun the run's
		// time limit, stop early; diagnostics show the passes made.
		if pass >= 2 && time.Since(measureStart).Seconds() > deadlineFactor*cfg.seconds {
			break
		}
		passStart := time.Now()
		var passReq, passNS float64
		var passTicks []float64
		for i, s := range sims {
			// Each run starts from a collected heap, so it pays only for its
			// own garbage.
			runtime.GC()
			u, err := runSim(s, traces[s.tr], repo, cfg.ref, nil, 0, nil, pass == 0)
			rep.attempted++
			switch {
			case err != nil:
				rep.failed++
				rep.fail("%v", err)
			case pass > 0 && u.digest != runs[i][0].digest:
				rep.failed++
				rep.fail("%s: digest %016x differs from the first pass's %016x", s.label, u.digest, runs[i][0].digest)
			}
			if pass > 0 {
				u.res = nil // only the first pass's result is read
			}
			passTicks = append(passTicks, u.tickMS...)
			u.tickMS = nil
			runs[i] = append(runs[i], u)
			passReq += float64(u.requests)
			passNS += u.scaledNS()
			if !cfg.trace {
				continue
			}
			lane := int32(i + 1)
			rec.nameLane(lane, s.label)
			runtime.GC()
			g0 := readGoCounters()
			t, err := runSim(s, traces[s.tr], repo, cfg.ref, rec, lane, &kvUsed, false)
			goDelta = goDelta.add(readGoCounters().sub(g0))
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("traced %v", err)
			} else if t.digest != u.digest {
				rep.failed++
				rep.fail("%s: traced digest %016x differs from untraced %016x", s.label, t.digest, u.digest)
			}
			untracedScaled += u.scaledNS()
			tracedScaled += t.scaledNS()
			traced = append(traced, t)
		}
		passRates = append(passRates, passReq/(passNS/1e9))
		passS = append(passS, time.Since(passStart).Seconds())
		passP50 = append(passP50, percentile(passTicks, 50))
		passP99 = append(passP99, percentile(passTicks, 99))
	}

	var requests, scaledNS, wallNS float64
	var factors []float64
	digests := make([]uint64, len(runs))
	for i, rs := range runs {
		var scaled, wall []float64
		for _, r := range rs {
			scaled = append(scaled, r.scaledNS())
			wall = append(wall, float64(r.wallNS))
			factors = append(factors, r.factor)
		}
		requests += float64(rs[0].requests)
		scaledNS += median(scaled)
		wallNS += median(wall)
		digests[i] = rs[0].digest
		rep.endToEnd["live_heap_mb"] += rs[0].liveMB / float64(len(runs))
	}
	rep.diag["pass_tick_p50_ms"] = slices.Clone(passP50)
	rep.diag["pass_tick_p99_ms"] = slices.Clone(passP99)
	rep.endToEnd["req_per_s"] = requests / (scaledNS / 1e9)
	// Interference only ever lengthens ticks, and a burst of it moves a
	// pass's tail far more than its middle: the tick p50 is the passes'
	// median, the tick p99 the lowest pass's.
	rep.endToEnd["overhead_p50_ms"] = median(passP50)
	rep.endToEnd["overhead_p99_ms"] = slices.Min(passP99)
	rep.digest = combinedDigest(digests)
	rep.diag["wall_req_per_s"] = requests / (wallNS / 1e9)
	rep.diag["speed_factor_p50"] = median(factors)
	rep.diag["passes"] = len(passRates)
	rep.diag["passes_planned"] = passes
	rep.diag["sims_per_pass"] = len(sims)
	rep.diag["pass_req_per_s"] = passRates
	rep.diag["pass_s"] = passS
	rep.diag["measured_s"] = time.Since(measureStart).Seconds()

	if cfg.trace {
		rep.perLayer["bench.trace_overhead_frac"] = ratio(tracedScaled, untracedScaled) - 1
		batchLayers(rep, rec, traced, kvUsed, goDelta, traces)
		if err := runProbes(rep, rec, repo, cfg.ref); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// batchLayers computes the per-layer metrics of a traced batch pass. The
// times of a simulation's spans are rescaled by its speed factor, like
// the end-to-end times; set-up spans are raw wall times.
func batchLayers(rep *report, rec *recorder, traced []simRun, kvUsed []float64, g goCounters, traces []trace.Trace) {
	L := rep.perLayer
	ms := func(ns float64) float64 { return ns / 1e6 }
	L["trace.gen_ms"] = ms(median(rec.durations(spTraceGen)))
	entries := 0
	for _, tr := range traces {
		entries += len(tr)
	}
	L["trace.entries"] = float64(entries)
	L["profile.build_ms"] = ms(median(rec.durations(spProfileBuild)))
	L["core.newlive_ms"] = ms(median(rec.sumsByParent(spNewLive)))

	// Simulation i ran on lane i+1.
	scaled := func(kind spanKind, keep func(span) bool) []float64 {
		return rec.collect(kind, func(s span) (float64, bool) {
			if kind == spSim {
				s.dur -= s.a // the speed kernel's samples
			}
			return float64(s.dur) * traced[s.lane-1].factor, keep == nil || keep(s)
		})
	}
	ofClass := func(c int) func(span) bool { return func(s span) bool { return s.a == int64(c) } }
	steady := scaled(spTick, ofClass(tickSteady))
	L["core.tick_us_p50"] = percentile(steady, 50) / 1e3
	L["core.tick_us_p99"] = percentile(steady, 99) / 1e3
	L["core.pool_epoch_us_p50"] = median(scaled(spTick, ofClass(tickPoolEpoch))) / 1e3
	L["core.cluster_epoch_us_p50"] = median(scaled(spTick, ofClass(tickClusterEpoch))) / 1e3
	allTicks := scaled(spTick, nil)
	L["core.ticks"] = float64(len(allTicks))
	simNS := sum(scaled(spSim, nil))
	L["core.tick_busy_frac"] = ratio(sum(allTicks), simNS)
	allocs := rec.values(spTick)
	L["core.allocs_per_tick_p50"] = percentile(allocs, 50)
	L["core.allocs_per_tick_p99"] = percentile(allocs, 99)
	finish := scaled(spFinish, nil)
	L["core.finish_ms"] = ms(ratio(sum(finish), float64(len(finish))))
	L["go.alloc_mb"] = g.allocBytes / (1 << 20)
	L["go.gc_cpu_frac"] = ratio(g.gcCPU, g.totalCPU)

	var requests, completed, squashed, retried, reshards, outs, ins, outTokens, grouped int
	var kv core.KVStats
	event := false
	for _, t := range traced {
		r := t.res
		requests += r.Requests
		completed += r.Completed
		squashed += r.Squashed
		retried += r.Retried
		reshards += r.Reshards
		outs += r.ScaleOuts
		ins += r.ScaleIns
		outTokens += t.outTokens
		grouped += t.grouped
		kv.Preemptions += t.kv.Preemptions
		kv.SwapOuts += t.kv.SwapOuts
		kv.SwapIns += t.kv.SwapIns
		kv.Recomputes += t.kv.Recomputes
		kv.TierEvictions += t.kv.TierEvictions
		kv.PrefixHits += t.kv.PrefixHits
		event = event || r.Opts.Fidelity == core.FidelityEvent
	}
	L["core.ns_per_request"] = ratio(simNS, float64(requests))
	L["core.requests"] = float64(requests)
	L["core.completed"] = float64(completed)
	L["core.squashed"] = float64(squashed)
	L["core.retried"] = float64(retried)
	L["core.reshards"] = float64(reshards)
	L["core.scale_outs"] = float64(outs)
	L["core.scale_ins"] = float64(ins)

	L["engine.ns_per_token"] = 0
	if event {
		L["engine.ns_per_token"] = ratio(simNS, float64(outTokens))
	}
	L["engine.kv_preemptions"] = float64(kv.Preemptions)
	L["engine.kv_swap_outs"] = float64(kv.SwapOuts)
	L["engine.kv_swap_ins"] = float64(kv.SwapIns)
	L["engine.kv_recomputes"] = float64(kv.Recomputes)
	L["engine.kv_tier_evictions"] = float64(kv.TierEvictions)
	L["engine.kv_prefix_hits"] = float64(kv.PrefixHits)
	L["engine.swap_ratio"] = ratio(float64(kv.SwapOuts), float64(kv.Preemptions))
	L["engine.prefix_hit_ratio"] = ratio(float64(kv.PrefixHits), float64(grouped))
	L["engine.kv_used_frac_p50"] = percentile(kvUsed, 50)
	L["engine.kv_used_frac_peak"] = percentile(kvUsed, 100)
}

func combinedDigest(ds []uint64) string {
	return fmt.Sprintf("%016x", hash64(ds))
}
