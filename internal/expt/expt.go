// Package expt implements the evaluation harness: one function per table
// and figure of the paper, plus the scenario sweep comparing systems
// under injected cluster conditions (scenario.go). Each experiment
// returns typed rows/series that the renderers in render.go and
// scenario.go format the way the paper reports them; runner.go fans
// independent simulations across a bounded worker pool with results
// slotted by index, so output is byte-identical at any parallelism. The
// cmd/dynamobench CLI and the repository's benchmarks are thin wrappers
// around this package.
package expt

import (
	"sync"

	"dynamollm/internal/core"
	"dynamollm/internal/energy"
	"dynamollm/internal/engine"
	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/profile"
	"dynamollm/internal/reshard"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// Config parameterizes the experiment harness.
type Config struct {
	// PeakRPS is the weekly-peak arrival rate for cluster experiments.
	PeakRPS float64
	// Seed drives trace generation and simulation.
	Seed uint64
	// Quick shrinks long experiments (benchmark mode): day runs become
	// 6 hours, week runs become 2 days, and week-scale load is thinned.
	Quick bool
	// Repo caches model profiles across experiments.
	Repo *profile.Repository
	// Parallelism bounds how many simulations run concurrently within an
	// experiment (0 = one worker per CPU, 1 = sequential). Results are
	// deterministic for any value: each simulation owns its RNG and the
	// Runner slots results by index, never by completion order.
	Parallelism int
	// Substrate applies to every cluster simulation the harness runs.
	// StepJobs parallelizes inside one simulation, orthogonal to
	// Parallelism; the kv sweep overrides the KV fields per cell.
	core.Substrate

	// runs memoizes what several experiments read (see memoKey). Default
	// sets it and copies share it; no figure may mutate a cached value.
	runs *sync.Map
}

// Default returns the standard harness configuration.
func Default() Config {
	return Config{PeakRPS: 45, Seed: 42, Repo: profile.NewRepository(nil), runs: new(sync.Map)}
}

func (c Config) repo() *profile.Repository {
	if c.Repo == nil {
		return profile.NewRepository(nil)
	}
	return c.Repo
}

func (c Config) memo() *sync.Map {
	if c.runs == nil {
		return new(sync.Map)
	}
	return c.runs
}

func (c Config) runner() Runner { return Runner{Jobs: c.Parallelism} }

// mediumTotalTPS is Table I/III's "medium system load" in total tokens/s.
const mediumTotalTPS = 2000

// --- Table I -------------------------------------------------------------------

// Cell is one heat-map entry.
type Cell struct {
	Feasible bool
	// WhPer10 is the energy per ten requests in watt-hours — our
	// simulator's counterpart of the paper's per-cell Wh numbers (the
	// absolute scale differs from the testbed; the within-row shape is
	// what the controllers consume).
	WhPer10 float64
}

// TableI characterizes Llama2-70B across classes, parallelisms, and
// frequencies at medium load.
func TableI() map[workload.Class]map[model.TP]map[gpu.Freq]Cell {
	out := map[workload.Class]map[model.TP]map[gpu.Freq]Cell{}
	for _, cls := range workload.AllClasses {
		out[cls] = characterize(model.Llama2_70B, cls, mediumTotalTPS, false)
	}
	return out
}

// characterize fills one class's TPxFreq grid. promptTPS selects Table II's
// prompt-token load basis.
func characterize(m *model.Model, cls workload.Class, tps float64, promptTPS bool) map[model.TP]map[gpu.Freq]Cell {
	in, out := workload.RepresentativeLengths(cls)
	lambda := tps / float64(in+out)
	if promptTPS {
		lambda = tps / float64(in)
	}
	grid := map[model.TP]map[gpu.Freq]Cell{}
	for _, tp := range model.TPChoices {
		grid[tp] = map[gpu.Freq]Cell{}
		for _, f := range gpu.CoarseLadder() {
			st := perfmodel.SteadyState(perfmodel.Config{Model: m, TP: tp, Freq: f}, lambda, in, out)
			grid[tp][f] = Cell{
				Feasible: st.MeetsSLO(cls, 1),
				WhPer10:  energy.Wh(st.EnergyPerRequest) * 10,
			}
		}
	}
	return grid
}

// --- Table II ------------------------------------------------------------------

// TableIILoads are the paper's prompt-token load levels.
var TableIILoads = []float64{650, 2000, 4000}

// TableII characterizes MM requests across load levels (prompt TPS basis).
func TableII() map[float64]map[model.TP]map[gpu.Freq]Cell {
	out := map[float64]map[model.TP]map[gpu.Freq]Cell{}
	for _, tps := range TableIILoads {
		out[tps] = characterize(model.Llama2_70B, workload.MM, tps, true)
	}
	return out
}

// --- Table III -----------------------------------------------------------------

// TableIII characterizes MM requests across the model catalog.
func TableIII() map[string]map[model.TP]map[gpu.Freq]Cell {
	out := map[string]map[model.TP]map[gpu.Freq]Cell{}
	for _, m := range model.All() {
		out[m.Name] = characterize(m, workload.MM, mediumTotalTPS, false)
	}
	return out
}

// --- Table V -------------------------------------------------------------------

// ProvisionStep is one row of Table V's overhead breakdown.
type ProvisionStep struct {
	Name    string
	Seconds float64
	// Hidden reports whether DynamoLLM's optimizations take the step off
	// the critical path (§IV-C).
	Hidden bool
}

// TableV returns the instance-creation overhead breakdown.
func TableV() []ProvisionStep {
	return []ProvisionStep{
		{"Create a new H100 VM", 90, true},                  // snapshot start
		{"Initialize distributed multi-GPU env", 120, true}, // baked into snapshot
		{"Download model weights", 180, true},               // cluster-local cache
		{"Set up the engine configuration", 18, false},
		{"Install weights and KV cache on GPUs", 15, false},
	}
}

// TableVTotal returns naive and optimized critical-path seconds.
func TableVTotal() (naive, optimized float64) {
	for _, s := range TableV() {
		naive += s.Seconds
		if !s.Hidden {
			optimized += s.Seconds
		}
	}
	return naive, optimized
}

// --- Table VI ------------------------------------------------------------------

// TableVI returns the derived re-sharding overhead matrix in units of T,
// plus T itself for Llama2-70B.
func TableVI() (matrix [][]int, unitSeconds float64) {
	return reshard.OverheadTable(), gpu.TransferTime(model.Llama2_70B.WeightBytes / reshard.NumSlices)
}

// --- Fig. 1 & 2 ----------------------------------------------------------------

// WeekTrace generates the synthetic week for a service.
func (c Config) WeekTrace(svc trace.Service) trace.Trace {
	peak := c.PeakRPS
	days := 7.0
	if c.Quick {
		days = 2
	}
	return trace.Generate(trace.GenConfig{
		Service:  svc,
		Duration: days * simclock.Day,
		PeakRPS:  peak,
		Seed:     c.Seed ^ uint64(svc+1)<<8,
	})
}

// weekSummary is what Figs. 1 and 2 read of one service's week.
type weekSummary struct {
	fig1 []Fig1Row
	fig2 []metrics.Point
}

// Fig1Row is the class mix of one service over one day.
type Fig1Row struct {
	Day    int
	Shares [workload.NumClasses]float64
}

// weekSummaries reduces each service's generated week trace (Coding,
// then Conversation) to the per-day class mix (Fig. 1) and the hourly
// normalized token throughput (Fig. 2). Both services generate in
// parallel, and each summary is memoized so the two figures share one
// trace without holding it.
func (c Config) weekSummaries() []weekSummary {
	svcs := []trace.Service{trace.Coding, trace.Conversation}
	return Collect(c.runner(), len(svcs), func(i int) weekSummary {
		return memoized(c.memo(), c.key("week-summary", svcs[i], ""), func() weekSummary {
			tr := c.WeekTrace(svcs[i])
			days := int(float64(tr[len(tr)-1].At)/86400) + 1
			counts := make([][workload.NumClasses]float64, days)
			totals := make([]float64, days)
			for _, e := range tr {
				d := int(float64(e.At) / 86400)
				counts[d][e.Class()]++
				totals[d]++
			}
			rows := make([]Fig1Row, days)
			for d := range rows {
				rows[d].Day = d
				for i := range counts[d] {
					if totals[d] > 0 {
						rows[d].Shares[i] = counts[d][i] / totals[d]
					}
				}
			}
			rate := tr.TokenRate(3600)
			peak := 0.0
			for _, p := range rate {
				if p.TPS > peak {
					peak = p.TPS
				}
			}
			pts := make([]metrics.Point, len(rate))
			for i, p := range rate {
				pts[i] = metrics.Point{Time: p.Time, Value: p.TPS / peak}
			}
			return weekSummary{fig1: rows, fig2: pts}
		})
	})
}

// Fig1 computes per-day request-type distributions for both services.
func (c Config) Fig1() map[trace.Service][]Fig1Row {
	s := c.weekSummaries()
	return map[trace.Service][]Fig1Row{trace.Coding: s[0].fig1, trace.Conversation: s[1].fig1}
}

// Fig2 returns hourly normalized token throughput for both services.
func (c Config) Fig2() map[trace.Service][]metrics.Point {
	s := c.weekSummaries()
	return map[trace.Service][]metrics.Point{trace.Coding: s[0].fig2, trace.Conversation: s[1].fig2}
}

// --- Fig. 3 --------------------------------------------------------------------

// Fig3Row compares throughput with constant vs per-iteration-set frequency.
type Fig3Row struct {
	Class               workload.Class
	ConstRPS, SwitchRPS float64
}

// Fig3 measures the frequency-switch overhead per class on the naive
// nvidia-smi path (the figure's setup).
func Fig3() []Fig3Row {
	rows := make([]Fig3Row, 0, workload.NumClasses)
	for _, cls := range workload.AllClasses {
		c, s := engine.ThroughputConstVsSwitch(cls, false)
		rows = append(rows, Fig3Row{Class: cls, ConstRPS: c, SwitchRPS: s})
	}
	return rows
}

// --- Cluster experiments (Figs. 6-10) --------------------------------------------

// SystemRun bundles one system's result.
type SystemRun struct {
	Name   string
	Result *core.Result
}

// hourTrace is the 1-hour open-source production trace substitute.
func (c Config) hourTrace() trace.Trace {
	return trace.OpenSourceHour(c.PeakRPS, c.Seed)
}

func (c Config) warm(svc trace.Service, offset simclock.Time) func(simclock.Time, workload.Class) float64 {
	peak := c.PeakRPS
	return func(t simclock.Time, cls workload.Class) float64 {
		return trace.ExpectedRate(svc, peak, t+offset, cls)
	}
}

// mustSystemOptions resolves one named system's options under this harness
// configuration. Options is a value type, so every simulation gets its own
// copy — mutate never leaks across concurrent runs. The figures reference
// fixed system names, so an unknown name is a programming error and fails
// loudly rather than silently simulating an all-defaults system.
func (c Config) mustSystemOptions(name string, mutate func(*core.Options)) core.Options {
	opts, ok := core.SystemByName(name)
	if !ok {
		panic("expt: unknown system " + name)
	}
	opts.Seed = c.Seed
	opts.Substrate = c.Substrate
	opts.WarmLoad = c.warm(trace.Conversation, trace.OpenSourceHourStart)
	if mutate != nil {
		mutate(&opts)
	}
	return opts
}

// gridJob is one cell of a group-by-system experiment grid.
type gridJob struct {
	group int
	tr    trace.Trace
	name  string
	opts  core.Options
	key   *memoKey // when set, a memoized run only reads tr and opts on a miss
}

// gridRuns fans a flattened grid of simulations through one worker pool and
// regroups the results by group index. Jobs are appended group-major, so
// within each group the system order is the construction order.
func (c Config) gridRuns(jobs []gridJob, numGroups int) [][]SystemRun {
	repo, m := c.repo(), c.memo()
	runs := Collect(c.runner(), len(jobs), func(i int) SystemRun {
		j := jobs[i]
		run := func() *core.Result { return core.RunWithRepo(j.tr, j.opts, repo) }
		if j.key == nil {
			return SystemRun{Name: j.name, Result: run()}
		}
		return SystemRun{Name: j.name, Result: memoized(m, *j.key, run)}
	})
	out := make([][]SystemRun, numGroups)
	for i, j := range jobs {
		out[j.group] = append(out[j.group], runs[i])
	}
	return out
}

// memoJobs appends one group of memoized runs: experiment exp on service
// svc over the named systems. setup returns the group's trace and option
// mutator, and runs only if one of the group's runs is not memoized yet.
func (c Config) memoJobs(jobs []gridJob, group int, exp string, svc trace.Service, names []string,
	setup func() (trace.Trace, func(*core.Options))) []gridJob {
	var tr trace.Trace
	var mutate func(*core.Options)
	for _, name := range names {
		if _, ok := c.memo().Load(c.key(exp, svc, name)); !ok {
			tr, mutate = setup()
			break
		}
	}
	for _, name := range names {
		k := c.key(exp, svc, name)
		jobs = append(jobs, gridJob{group: group, tr: tr, name: name, opts: c.mustSystemOptions(name, mutate), key: &k})
	}
	return jobs
}

// ClusterHour runs all six systems on the 1-hour trace: the shared
// substrate of Figs. 6, 7, 8, 9, and 10.
func (c Config) ClusterHour() []SystemRun {
	jobs := c.memoJobs(nil, 0, "hour", trace.Conversation, core.SystemNames, func() (trace.Trace, func(*core.Options)) {
		return c.hourTrace(), nil
	})
	return c.gridRuns(jobs, 1)[0]
}

// --- Fig. 11: predictor accuracy ---------------------------------------------

// Fig11Row is one accuracy level's outcome.
type Fig11Row struct {
	Label     string
	Accuracy  float64
	EnergyKWh float64
	TTFTMean  float64
}

// Fig11 sweeps the output-length predictor accuracy on DynamoLLM plus the
// SinglePool reference. All six simulations run through one worker pool.
func (c Config) Fig11() []Fig11Row {
	tr := c.hourTrace()
	repo := c.repo()
	type spec struct {
		label  string
		system string
		acc    float64
	}
	specs := []spec{{label: "SinglePool", system: "singlepool", acc: 1}}
	for _, acc := range []float64{1.0, 0.9, 0.8, 0.6, 0.5} {
		specs = append(specs, spec{label: "Dyn-" + pct(acc), system: "dynamollm", acc: acc})
	}
	return Collect(c.runner(), len(specs), func(i int) Fig11Row {
		sp := specs[i]
		opts := c.mustSystemOptions(sp.system, func(o *core.Options) {
			if sp.system == "dynamollm" {
				o.PredictorAccuracy = sp.acc
			}
		})
		res := core.RunWithRepo(tr, opts, repo)
		return Fig11Row{
			Label:     sp.label,
			Accuracy:  sp.acc,
			EnergyKWh: res.EnergyKWh(),
			TTFTMean:  res.TTFT.Mean(),
		}
	})
}

// --- Fig. 12: load sensitivity --------------------------------------------------

// Fig12Level is one load level's six-system comparison.
type Fig12Level struct {
	Label   string
	Factor  float64 // fraction of PeakRPS
	Systems []SystemRun
}

// Fig12 generates Poisson hours at Low/Medium/High load and compares the
// six systems. The 3x6 level-by-system grid is flattened into a single
// worker pool so one slow level cannot serialize the others.
func (c Config) Fig12() []Fig12Level {
	levels := []struct {
		label  string
		factor float64
	}{{"Low", 0.25}, {"Medium", 0.55}, {"High", 0.9}}
	jobs := make([]gridJob, 0, len(levels)*len(core.SystemNames))
	for li, lv := range levels {
		// Constant-rate Poisson hour: thin the near-peak hour per level.
		tr := c.hourTrace().Scale(lv.factor, c.Seed^0xF12)
		for _, name := range core.SystemNames {
			jobs = append(jobs, gridJob{group: li, tr: tr, name: name, opts: c.mustSystemOptions(name, nil)})
		}
	}
	groups := c.gridRuns(jobs, len(levels))
	out := make([]Fig12Level, len(levels))
	for i, lv := range levels {
		out[i] = Fig12Level{Label: lv.label, Factor: lv.factor, Systems: groups[i]}
	}
	return out
}

// --- Fig. 13: pool count --------------------------------------------------------

// Fig13Row is one pool-count configuration's outcome.
type Fig13Row struct {
	Pools     int
	EnergyKWh float64
	TTFTMean  float64
	SLOAtt    float64
}

// Fig13 sweeps the number of request pools, one worker per pool count.
func (c Config) Fig13() []Fig13Row {
	tr := c.hourTrace()
	repo := c.repo()
	counts := []int{2, 4, 6, 9, 12, 16}
	return Collect(c.runner(), len(counts), func(i int) Fig13Row {
		n := counts[i]
		opts := c.mustSystemOptions("dynamollm", func(o *core.Options) {
			o.NumPools = n
		})
		res := core.RunWithRepo(tr, opts, repo)
		return Fig13Row{
			Pools:     n,
			EnergyKWh: res.EnergyKWh(),
			TTFTMean:  res.TTFT.Mean(),
			SLOAtt:    res.SLOAttainment(),
		}
	})
}

// --- Figs. 14-16 + cost: long horizons -------------------------------------------

// dayTrace is the 1-day Conversation trace (a Tuesday).
func (c Config) dayTrace() trace.Trace {
	days := simclock.Duration(simclock.Day)
	if c.Quick {
		days = 6 * simclock.Hour
	}
	return trace.Generate(trace.GenConfig{
		Service:  trace.Conversation,
		Start:    simclock.Time(24 * 3600),
		Duration: days,
		PeakRPS:  c.PeakRPS,
		Seed:     c.Seed ^ 0xDA4,
	})
}

// Fig15 runs SinglePool vs DynamoLLM over the 1-day trace on an 11-server
// fleet (§V-D) and returns both results; the energy series (5-minute bins)
// is in Result.EnergySeries.
func (c Config) Fig15() []SystemRun {
	jobs := c.memoJobs(nil, 0, "day", trace.Conversation, []string{"singlepool", "dynamollm"}, func() (trace.Trace, func(*core.Options)) {
		return c.dayTrace(), func(o *core.Options) {
			o.Servers = 11
			o.WarmLoad = c.warm(trace.Conversation, simclock.Time(24*3600))
		}
	})
	return c.gridRuns(jobs, 1)[0]
}

// weekPeak thins the week-scale experiments so they run in minutes; the
// reported quantities are ratios, which are insensitive to fleet scale.
func (c Config) weekPeak() float64 {
	p := c.PeakRPS * 0.5
	if c.Quick {
		p = c.PeakRPS * 0.3
	}
	return p
}

// Fig14Row is one service's normalized-energy comparison.
type Fig14Row struct {
	Service trace.Service
	Systems []SystemRun
}

// Fig14 runs the six systems over week-long traces for both services,
// flattening the 2x6 service-by-system grid into a single worker pool.
func (c Config) Fig14() []Fig14Row {
	return c.weekRuns([]trace.Service{trace.Conversation, trace.Coding}, core.SystemNames)
}

// weekRuns runs the named systems over each service's thinned week, one
// memoized group per service: the cost analysis and Fig. 16 read the
// Conversation runs of Fig. 14.
func (c Config) weekRuns(svcs []trace.Service, names []string) []Fig14Row {
	sub := c
	sub.PeakRPS = c.weekPeak()
	jobs := make([]gridJob, 0, len(svcs)*len(names))
	for si, svc := range svcs {
		jobs = sub.memoJobs(jobs, si, "week", svc, names, func() (trace.Trace, func(*core.Options)) {
			tr := sub.WeekTrace(svc)
			servers := serversFor(tr)
			return tr, func(o *core.Options) {
				o.Servers = servers
				o.WarmLoad = sub.warm(svc, 0)
			}
		})
	}
	groups := sub.gridRuns(jobs, len(svcs))
	out := make([]Fig14Row, len(svcs))
	for i, svc := range svcs {
		out[i] = Fig14Row{Service: svc, Systems: groups[i]}
	}
	return out
}

// conversationWeek returns the week-long Conversation SinglePool and
// DynamoLLM runs.
func (c Config) conversationWeek() (base, dyn *core.Result) {
	runs := c.weekRuns([]trace.Service{trace.Conversation}, []string{"singlepool", "dynamollm"})[0].Systems
	return runs[0].Result, runs[1].Result
}

// serversFor sizes the static fleet for a trace: its peak 30-minute demand
// divided by a mixed-instance capacity, padded for bursts.
func serversFor(tr trace.Trace) int {
	peak := 0.0
	buckets := map[int]float64{}
	for _, e := range tr {
		buckets[int(float64(e.At)/1800)]++
	}
	//dynamolint:order-independent max over values; comparison order cannot change the max
	for _, n := range buckets {
		if r := n / 1800; r > peak {
			peak = r
		}
	}
	const mixedCapacityRPS = 4.0
	n := int(peak/mixedCapacityRPS*1.25) + 1
	if n < 3 {
		n = 3
	}
	return n
}

// Fig16Result holds the week-long carbon comparison.
type Fig16Result struct {
	Baseline, Dynamo             *core.Result
	BaselineKg, DynamoKg         float64
	BaselineSeries, DynamoSeries *metrics.Series
}

// Fig16 convolves the week-long Conversation energy with the CAISO-like
// carbon-intensity trace.
func (c Config) Fig16() Fig16Result {
	var res Fig16Result
	res.Baseline, res.Dynamo = c.conversationWeek()
	carbonize := func(r *core.Result) (*energy.CarbonMeter, float64) {
		m := energy.NewCarbonMeter(energy.CAISO)
		for _, p := range r.EnergySeries.Points() {
			m.AddEnergy(simclock.Time(p.Time), p.Value)
		}
		return m, m.Kg()
	}
	var mB, mD *energy.CarbonMeter
	mB, res.BaselineKg = carbonize(res.Baseline)
	mD, res.DynamoKg = carbonize(res.Dynamo)
	res.BaselineSeries = mB.HourlySeries()
	res.DynamoSeries = mD.HourlySeries()
	return res
}

// CostResult is §V-F's user-cost comparison.
type CostResult struct {
	BaselineServers, DynamoServers float64
	BaselineBill, DynamoBill       energy.Cost
	GPUSavingFrac                  float64
	EnergySavingFrac               float64
	TotalSavingFrac                float64
}

// CostAnalysis prices the week-long Conversation runs.
func (c Config) CostAnalysis() CostResult {
	base, dyn := c.conversationWeek()
	out := CostResult{
		BaselineServers: base.AvgServers,
		DynamoServers:   dyn.AvgServers,
		BaselineBill:    energy.DefaultCost.Bill(base.GPUSeconds, base.EnergyJ),
		DynamoBill:      energy.DefaultCost.Bill(dyn.GPUSeconds, dyn.EnergyJ),
	}
	out.GPUSavingFrac = 1 - dyn.GPUSeconds/base.GPUSeconds
	out.EnergySavingFrac = 1 - dyn.EnergyJ/base.EnergyJ
	out.TotalSavingFrac = 1 - out.DynamoBill.Total()/out.BaselineBill.Total()
	return out
}

// Headline aggregates the service-level summary the abstract reports:
// energy, carbon, and cost savings.
type Headline struct {
	EnergySaving, CarbonSaving, CostSaving float64
}

// HeadlineNumbers computes the abstract's three percentages from the
// week-long runs.
func (c Config) HeadlineNumbers() Headline {
	fig16, cost := c.Fig16(), c.CostAnalysis()
	return Headline{
		EnergySaving: cost.EnergySavingFrac,
		CarbonSaving: 1 - fig16.DynamoKg/fig16.BaselineKg,
		CostSaving:   cost.TotalSavingFrac,
	}
}
