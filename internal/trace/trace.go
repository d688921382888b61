// Package trace generates and loads the inference invocation traces driving
// every experiment. The paper uses production traces of two Azure LLM
// services (Coding and Conversation) plus their open-source 1-hour subset;
// we substitute synthetic traces whose published statistics are reproduced:
//
//   - diurnal load shape: Coding peaks are 2.8x its average and 34.6x its
//     valley (deep nights/weekends); Conversation peaks are 1.7x average
//     and 3.3x valley (§III-B, Fig. 2);
//   - length mix: Conversation skews to short inputs / long outputs (ML
//     dominant); Coding skews the opposite way (Fig. 1);
//   - the request-type mix drifts over time (Fig. 1).
//
// Traces serialize to CSV (timestamp_s,input_tokens,output_tokens) so the
// cmd/tracegen tool can exchange them with other systems, and compose with
// the scenario engine's Modifier transforms (modifier.go) for injected
// load spikes and request-mix shifts.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"dynamollm/internal/order"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// Entry is one trace record: what the production trace contains (§III).
type Entry struct {
	At           simclock.Time
	InputTokens  int
	OutputTokens int

	// Tag is an opaque caller identifier propagated onto the
	// workload.Request the simulator builds from this entry. The live
	// serving session uses it to match injected requests with their
	// completions; generated and CSV-loaded entries leave it zero and it
	// is not serialized.
	Tag uint64

	// PromptGroup marks requests sharing a prompt prefix; it propagates
	// onto workload.Request.PromptGroup for the engine's prefix cache.
	// Like Tag it is assigned in memory (GroupPrompts modifier, live
	// injection) and not serialized to CSV.
	PromptGroup uint64
}

// Class returns the request class of the entry.
func (e Entry) Class() workload.Class {
	return workload.Classify(e.InputTokens, e.OutputTokens)
}

// Trace is a time-ordered list of invocations.
type Trace []Entry

// End returns the instant of the trace's last arrival, its horizon (0
// for an empty trace). Traces are time-ordered, so that is the last
// entry's time.
func (tr Trace) End() simclock.Time {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].At
}

// Service identifies one of the two profiled Azure services.
type Service int

// The two services from the paper.
const (
	Conversation Service = iota
	Coding
)

// String returns the service's lowercase name ("conversation", "coding").
func (s Service) String() string {
	if s == Coding {
		return "coding"
	}
	return "conversation"
}

// Profile holds the statistical shape of a service's workload.
type Profile struct {
	// PeakOverValley pins the diurnal dynamic range.
	PeakOverValley float64
	// WeekendFactor scales weekend load relative to weekdays.
	WeekendFactor float64
	// BaseClassWeights is the midweek average popularity of each class.
	BaseClassWeights [workload.NumClasses]float64
	// DriftAmp is the amplitude of the slow drift in class popularity.
	DriftAmp float64
}

// Profiles for the two services, calibrated to §III-B. Class weights encode
// Fig. 1: Conversation is output-heavy (SL/ML/LL prominent, ML dominant),
// Coding is input-heavy (MS/LS/LM prominent).
var profiles = map[Service]Profile{
	Conversation: {
		PeakOverValley: 3.3,
		WeekendFactor:  0.85,
		BaseClassWeights: [workload.NumClasses]float64{
			// SS SM SL MS MM ML LS LM LL
			8, 12, 10, 6, 12, 22, 5, 10, 15,
		},
		DriftAmp: 0.35,
	},
	Coding: {
		PeakOverValley: 34.6,
		WeekendFactor:  0.25,
		BaseClassWeights: [workload.NumClasses]float64{
			// SS SM SL MS MM ML LS LM LL
			10, 6, 4, 18, 12, 6, 22, 14, 8,
		},
		DriftAmp: 0.3,
	},
}

// ProfileFor returns the calibrated profile of a service.
func ProfileFor(s Service) Profile { return profiles[s] }

// LoadShape returns the normalized load multiplier (peak = 1) at virtual
// time t, where t = 0 is Monday 00:00 local. The shape is a diurnal curve
// with working-hour peaks, night valleys, and weekend scaling, solved so
// that peak/avg and peak/valley match the profile.
func (p Profile) LoadShape(t simclock.Time) float64 {
	hours := float64(t) / 3600
	day := int(math.Mod(hours/24, 7))
	hourOfDay := math.Mod(hours, 24)

	// Diurnal curve: raised cosine peaking at 14:00. The weekly valley
	// (deep night on a weekend) must sit at 1/PeakOverValley, and weekend
	// days are scaled by WeekendFactor, so the weekday night valley is
	// 1/(PeakOverValley*WeekendFactor).
	valley := 1 / (p.PeakOverValley * p.WeekendFactor)
	if valley > 0.9 {
		valley = 0.9
	}
	diurnal := valley + (1-valley)*0.5*(1-math.Cos((hourOfDay-2)/24*2*math.Pi))

	weekend := 1.0
	if day >= 5 {
		weekend = p.WeekendFactor
	}
	return diurnal * weekend
}

// ClassWeights returns the class mix at time t. Popularity drifts slowly
// (period ~31 h so it never aligns with the diurnal cycle), shifting mass
// between input-heavy and output-heavy classes as Fig. 1 shows.
func (p Profile) ClassWeights(t simclock.Time) []float64 {
	hours := float64(t) / 3600
	drift := p.DriftAmp * math.Sin(hours/31*2*math.Pi)
	w := make([]float64, workload.NumClasses)
	for i, base := range p.BaseClassWeights {
		c := workload.Class(i)
		// Output-heavy classes gain when drift > 0, input-heavy when < 0.
		bias := 1.0
		switch {
		case c.Output() == workload.Long:
			bias = 1 + drift
		case c.Input() == workload.Long:
			bias = 1 - drift
		}
		w[i] = base * bias
		if w[i] < 0.1 {
			w[i] = 0.1
		}
	}
	return w
}

// ExpectedRate returns the expected arrival rate (req/s) of one class at
// time t for a service generated at the given peak rate — the ideal load
// curve used to pre-train the load predictor, standing in for the paper's
// historical weeks.
func ExpectedRate(svc Service, peakRPS float64, t simclock.Time, cls workload.Class) float64 {
	p := ProfileFor(svc)
	w := p.ClassWeights(t)
	total := 0.0
	for _, v := range w {
		total += v
	}
	return peakRPS * p.LoadShape(t) * w[cls] / total
}

// --- Generation ---------------------------------------------------------------

// GenConfig controls synthetic trace generation.
type GenConfig struct {
	Service Service
	// Start and Duration select the window of the synthetic week to
	// generate (t = 0 is Monday 00:00): arrivals fall in
	// [Start, Start+Duration) of the week's load shape and class mix, and
	// the trace reports them relative to Start: its t = 0 is Start.
	Start    simclock.Time
	Duration simclock.Duration
	// PeakRPS is the request arrival rate at the weekly peak.
	PeakRPS float64
	// Seed makes generation reproducible.
	Seed uint64
}

// Generate produces a synthetic trace via an inhomogeneous Poisson process
// (thinning) over the service's load shape, with per-arrival lengths drawn
// from the time-varying class mix. Entry times are relative to
// cfg.Start.
func Generate(cfg GenConfig) Trace {
	if cfg.PeakRPS <= 0 {
		panic("trace: PeakRPS must be positive")
	}
	rng := simclock.NewRNG(cfg.Seed)
	lenRNG := rng.Split(1)
	p := ProfileFor(cfg.Service)

	var tr Trace
	t := float64(cfg.Start)
	end := float64(cfg.Start) + cfg.Duration
	for {
		// Thinning: propose at the peak rate, accept with shape prob.
		t += rng.Exp(cfg.PeakRPS)
		if t >= end {
			break
		}
		if rng.Float64() > p.LoadShape(simclock.Time(t)) {
			continue
		}
		cls := workload.Class(rng.Pick(p.ClassWeights(simclock.Time(t))))
		in, out := SampleLengths(lenRNG, cls)
		tr = append(tr, Entry{At: simclock.Time(t) - cfg.Start, InputTokens: in, OutputTokens: out})
	}
	return tr
}

// SampleLengths draws input/output token counts for a class: log-normal
// within the bucket, clamped to the Table IV thresholds.
func SampleLengths(r *simclock.RNG, cls workload.Class) (in, out int) {
	in = sampleBucket(r, cls.Input(), true)
	out = sampleBucket(r, cls.Output(), false)
	return in, out
}

func sampleBucket(r *simclock.RNG, b workload.LengthBucket, isInput bool) int {
	var lo, hi int
	if isInput {
		switch b {
		case workload.Short:
			lo, hi = 32, workload.InputShortMax-1
		case workload.Medium:
			lo, hi = workload.InputShortMax, workload.InputMediumMax-1
		default:
			lo, hi = workload.InputMediumMax, workload.InputLongMax
		}
	} else {
		switch b {
		case workload.Short:
			lo, hi = 8, workload.OutputShortMax-1
		case workload.Medium:
			lo, hi = workload.OutputShortMax, workload.OutputMediumMax-1
		default:
			lo, hi = workload.OutputMediumMax, workload.OutputLongMax
		}
	}
	// Log-normal centred on the geometric middle of the bucket.
	mu := math.Log(math.Sqrt(float64(lo) * float64(hi)))
	v := int(r.LogNorm(mu, 0.5))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// --- Statistics ---------------------------------------------------------------

// Stats summarizes a trace for validation and the Fig. 1/2 experiments.
type Stats struct {
	Requests       int
	TotalTokens    float64
	ClassShare     [workload.NumClasses]float64 // fraction of requests
	PeakOverAvg    float64                      // token-rate dynamic range
	PeakOverValley float64
}

// Summarize computes trace statistics using hourly token-rate buckets.
func (tr Trace) Summarize() Stats {
	var st Stats
	st.Requests = len(tr)
	if len(tr) == 0 {
		return st
	}
	hourly := map[int]float64{}
	for _, e := range tr {
		st.TotalTokens += float64(e.InputTokens + e.OutputTokens)
		st.ClassShare[e.Class()]++
		hourly[int(float64(e.At)/3600)] += float64(e.InputTokens + e.OutputTokens)
	}
	for i := range st.ClassShare {
		st.ClassShare[i] /= float64(st.Requests)
	}
	// Sorted keys: the float sum below rounds differently per visit
	// order, so a bare map range would leak map randomization into
	// PeakOverAvg.
	peak, valley, sum := 0.0, math.Inf(1), 0.0
	for _, k := range order.Keys(hourly) {
		v := hourly[k]
		if v > peak {
			peak = v
		}
		if v < valley {
			valley = v
		}
		sum += v
	}
	avg := sum / float64(len(hourly))
	if avg > 0 {
		st.PeakOverAvg = peak / avg
	}
	if valley > 0 {
		st.PeakOverValley = peak / valley
	}
	return st
}

// TokenRate returns the total token throughput (tokens/s) of the trace
// bucketed at the given width, for the Fig. 2 load curves.
func (tr Trace) TokenRate(bucketSeconds float64) []struct{ Time, TPS float64 } {
	buckets := map[int]float64{}
	for _, e := range tr {
		buckets[int(float64(e.At)/bucketSeconds)] += float64(e.InputTokens + e.OutputTokens)
	}
	keys := order.Keys(buckets)
	out := make([]struct{ Time, TPS float64 }, len(keys))
	for i, k := range keys {
		out[i].Time = float64(k) * bucketSeconds
		out[i].TPS = buckets[k] / bucketSeconds
	}
	return out
}

// Window returns the sub-trace within [from, to), time-shifted so the first
// boundary becomes t=0.
func (tr Trace) Window(from, to simclock.Time) Trace {
	var out Trace
	for _, e := range tr {
		if e.At >= from && e.At < to {
			e.At -= from
			out = append(out, e)
		}
	}
	return out
}

// Scale multiplies the load by keeping each request with probability p
// (thinning preserves the Poisson structure).
func (tr Trace) Scale(p float64, seed uint64) Trace {
	if p >= 1 {
		return tr
	}
	r := simclock.NewRNG(seed)
	var out Trace
	for _, e := range tr {
		if r.Float64() < p {
			out = append(out, e)
		}
	}
	return out
}

// --- CSV I/O -------------------------------------------------------------------

// WriteCSV serializes the trace as "timestamp_s,input_tokens,output_tokens"
// with a header row.
func (tr Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "timestamp_s,input_tokens,output_tokens"); err != nil {
		return err
	}
	for _, e := range tr {
		if _, err := fmt.Fprintf(bw, "%.3f,%d,%d\n", float64(e.At), e.InputTokens, e.OutputTokens); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (header optional) and
// returns it sorted by arrival time. A line is rejected, with its line
// number, unless its timestamp is a finite number of seconds >= 0 and
// both token counts are >= 1: every consumer of a trace assumes
// non-negative arrival times and requests with at least one prompt and
// one output token.
func ReadCSV(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var tr Trace
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || (line == 1 && strings.HasPrefix(text, "timestamp")) {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", line, len(parts))
		}
		at, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp: %v", line, err)
		}
		if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
			return nil, fmt.Errorf("trace: line %d: timestamp %s, want a finite value >= 0", line, parts[0])
		}
		in, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad input tokens: %v", line, err)
		}
		out, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad output tokens: %v", line, err)
		}
		if in < 1 || out < 1 {
			return nil, fmt.Errorf("trace: line %d: token counts %d,%d, want both >= 1", line, in, out)
		}
		tr = append(tr, Entry{At: simclock.Time(at), InputTokens: in, OutputTokens: out})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(tr, func(i, j int) bool { return tr[i].At < tr[j].At })
	return tr, nil
}

// OpenSourceHourStart is the window of the 1-hour open-source trace within
// the synthetic week: Tuesday 09:00, on the morning ramp, so the hour has
// the load dynamics visible in the paper's Figs. 9-10.
const OpenSourceHourStart = simclock.Time((24 + 9) * 3600)

// OpenSourceHour reproduces the paper's 1-hour open-source production trace
// [50]: a morning hour of the Conversation service with rising load.
// peakRPS sets the weekly peak intensity.
func OpenSourceHour(peakRPS float64, seed uint64) Trace {
	return Generate(GenConfig{
		Service:  Conversation,
		Start:    OpenSourceHourStart,
		Duration: simclock.Hour,
		PeakRPS:  peakRPS,
		Seed:     seed,
	})
}
