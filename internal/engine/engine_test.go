package engine

import (
	"math"
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

func cfg70(tp model.TP, f gpu.Freq) perfmodel.Config {
	return perfmodel.Config{Model: model.Llama2_70B, TP: tp, Freq: f}
}

// recorder is a test Sink that keeps the latency samples (pooled) and a
// copy of every completion and token report.
type recorder struct {
	pooledSink
	done   []workload.Request
	tokens []tokenReport
}

// tokenReport is one Sink.Token call.
type tokenReport struct {
	tag      uint64
	produced int
	at       simclock.Time
}

func (r *recorder) Done(req *workload.Request) { r.done = append(r.done, *req) }

func (r *recorder) Token(req *workload.Request, produced int, now simclock.Time) {
	r.tokens = append(r.tokens, tokenReport{tag: req.Tag, produced: produced, at: now})
}

func TestSingleRequestLifecycle(t *testing.T) {
	clock := simclock.New()
	var rec recorder
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, &rec)
	eng.Submit(workload.Request{Arrival: 0, InputTokens: 512, OutputTokens: 10})
	for clock.Step() {
	}
	if eng.Completed != 1 || len(rec.done) != 1 {
		t.Fatalf("completed = %d, %d reported, want 1", eng.Completed, len(rec.done))
	}
	req := rec.done[0]
	if req.FirstToken <= 0 || req.Finish < req.FirstToken {
		t.Fatalf("timestamps: first=%v finish=%v", req.FirstToken, req.Finish)
	}
	// Isolated TTFT should be close to the analytic prefill time.
	want := cfg70(model.TP8, gpu.MaxFreq).IsolatedPrefill(512)
	if got := req.TTFT(); got < want*0.8 || got > want*2.5 {
		t.Errorf("TTFT = %v, analytic prefill = %v", got, want)
	}
}

func TestTokenConservation(t *testing.T) {
	clock := simclock.New()
	eng := New(cfg70(model.TP4, 1600), KVConfig{}, clock, nil)
	rng := simclock.NewRNG(5)
	total := 0
	for i := 0; i < 50; i++ {
		out := rng.Intn(150) + 2
		total += out
		at := simclock.Time(float64(i) * 0.2)
		clock.At(at, func() {
			eng.Submit(workload.Request{Arrival: at, InputTokens: 128 + rng.Intn(512), OutputTokens: out})
		})
	}
	for clock.Step() {
	}
	if eng.Completed != 50 {
		t.Fatalf("completed = %d, want 50", eng.Completed)
	}
	if eng.TokensOut != total {
		t.Errorf("tokens out = %d, want %d", eng.TokensOut, total)
	}
	if eng.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", eng.QueueLen())
	}
}

func TestKVReleasedAfterCompletion(t *testing.T) {
	clock := simclock.New()
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, nil)
	for i := 0; i < 20; i++ {
		at := simclock.Time(float64(i) * 0.1)
		clock.At(at, func() {
			eng.Submit(workload.Request{Arrival: at, InputTokens: 256, OutputTokens: 20})
		})
	}
	for clock.Step() {
	}
	if eng.kvTokens != 0 {
		t.Errorf("KV tokens leaked: %v", eng.kvTokens)
	}
}

func TestEnergyAccrues(t *testing.T) {
	clock := simclock.New()
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, nil)
	eng.Submit(workload.Request{Arrival: 0, InputTokens: 512, OutputTokens: 100})
	for clock.Step() {
	}
	j := eng.Energy()
	if j <= 0 {
		t.Fatal("no energy recorded")
	}
	// Sanity: energy within [idle, TDP] x elapsed for 8 GPUs.
	elapsed := float64(clock.Now())
	if j > 8*700*elapsed || j < 0 {
		t.Errorf("energy %v J implausible for %v s", j, elapsed)
	}
}

func TestTBTGapsRecorded(t *testing.T) {
	clock := simclock.New()
	var lat pooledSink
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, &lat)
	eng.Submit(workload.Request{Arrival: 0, InputTokens: 128, OutputTokens: 50})
	for clock.Step() {
	}
	if lat.tbt.N() != 49 {
		t.Errorf("TBT gaps = %d, want 49", lat.tbt.N())
	}
	// Gaps near the analytic single-sequence iteration time.
	want := cfg70(model.TP8, gpu.MaxFreq).IsolatedTBT(150)
	if got := lat.tbt.Percentile(50); got < want*0.5 || got > want*2 {
		t.Errorf("median gap = %v, analytic = %v", got, want)
	}
}

func TestFreezeDelaysWork(t *testing.T) {
	clock := simclock.New()
	var rec recorder
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, &rec)
	eng.Freeze(5)
	eng.Submit(workload.Request{Arrival: 0, InputTokens: 128, OutputTokens: 2})
	for clock.Step() {
	}
	if len(rec.done) != 1 || rec.done[0].FirstToken < 5 {
		t.Errorf("completions %+v, want one with its first token after freeze end 5", rec.done)
	}
}

func TestSinkDone(t *testing.T) {
	clock := simclock.New()
	var rec recorder
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, &rec)
	for i := 0; i < 3; i++ {
		eng.Submit(workload.Request{Tag: uint64(i + 1), InputTokens: 64, OutputTokens: 5})
	}
	for clock.Step() {
	}
	if len(rec.done) != 3 {
		t.Fatalf("Done fired %d times, want 3", len(rec.done))
	}
	for i, r := range rec.done {
		if r.Tag != uint64(i+1) || r.Finish < r.FirstToken || r.FirstToken <= 0 {
			t.Errorf("completion %d = %+v, want tag %d with its timestamps set", i, r, i+1)
		}
	}
}

// TestSubmitCopiesRequest: the engine keeps its own copy of a submitted
// request, so mutating the caller's value after Submit changes nothing
// the engine reports.
func TestSubmitCopiesRequest(t *testing.T) {
	run := func(mutate bool) recorder {
		clock := simclock.New()
		var rec recorder
		eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, &rec)
		req := &workload.Request{Tag: 3, Arrival: 0, InputTokens: 300, OutputTokens: 12}
		eng.Submit(*req)
		if mutate {
			*req = workload.Request{Tag: 0, Arrival: 5, InputTokens: 4000, OutputTokens: 1, FirstToken: 1, Finish: 2}
		}
		for clock.Step() {
		}
		return rec
	}
	want, got := run(false), run(true)
	if len(want.done) != 1 || len(got.done) != 1 || got.done[0] != want.done[0] {
		t.Fatalf("completions after mutation %+v, want %+v", got.done, want.done)
	}
	if len(got.tokens) != len(want.tokens) {
		t.Fatalf("%d token reports after mutation, want %d", len(got.tokens), len(want.tokens))
	}
	for i := range want.tokens {
		if got.tokens[i] != want.tokens[i] {
			t.Fatalf("token report %d = %+v after mutation, want %+v", i, got.tokens[i], want.tokens[i])
		}
	}
	if got.ttft.Mean() != want.ttft.Mean() || got.tbt.N() != want.tbt.N() || got.tbt.Mean() != want.tbt.Mean() {
		t.Errorf("latency samples moved: ttft %v vs %v, tbt n %d vs %d",
			got.ttft.Mean(), want.ttft.Mean(), got.tbt.N(), want.tbt.N())
	}
}

// TestTokenOnlyForTaggedRequests: Sink.Token fires once per output token
// of a tagged request, in production order, and never for an untagged one.
func TestTokenOnlyForTaggedRequests(t *testing.T) {
	clock := simclock.New()
	var rec recorder
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, &rec)
	eng.Submit(workload.Request{InputTokens: 128, OutputTokens: 40})
	eng.Submit(workload.Request{Tag: 5, InputTokens: 128, OutputTokens: 17})
	for clock.Step() {
	}
	if len(rec.done) != 2 {
		t.Fatalf("%d completions, want 2", len(rec.done))
	}
	if len(rec.tokens) != 17 {
		t.Fatalf("%d token reports, want 17 (the tagged request's OutputTokens only)", len(rec.tokens))
	}
	for i, tr := range rec.tokens {
		if tr.tag != 5 || tr.produced != i+1 || (i > 0 && tr.at <= rec.tokens[i-1].at) {
			t.Fatalf("token report %d = %+v, want tag 5, produced %d, strictly later than the last", i, tr, i+1)
		}
	}
}

// TestMeasureCrossValidatesFluidModel: the measured engine and the
// closed-form steady state must agree on power within modeling tolerance at
// a moderate load, and on feasibility at extremes.
func TestMeasureCrossValidatesFluidModel(t *testing.T) {
	cfg := cfg70(model.TP8, 1600)
	in, out := workload.RepresentativeLengths(workload.MM)
	lambda := 3.0
	obs := Measure(cfg, lambda, in, out, 1)
	st := perfmodel.SteadyState(cfg, lambda, in, out)
	if !obs.Feasible || !st.Feasible {
		t.Fatalf("both models should be feasible at lambda=%v (engine=%v fluid=%v)",
			lambda, obs.Feasible, st.Feasible)
	}
	if ratio := obs.Power / st.Power; ratio < 0.6 || ratio > 1.6 {
		t.Errorf("power disagreement: engine %v W vs fluid %v W", obs.Power, st.Power)
	}
	if obs.TBTP99 > st.TBTP99*3 || st.TBTP99 > obs.TBTP99*5 {
		t.Errorf("TBT p99 disagreement: engine %v vs fluid %v", obs.TBTP99, st.TBTP99)
	}
}

func TestMeasureDetectsSaturation(t *testing.T) {
	cfg := cfg70(model.TP2, 800)
	in, out := workload.RepresentativeLengths(workload.MM)
	obs := Measure(cfg, 20, in, out, 1) // far beyond TP2 capacity
	if obs.Feasible {
		t.Error("saturating load reported feasible")
	}
}

func TestMeasureInfeasibleConfig(t *testing.T) {
	cfg := perfmodel.Config{Model: model.Falcon180B, TP: model.TP2, Freq: 1600}
	obs := Measure(cfg, 1, 512, 187, 1)
	if obs.Feasible {
		t.Error("memory-infeasible config reported feasible")
	}
}

// TestFig3FrequencySwitchOverhead reproduces Fig. 3's qualitative result:
// re-setting the frequency on every iteration through the slow nvidia-smi
// path cuts throughput substantially; the resident fast path does not.
func TestFig3FrequencySwitchOverhead(t *testing.T) {
	constRPS, switchRPS := ThroughputConstVsSwitch(workload.MM, false)
	if constRPS <= 0 {
		t.Fatal("no throughput in const mode")
	}
	drop := 1 - switchRPS/constRPS
	if drop < 0.15 {
		t.Errorf("naive per-iteration freq set should cost >15%% throughput, got %.1f%%", drop*100)
	}
	constFast, switchFast := ThroughputConstVsSwitch(workload.MM, true)
	fastDrop := 1 - switchFast/constFast
	if fastDrop > drop/2 {
		t.Errorf("resident path drop %.1f%% should be far below naive %.1f%%", fastDrop*100, drop*100)
	}
}

// TestEngineChunksLongPrompts: a long prompt is prefetched in chunks, so
// another sequence's decode gaps never exceed roughly one chunk iteration.
func TestEngineChunksLongPrompts(t *testing.T) {
	clock := simclock.New()
	cfg := cfg70(model.TP8, gpu.MaxFreq)
	var lat pooledSink
	eng := New(cfg, KVConfig{}, clock, &lat)
	// A decoding victim first, then a long-prompt arrival.
	eng.Submit(workload.Request{Arrival: 0, InputTokens: 64, OutputTokens: 400})
	clock.At(1, func() {
		eng.Submit(workload.Request{Arrival: 1, InputTokens: 3072, OutputTokens: 5})
	})
	for clock.Step() {
	}
	maxGap := lat.tbt.Max()
	chunkIter := cfg.Iter(perfmodel.Batch{
		PrefillTokens: perfmodel.PrefillChunk,
		DecodeSeqs:    2,
		ContextTokens: 4000,
	}).Time
	if maxGap > chunkIter*1.6 {
		t.Errorf("max decode gap %v exceeds chunk iteration %v: prefill not chunked", maxGap, chunkIter)
	}
}

// TestEngineDecodeAllocationFree: once a long-output batch decodes
// steadily, each clock event (an iteration start or end) reuses the
// pooled states, the active batch, the bound callbacks and the clock's
// agenda, so stepping the clock allocates nothing.
func TestEngineDecodeAllocationFree(t *testing.T) {
	clock := simclock.New()
	var lat pooledSink
	eng := New(cfg70(model.TP8, gpu.MaxFreq), KVConfig{}, clock, &lat)
	for i := 0; i < 8; i++ {
		eng.Submit(workload.Request{InputTokens: 256, OutputTokens: 1 << 20})
	}
	for i := 0; i < 200; i++ {
		clock.Step()
	}
	if len(eng.active) != 8 {
		t.Fatalf("batch not decoding steadily: %d active", len(eng.active))
	}
	if allocs := testing.AllocsPerRun(500, func() { clock.Step() }); allocs != 0 {
		t.Fatalf("steady decoding allocates %v per clock event, want 0", allocs)
	}
	if lat.tbt.N() == 0 {
		t.Fatal("no decode gaps observed")
	}
}

// gapSink rebuilds every token gap from the Token times of tagged
// requests and keeps the TBT reports beside them.
type gapSink struct {
	pooledSink
	last                    map[uint64]simclock.Time // tag -> its latest token
	fromTokens, fromReports [workload.NumClasses]metrics.Dist
	reports, reported       int // ObserveTBT calls, and their n summed
	wantGaps                int // OutputTokens-1 summed over completions
}

func (s *gapSink) ObserveTBT(cls workload.Class, v float64, n int) {
	s.fromReports[cls].AddN(v, n)
	s.reports++
	s.reported += n
}

func (s *gapSink) Token(req *workload.Request, produced int, now simclock.Time) {
	if produced > 1 {
		s.fromTokens[req.Class()].Add(float64(now - s.last[req.Tag]))
	}
	s.last[req.Tag] = now
}

func (s *gapSink) Done(req *workload.Request) { s.wantGaps += req.OutputTokens - 1 }

// TestTBTReportsMatchTokenGaps: the per-class TBT reports, a steady
// cohort's gaps folded into one report per class and iteration, carry
// exactly the gaps the tagged requests' Token times show. Mixed classes
// join and leave throughout; a freeze stalls the batch; the block-KV
// cases preempt (recompute, and swap through a spill tier), so gaps
// after joins, stalls and resumes are all reported alone.
func TestTBTReportsMatchTokenGaps(t *testing.T) {
	for _, tc := range []struct {
		name string
		kv   KVConfig
	}{
		{"token-kv", KVConfig{}},
		{"block-kv", KVConfig{BlockTokens: 16, CapacityFactor: 0.05}},
		{"block-kv-tier", KVConfig{BlockTokens: 16, CapacityFactor: 0.05, TierCapacityFactor: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := simclock.New()
			sink := &gapSink{last: map[uint64]simclock.Time{}}
			eng := New(cfg70(model.TP8, gpu.MaxFreq), tc.kv, clock, sink)
			rng := simclock.NewRNG(17)
			reqs := make([]workload.Request, 300)
			at := 0.0
			for i := range reqs {
				at += rng.Exp(4)
				reqs[i] = workload.Request{Tag: uint64(i + 1), Arrival: simclock.Time(at),
					InputTokens: 64 + rng.Intn(4000), OutputTokens: 2 + rng.Intn(600)}
			}
			schedule(clock, eng, reqs)
			clock.At(30, func() { eng.Freeze(31.5) })
			for clock.Step() {
			}
			if eng.Completed != len(reqs) {
				t.Fatalf("completed %d of %d", eng.Completed, len(reqs))
			}
			if sink.reported != sink.wantGaps {
				t.Errorf("TBT reports carry %d gaps, completions need %d", sink.reported, sink.wantGaps)
			}
			if sink.reports >= sink.reported/4 {
				t.Errorf("%d reports for %d gaps: steady cohorts not folded", sink.reports, sink.reported)
			}
			for c := range workload.NumClasses {
				if got, want := &sink.fromReports[c], &sink.fromTokens[c]; *got != *want {
					t.Errorf("class %v: reports give n=%d mean=%v, token gaps n=%d mean=%v",
						workload.Class(c), got.N(), got.Mean(), want.N(), want.Mean())
				}
			}
			if tc.kv.BlockTokens > 0 && eng.KVPreemptions == 0 {
				t.Error("no preemptions: the block-KV case does not exercise resumes")
			}
			if tc.kv.TierCapacityFactor > 0 && eng.KVSwapIns == 0 {
				t.Error("no swap-ins: the tier case does not exercise swaps")
			}
		})
	}
}

func TestMathSanity(t *testing.T) {
	if math.IsNaN(cfg70(model.TP8, 800).IsolatedTBT(100)) {
		t.Fatal("NaN iteration time")
	}
}
