package engine

import (
	"math"
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

func cfg70(tp model.TP, f gpu.Freq) perfmodel.Config {
	return perfmodel.Config{Model: model.Llama2_70B, TP: tp, Freq: f}
}

func TestSingleRequestLifecycle(t *testing.T) {
	clock := simclock.New()
	eng := New(cfg70(model.TP8, gpu.MaxFreq), clock)
	req := &workload.Request{Arrival: 0, InputTokens: 512, OutputTokens: 10}
	eng.Submit(req)
	clock.Run()
	if eng.Completed != 1 {
		t.Fatalf("completed = %d, want 1", eng.Completed)
	}
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
	eng := New(cfg70(model.TP4, 1600), clock)
	rng := simclock.NewRNG(5)
	total := 0
	for i := 0; i < 50; i++ {
		out := rng.Intn(150) + 2
		total += out
		at := simclock.Time(float64(i) * 0.2)
		clock.At(at, func() {
			eng.Submit(&workload.Request{Arrival: at, InputTokens: 128 + rng.Intn(512), OutputTokens: out})
		})
	}
	clock.Run()
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
	eng := New(cfg70(model.TP8, gpu.MaxFreq), clock)
	for i := 0; i < 20; i++ {
		at := simclock.Time(float64(i) * 0.1)
		clock.At(at, func() {
			eng.Submit(&workload.Request{Arrival: at, InputTokens: 256, OutputTokens: 20})
		})
	}
	clock.Run()
	if eng.kvTokens != 0 {
		t.Errorf("KV tokens leaked: %v", eng.kvTokens)
	}
}

func TestEnergyAccrues(t *testing.T) {
	clock := simclock.New()
	eng := New(cfg70(model.TP8, gpu.MaxFreq), clock)
	eng.Submit(&workload.Request{Arrival: 0, InputTokens: 512, OutputTokens: 100})
	clock.Run()
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
	eng := New(cfg70(model.TP8, gpu.MaxFreq), clock)
	var lat pooledSink
	eng.SetSink(&lat)
	eng.Submit(&workload.Request{Arrival: 0, InputTokens: 128, OutputTokens: 50})
	clock.Run()
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
	eng := New(cfg70(model.TP8, gpu.MaxFreq), clock)
	eng.Freeze(5)
	req := &workload.Request{Arrival: 0, InputTokens: 128, OutputTokens: 2}
	eng.Submit(req)
	clock.Run()
	if req.FirstToken < 5 {
		t.Errorf("first token at %v, want after freeze end 5", req.FirstToken)
	}
}

func TestOnComplete(t *testing.T) {
	clock := simclock.New()
	eng := New(cfg70(model.TP8, gpu.MaxFreq), clock)
	done := 0
	eng.SetOnComplete(func(*workload.Request) { done++ })
	for i := 0; i < 3; i++ {
		eng.Submit(&workload.Request{InputTokens: 64, OutputTokens: 5})
	}
	clock.Run()
	if done != 3 {
		t.Errorf("onComplete fired %d times, want 3", done)
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
	eng := New(cfg, clock)
	var lat pooledSink
	eng.SetSink(&lat)
	// A decoding victim first, then a long-prompt arrival.
	victim := &workload.Request{Arrival: 0, InputTokens: 64, OutputTokens: 400}
	eng.Submit(victim)
	clock.At(1, func() {
		eng.Submit(&workload.Request{Arrival: 1, InputTokens: 3072, OutputTokens: 5})
	})
	clock.Run()
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
	eng := New(cfg70(model.TP8, gpu.MaxFreq), clock)
	var lat pooledSink
	eng.SetSink(&lat)
	for i := 0; i < 8; i++ {
		eng.SubmitCopy(workload.Request{InputTokens: 256, OutputTokens: 1 << 20})
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

func TestMathSanity(t *testing.T) {
	if math.IsNaN(cfg70(model.TP8, 800).IsolatedTBT(100)) {
		t.Fatal("NaN iteration time")
	}
}
