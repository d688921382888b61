package engine

import (
	"fmt"
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// BenchmarkEngineSoak drives a sustained Poisson load through one engine —
// the steady-state shape of an event-fidelity cluster run. With pooled
// seqStates, reused per-iteration scratch and a by-value clock agenda,
// the surviving allocations are the per-arrival submission closures, so
// allocs/op grows with the request count, not with tokens produced
// (tracked in BENCH_<n>.json via cmd/benchjson). Its sink is nil, so it
// times the engine alone.
func BenchmarkEngineSoak(b *testing.B) { soak(b, nil) }

// BenchmarkEngineSoakSink is the soak with a sink that takes every report
// through an interface call, as the cluster's event backend always does,
// so the gate times the reporting path too.
func BenchmarkEngineSoakSink(b *testing.B) {
	var s countingSink
	soak(b, &s)
	b.ReportMetric(float64(s.tbtReports)/float64(b.N), "tbt-reports")
}

// BenchmarkEngineDecodeBatch times one steady decode iteration (its start
// and end events, ns/iter) at batch 8 and at batch 256, reporting to a
// counting sink. Nothing joins or leaves, so under token KV the engine
// visits no sequence and the two batch sizes should cost about the same.
// Under block KV (16-token blocks, a pool too large to fill) it also
// visits each sequence once every 16 iterations, when its next token
// needs a new block.
func BenchmarkEngineDecodeBatch(b *testing.B) {
	kvs := []struct {
		name string
		kv   KVConfig
	}{
		{"tokens", KVConfig{}},
		{"blocks", KVConfig{BlockTokens: 16, Blocks: 1 << 40}},
	}
	for _, kv := range kvs {
		for _, batch := range []int{8, 256} {
			b.Run(fmt.Sprintf("kv=%s/batch=%d", kv.name, batch), func(b *testing.B) {
				clock := simclock.New()
				var s countingSink
				eng := New(cfg70(model.TP8, gpu.MaxFreq), kv.kv, clock, &s)
				for i := 0; i < batch; i++ {
					eng.Submit(workload.Request{InputTokens: 64, OutputTokens: 1 << 40})
				}
				for len(eng.active) < batch || eng.iter < 4 {
					clock.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				start := eng.iter
				for eng.iter-start < b.N {
					clock.Step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(eng.iter-start), "ns/iter")
				b.ReportMetric(float64(len(eng.active)), "batch")
			})
		}
	}
}

// countingSink counts what an engine reports, one interface call per
// report, the way the cluster's per-instance sink buffers it.
type countingSink struct{ reports, tbtReports int }

func (s *countingSink) ObserveTTFT(workload.Class, float64)         { s.reports++ }
func (s *countingSink) ObserveTBT(workload.Class, float64, int)     { s.tbtReports++ }
func (s *countingSink) Token(*workload.Request, int, simclock.Time) { s.reports++ }
func (s *countingSink) Done(*workload.Request)                      { s.reports++ }
func (s *countingSink) Reject(*workload.Request)                    { s.reports++ }
func (s *countingSink) Handoff(*workload.Request, int)              { s.reports++ }

// soak runs the sustained load b.N times, reporting to sink.
func soak(b *testing.B, sink Sink) {
	cfg := perfmodel.Config{Model: model.Llama2_70B, TP: model.TP4, Freq: 1600}
	in, out := workload.RepresentativeLengths(workload.MM)
	const (
		lambda = 3.0
		dur    = 120.0
	)
	b.ReportAllocs()
	completed, tokens := 0, 0
	for i := 0; i < b.N; i++ {
		clock := simclock.New()
		eng := New(cfg, KVConfig{}, clock, sink)
		rng := simclock.NewRNG(7)
		t := 0.0
		for {
			t += rng.Exp(lambda)
			if t >= dur {
				break
			}
			at := simclock.Time(t)
			clock.At(at, func() {
				eng.Submit(workload.Request{Arrival: at, InputTokens: in, OutputTokens: out})
			})
		}
		for clock.Step() {
		}
		completed, tokens = eng.Completed, eng.TokensOut
		if completed == 0 {
			b.Fatal("soak completed nothing")
		}
	}
	b.ReportMetric(float64(completed), "completed-reqs")
	b.ReportMetric(float64(tokens), "tokens-out")
}
