package engine

import (
	"testing"

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
// (tracked in BENCH_<n>.json via cmd/benchjson).
func BenchmarkEngineSoak(b *testing.B) {
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
		eng := New(cfg, clock)
		rng := simclock.NewRNG(7)
		t := 0.0
		for {
			t += rng.Exp(lambda)
			if t >= dur {
				break
			}
			at := simclock.Time(t)
			clock.At(at, func() {
				eng.SubmitCopy(workload.Request{Arrival: at, InputTokens: in, OutputTokens: out})
			})
		}
		clock.Run()
		completed, tokens = eng.Completed, eng.TokensOut
		if completed == 0 {
			b.Fatal("soak completed nothing")
		}
	}
	b.ReportMetric(float64(completed), "completed-reqs")
	b.ReportMetric(float64(tokens), "tokens-out")
}
