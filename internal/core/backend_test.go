package core

import (
	"math"
	"testing"

	"dynamollm/internal/engine"
	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// mergeOnlyBackend is an event backend with just enough run state for
// merge to fold latency buffers into per-class distributions.
func mergeOnlyBackend(engines ...*instEngine) *eventBackend {
	res := &Result{}
	for i := range res.ClassTTFT {
		res.ClassTTFT[i] = metrics.NewDist()
		res.ClassTBT[i] = metrics.NewDist()
	}
	return &eventBackend{sm: &simulation{res: res}, engines: engines}
}

// observed is one latency report as an engine makes it: n equal samples.
type observed struct {
	cls workload.Class
	tbt bool
	v   float64
	n   int
}

// TestLatencyRunsReplayPerSample: merge's AddN replay of the buffered
// reports, across several merges, leaves every per-class distribution ==
// to feeding it each sample with Add, in an order unrelated to the
// engines' (reversed here). The streams interleave engines, classes and
// kinds, share values across classes, and carry +0 next to -0.
func TestLatencyRunsReplayPerSample(t *testing.T) {
	b := mergeOnlyBackend(&instEngine{}, nil, &instEngine{}, &instEngine{})
	var want [2][workload.NumClasses]metrics.Dist
	vals := []float64{0, math.Copysign(0, -1), 0.021, 0.0211, 0.35, 2.5}
	r := simclock.NewRNG(11)
	for round := 0; round < 30; round++ {
		var all []observed
		for i := 0; i < 3000; i++ {
			ie := b.engines[r.Intn(len(b.engines))]
			if ie == nil {
				continue
			}
			o := observed{cls: workload.Class(r.Intn(3) * 4), tbt: r.Intn(4) > 0, v: vals[r.Intn(len(vals))], n: 1}
			if r.Intn(8) == 0 {
				o.v = r.Exp(10)
			}
			if o.tbt {
				o.n = 1 + r.Intn(64)
				ie.ObserveTBT(o.cls, o.v, o.n)
			} else {
				ie.ObserveTTFT(o.cls, o.v)
			}
			all = append(all, o)
		}
		for i := len(all) - 1; i >= 0; i-- {
			o := all[i]
			k := 0
			if o.tbt {
				k = 1
			}
			for range o.n {
				want[k][o.cls].Add(o.v)
			}
		}
		b.merge()
		for c := range workload.NumClasses {
			for k, got := range []*metrics.Dist{b.sm.res.ClassTTFT[c], b.sm.res.ClassTBT[c]} {
				w := &want[k][c]
				if *got != *w || math.Float64bits(got.Mean()) != math.Float64bits(w.Mean()) {
					t.Fatalf("round %d class %v kind %d: merged Dist differs from per-sample Add (n %d vs %d, mean %v vs %v)",
						round, workload.Class(c), k, got.N(), w.N(), got.Mean(), w.Mean())
				}
			}
		}
	}
}

// iterSink is an instEngine's Sink that also records the instants at
// which tokens are produced: one per engine iteration.
type iterSink struct {
	*instEngine
	iters map[simclock.Time]bool
}

func (s iterSink) Token(_ *workload.Request, _ int, now simclock.Time) { s.iters[now] = true }

// TestSteadyDecodeOneRecordPerIteration: once a single-class batch is
// decoding, every sequence is in the iteration's steady cohort, so the
// engine reports one TBT record per iteration, whose n is the batch
// size, not one per token.
func TestSteadyDecodeOneRecordPerIteration(t *testing.T) {
	clk := simclock.New()
	ie := &instEngine{clock: clk}
	iters := map[simclock.Time]bool{}
	ie.eng = engine.New(perfmodel.Config{Model: model.Llama2_70B, TP: model.TP8, Freq: gpu.MaxFreq}, engine.KVConfig{}, clk, iterSink{ie, iters})
	const seqs = 32
	for i := range seqs {
		// Tagged, so every token reaches iterSink.Token.
		ie.eng.Submit(workload.Request{ID: uint64(i + 1), Tag: uint64(i + 1), InputTokens: 256, OutputTokens: 1000})
	}
	b := mergeOnlyBackend(ie)

	clk.RunUntil(5) // every prompt prefilled, the batch decoding
	b.merge()
	clear(iters)
	tokens := ie.eng.TokensOut
	clk.RunUntil(15)
	tokens = ie.eng.TokensOut - tokens

	if len(iters) == 0 || tokens != seqs*len(iters) {
		t.Fatalf("%d tokens over %d iterations, want a steady %d-sequence batch", tokens, len(iters), seqs)
	}
	sum := 0
	for _, ls := range ie.lats {
		if !ls.tbt {
			t.Fatalf("TTFT record %+v in a decode-only window", ls)
		}
		sum += ls.n
	}
	if sum != tokens {
		t.Fatalf("records hold %d samples, want one per token (%d)", sum, tokens)
	}
	if len(ie.lats) != len(iters) {
		t.Errorf("%d latency records over %d iterations, want one per iteration", len(ie.lats), len(iters))
	}
}

// drainBuffers runs a KV-pressured event session whose horizon falls on
// a backlog of tagged requests (tagged, as serve injects them, so token
// events are buffered too) and reports the largest lats/toks/dones
// capacity any engine grew during Finish, the largest engine KV pool in
// blocks, and how many token events the drain produced.
func drainBuffers(t *testing.T, backlog int) (caps [3]int, kvBlocks, tailTokens int) {
	t.Helper()
	r, _ := fixtures(t)
	opts := liveOpts(FidelityEvent)
	opts.KVBlockTokens = 16
	opts.KVCapacityFactor = 0.005
	obs := &tokenObserver{}
	opts.Observer = obs
	live := NewLive(nil, opts, r)
	live.AdvanceTo(30)
	for i := range backlog {
		if _, err := live.Inject(trace.Entry{At: 31, Tag: uint64(i + 1), InputTokens: 256, OutputTokens: 512}); err != nil {
			t.Fatal(err)
		}
	}
	live.AdvanceTo(35)
	b := live.sm.backend.(*eventBackend)
	// The tick path's merges leave the buffers empty; drop their backing
	// arrays so the capacities below are what Finish alone grew.
	for _, ie := range b.engines {
		if ie != nil {
			ie.lats, ie.toks, ie.dones = nil, nil, nil
			_, c := ie.eng.KVUsage()
			kvBlocks = max(kvBlocks, c)
		}
	}
	before := obs.tokens
	res := live.Finish()
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for _, ie := range b.engines {
		if ie != nil {
			caps[0] = max(caps[0], cap(ie.lats))
			caps[1] = max(caps[1], cap(ie.toks))
			caps[2] = max(caps[2], cap(ie.dones))
		}
	}
	return caps, kvBlocks, obs.tokens - before
}

// TestFinishDrainBuffersBounded: Finish merges after every clock event,
// so an engine's drain buffers hold at most one event's output — one
// token, one completion and two latency records per resident sequence,
// doubled for append's growth slack — however long the post-horizon
// tail is. A 4x larger backlog leaves the bound unchanged.
func TestFinishDrainBuffersBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	small, kvBlocks, smallTail := drainBuffers(t, 300)
	large, _, largeTail := drainBuffers(t, 1200)
	// A sequence holds at least its 256-token prompt: 16 blocks.
	resident := kvBlocks / 16
	limit := [3]int{2 * 2 * resident, 2 * resident, 2 * resident}
	if largeTail < 4*smallTail || smallTail < 100*limit[1] {
		t.Fatalf("drain tails %d and %d token events, want a long tail growing at least 4x", smallTail, largeTail)
	}
	for _, c := range []struct {
		backlog int
		caps    [3]int
	}{{300, small}, {1200, large}} {
		for i, name := range []string{"lats", "toks", "dones"} {
			if c.caps[i] > limit[i] {
				t.Errorf("backlog %d: an engine's %s grew to cap %d during Finish, want <= %d (one event's output for %d resident sequences)",
					c.backlog, name, c.caps[i], limit[i], resident)
			}
		}
	}
}
