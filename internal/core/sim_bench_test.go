package core

import (
	"fmt"
	"testing"

	"dynamollm/internal/profile"
	"dynamollm/internal/trace"
)

// benchRun drives one system over a 30-minute high-load window. The
// -benchmem numbers for these benchmarks are the tick loop's steady-state
// cost: everything outside the loop (profile building, trace generation)
// is shared across iterations or excluded by ResetTimer.
func benchRun(b *testing.B, system string) {
	b.Helper()
	repo := profile.NewRepository(nil)
	tr := trace.OpenSourceHour(45, 11).Window(0, 1800)
	opts, ok := SystemByName(system)
	if !ok {
		b.Fatalf("unknown system %q", system)
	}
	opts.Seed = 7
	opts.WarmLoad = warmConv
	// Build profiles and caches outside the measurement.
	RunWithRepo(tr, opts, repo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunWithRepo(tr, opts, repo)
		if res.Requests == 0 {
			b.Fatal("empty run")
		}
	}
}

func BenchmarkTickLoopSinglePool(b *testing.B) { benchRun(b, "singlepool") }

func BenchmarkTickLoopDynamoLLM(b *testing.B) { benchRun(b, "dynamollm") }

// BenchmarkTickLoopRetry measures the tick loop with the frontend retry
// path hot: server failures mid-window squash in-flight work, which
// re-enters through the retry queue and is served after recovery. Event
// fidelity, because only engine-held requests are individually killed
// and readmitted (the fluid model resolves outage backlog in aggregate).
func BenchmarkTickLoopRetry(b *testing.B) {
	repo := profile.NewRepository(nil)
	tr := trace.OpenSourceHour(45, 11).Window(0, 900)
	opts, _ := SystemByName("dynamollm")
	opts.Seed = 7
	opts.Fidelity = FidelityEvent
	opts.WarmLoad = warmConv
	hook := func() TickHook {
		return &testHook{events: []hookEvent{
			{at: 200, do: func(ctl *Controls) { ctl.FailServers(2) }},
			{at: 400, do: func(ctl *Controls) { ctl.RecoverServers(2) }},
			{at: 600, do: func(ctl *Controls) { ctl.FailServers(2) }},
			{at: 700, do: func(ctl *Controls) { ctl.RecoverServers(2) }},
		}}
	}
	opts.Hook = hook()
	if res := RunWithRepo(tr, opts, repo); res.Retried == 0 {
		b.Fatal("retry path not exercised")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Hook = hook() // hooks carry cursor state: fresh per run
		res := RunWithRepo(tr, opts, repo)
		if res.Requests == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkEventFleet measures a 20-server (TP8, so 20-engine) event-mode
// fleet over a 10-minute high-load window, stepped with 1..8 workers.
// Engine stepping takes about three quarters of the serial run's CPU and
// the serial merge about an eighth, so ns/op across the sub-benchmarks
// is the parallel-stepping speedup curve, capped by that serial share;
// on a single-core host all rungs collapse to the serial cost (minus
// pool overhead).
func BenchmarkEventFleet(b *testing.B) {
	repo := profile.NewRepository(nil)
	tr := trace.OpenSourceHour(45, 11).Window(0, 600)
	mk := func(jobs int) Options {
		opts := preset("singlepool")
		opts.Seed = 7
		opts.WarmLoad = warmConv
		opts.Fidelity = FidelityEvent
		opts.Servers = 20
		opts.StepJobs = jobs
		return opts
	}
	// Build profiles and caches outside the measurement.
	RunWithRepo(tr, mk(1), repo)
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			opts := mk(jobs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := RunWithRepo(tr, opts, repo)
				if res.Requests == 0 {
					b.Fatal("empty run")
				}
			}
		})
	}
}
