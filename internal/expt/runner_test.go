package expt

import (
	"sync"
	"sync/atomic"
	"testing"

	"dynamollm/internal/core"
	"dynamollm/internal/trace"
)

func TestRunnerDoRunsEveryIndexOnce(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 8, 100} {
		var counts [57]atomic.Int32
		Runner{Jobs: jobs}.Do(len(counts), func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("Jobs=%d: fn(%d) ran %d times, want 1", jobs, i, got)
			}
		}
	}
}

func TestRunnerDoBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	Runner{Jobs: jobs}.Do(64, func(i int) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > jobs {
		t.Errorf("peak in-flight = %d, want <= %d", p, jobs)
	}
}

func TestRunnerDoEmpty(t *testing.T) {
	called := false
	Runner{Jobs: 4}.Do(0, func(int) { called = true })
	if called {
		t.Error("fn called for n=0")
	}
}

func TestCollectPreservesIndexOrder(t *testing.T) {
	got := Collect(Runner{Jobs: 8}, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestParallelMatchesSequential is the tentpole guarantee: fanning the
// six-system cluster hour across 8 workers renders byte-identical tables to
// a sequential run with the same seed. Run under -race this also exercises
// the shared profile repository and trace from concurrent simulations.
// Each side gets its own Config, hence its own run memo: copies of one
// Config would share the memo, and the parallel side would only read the
// sequential side's results.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	cfg := func(jobs int) Config {
		c := quickCfg()
		c.PeakRPS = 18
		c.Parallelism = jobs
		return c
	}
	seqRuns := cfg(1).ClusterHour()
	parRuns := cfg(8).ClusterHour()
	for i := range seqRuns {
		if seqRuns[i].Result == parRuns[i].Result {
			t.Fatalf("%s: both sides returned the same *core.Result; the parallel run was not simulated", seqRuns[i].Name)
		}
	}

	render := func(runs []SystemRun) string {
		return RenderSystems(runs) + RenderFig6Breakdown(runs) +
			RenderFig9(runs) + RenderFig10(runs)
	}
	want := render(seqRuns)
	got := render(parRuns)
	if want == "" {
		t.Fatal("empty sequential render")
	}
	if got != want {
		t.Errorf("parallel render differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestWeekRunsSimulatedOnce: Fig. 16, the cost analysis and the headline
// read Fig. 14's Conversation runs instead of simulating them again, and
// Figs. 1 and 2 share one summary of each week; every memoized output
// matches what a cold Config computes.
func TestWeekRunsSimulatedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long cluster simulations")
	}
	cold := func() Config {
		c := quickCfg()
		c.PeakRPS = 12
		return c
	}
	c := cold()
	rows := c.Fig14()
	if rows[0].Service != trace.Conversation {
		t.Fatalf("first Fig. 14 row is %v, want Conversation", rows[0].Service)
	}
	fig14 := map[string]*core.Result{}
	for _, run := range rows[0].Systems {
		fig14[run.Name] = run.Result
	}
	// Every simulation fetches its profile once, so an unchanged lookup
	// count means nothing below simulated anything.
	lookups := c.Repo.Hits + c.Repo.Misses
	fig16, cost, head := c.Fig16(), c.CostAnalysis(), c.HeadlineNumbers()
	if n := c.Repo.Hits + c.Repo.Misses; n != lookups {
		t.Errorf("fig16/cost/headline ran %d simulations after fig14, want 0", n-lookups)
	}
	if fig16.Baseline != fig14["singlepool"] || fig16.Dynamo != fig14["dynamollm"] {
		t.Error("Fig16 did not return Fig14's Conversation results")
	}
	if got, want := RenderFig16(fig16), RenderFig16(cold().Fig16()); got != want {
		t.Errorf("memoized fig16 differs from a cold run:\n%s\nvs\n%s", got, want)
	}
	if got, want := RenderCost(cost), RenderCost(cold().CostAnalysis()); got != want {
		t.Errorf("memoized cost differs from a cold run:\n%s\nvs\n%s", got, want)
	}
	if got, want := RenderHeadline(head), RenderHeadline(cold().HeadlineNumbers()); got != want {
		t.Errorf("memoized headline differs from a cold run:\n%s\nvs\n%s", got, want)
	}

	c.Fig1()
	if got, want := RenderFig2Series(c.Fig2()), RenderFig2Series(cold().Fig2()); got != want {
		t.Errorf("fig2 after fig1 differs from a cold run:\n%s\nvs\n%s", got, want)
	}
	if got, want := RenderFig1(c.Fig1()), RenderFig1(cold().Fig1()); got != want {
		t.Errorf("memoized fig1 differs from a cold run:\n%s\nvs\n%s", got, want)
	}
}
