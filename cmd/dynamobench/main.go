// Command dynamobench regenerates the tables and figures of the DynamoLLM
// paper's evaluation on the simulated substrate, and runs the scenario
// engine's injected cluster conditions.
//
// Usage:
//
//	dynamobench [flags] <experiment>...
//	dynamobench all
//	dynamobench scenario <name-or-json-file>...
//	dynamobench scenario -list
//
// Experiments: table1 table2 table3 table4 table5 table6
//
//	fig1 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//	fig13 fig14 fig15 fig16 cost headline scenarios fidelity
//
// Each simulation runs once per invocation: fig6..fig10 share one
// six-system cluster hour, fig14, fig16, cost and headline share the
// week runs, and fig1 and fig2 one summary of each week. "scenarios" runs
// the whole built-in scenario library across all six systems, and
// "scenario <name>" runs one: a library name like flashcrowd, or a path
// to a JSON scenario definition. "fidelity", "chaos" and "kv" are kept
// out of "all". Run dynamobench -h for the flags, among them the
// substrate knobs (-fidelity, -disagg, -kv-tier, -swap-policy) that
// apply to every cluster simulation. Each spill tier keeps its fixed
// link speed: 25 GB/s for cpu, 5 GB/s for ssd.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/expt"
	"dynamollm/internal/scenario"
)

func main() {
	// All work happens in realMain so deferred profile writers flush
	// before the process exits, even when an experiment fails.
	os.Exit(realMain())
}

func realMain() int {
	cfg := expt.Default()
	flag.Float64Var(&cfg.PeakRPS, "peak", cfg.PeakRPS, "weekly-peak request rate (req/s) for cluster experiments")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.BoolVar(&cfg.Quick, "quick", false, "shrink long experiments (2-day weeks, thinner load)")
	flag.IntVar(&cfg.Parallelism, "jobs", runtime.NumCPU(), "max concurrent simulations per experiment, and engine-stepping workers per event simulation (output is identical for any value)")
	flag.TextVar(&cfg.Fidelity, "fidelity", cfg.Fidelity, "instance fidelity backend: fluid|event")
	flag.BoolVar(&cfg.Disagg, "disagg", false, "split pools into prefill/decode with a modeled KV handoff (implies -fidelity event)")
	flag.TextVar(&cfg.KVTier, "kv-tier", cfg.KVTier, "KV spill tier below each engine's GPU block pool: none|cpu|ssd (implies -fidelity event; the kv sweep carries its own tier axis)")
	flag.TextVar(&cfg.KVSwapPolicy, "swap-policy", cfg.KVSwapPolicy, "KV swap-vs-recompute policy under a spill tier: auto|always")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dynamobench [flags] <experiment>... | all | scenario <name-or-json-file>...\n\n"+
			"experiments: %v\nscenarios:   %v (or -list for details)\n\nflags:\n",
			names(), scenario.Names())
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return 2
	}
	cfg.StepJobs = cfg.Parallelism

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynamobench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dynamobench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dynamobench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dynamobench: %v\n", err)
			}
		}()
	}

	// Scenario mode: run named (or JSON-defined) scenarios through the
	// six systems instead of regenerating paper figures.
	if args[0] == "scenario" {
		return runScenarios(cfg, args[1:])
	}

	if len(args) == 1 && args[0] == "all" {
		args = args[:0]
		for _, e := range experiments {
			if e.all {
				args = append(args, e.name)
			}
		}
	}

	for _, name := range args {
		start := time.Now()
		out, err := run(cfg, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynamobench: %v\n", err)
			return 1
		}
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// experiment is one accepted experiment name: whether "all" runs it,
// and how it renders.
type experiment struct {
	name   string
	all    bool
	render func(expt.Config) (string, error)
}

// text adapts a renderer that cannot fail.
func text(f func(expt.Config) string) func(expt.Config) (string, error) {
	return func(c expt.Config) (string, error) { return f(c), nil }
}

// sweep adapts a sweep that can fail, rendering its points.
func sweep[T any](run func(expt.Config) (T, error), render func(T) string) func(expt.Config) (string, error) {
	return func(c expt.Config) (string, error) {
		v, err := run(c)
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

// experiments declares every experiment, in usage order. "all" is the
// paper's evaluation plus the scenario sweep; the fidelity
// cross-validation (its own fluid+event grid), the chaos sweep (fault
// grid, robustness-focused) and the KV sweep (event-fidelity cache
// dynamics) are kept out of it.
var experiments = []experiment{
	{"table1", true, text(func(expt.Config) string { return expt.RenderTableI(expt.TableI()) })},
	{"table2", true, text(func(expt.Config) string { return expt.RenderTableII(expt.TableII()) })},
	{"table3", true, text(func(expt.Config) string { return expt.RenderTableIII(expt.TableIII()) })},
	{"table4", true, text(func(expt.Config) string { return expt.RenderTableIV() })},
	{"table5", true, text(func(expt.Config) string { return expt.RenderTableV() })},
	{"table6", true, text(func(expt.Config) string { return expt.RenderTableVI() })},
	{"fig1", true, text(func(c expt.Config) string { return expt.RenderFig1(c.Fig1()) })},
	{"fig2", true, text(func(c expt.Config) string { return expt.RenderFig2Series(c.Fig2()) })},
	{"fig3", true, text(func(expt.Config) string { return expt.RenderFig3(expt.Fig3()) })},
	{"fig6", true, text(func(c expt.Config) string {
		hour := c.ClusterHour()
		return expt.RenderSystems(hour) + expt.RenderFig6Breakdown(hour)
	})},
	{"fig7", true, text(func(c expt.Config) string { return expt.RenderSystems(c.ClusterHour()) })},
	{"fig8", true, text(func(c expt.Config) string { return expt.RenderSystems(c.ClusterHour()) })},
	{"fig9", true, text(func(c expt.Config) string { return expt.RenderFig9(c.ClusterHour()) })},
	{"fig10", true, text(func(c expt.Config) string { return expt.RenderFig10(c.ClusterHour()) })},
	{"fig11", true, text(func(c expt.Config) string { return expt.RenderFig11(c.Fig11()) })},
	{"fig12", true, text(func(c expt.Config) string { return expt.RenderFig12(c.Fig12()) })},
	{"fig13", true, text(func(c expt.Config) string { return expt.RenderFig13(c.Fig13()) })},
	{"fig14", true, text(func(c expt.Config) string { return expt.RenderFig14(c.Fig14()) })},
	{"fig15", true, text(func(c expt.Config) string { return expt.RenderFig15(c.Fig15()) })},
	{"fig16", true, text(func(c expt.Config) string { return expt.RenderFig16(c.Fig16()) })},
	{"cost", true, text(func(c expt.Config) string { return expt.RenderCost(c.CostAnalysis()) })},
	{"headline", true, text(func(c expt.Config) string { return expt.RenderHeadline(c.HeadlineNumbers()) })},
	{"scenarios", true, sweep(expt.Config.ScenarioSweep, expt.RenderScenarioSweep)},
	{"fidelity", false, text(func(c expt.Config) string { return expt.RenderFidelity(c.FidelityCompare()) })},
	{"chaos", false, sweep(expt.Config.ChaosSweep, expt.RenderChaos)},
	{"kv", false, sweep(expt.Config.KVSweep, expt.RenderKV)},
}

// names lists every accepted experiment.
func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// runScenarios resolves each argument to a scenario — a built-in library
// name, or a path to a JSON definition — and compares the six systems
// under it. "-list" (or no arguments) prints the library instead.
func runScenarios(cfg expt.Config, args []string) int {
	if len(args) == 0 || args[0] == "-list" || args[0] == "--list" {
		fmt.Println("built-in scenarios:")
		for _, sc := range scenario.Library() {
			fmt.Printf("  %-13s %4.2f days  %-12s %s\n", sc.Name, sc.Days, sc.ServiceName(), sc.Description)
		}
		fmt.Println("\nrun one with: dynamobench scenario <name>   (or a path to a scenario JSON)")
		return 0
	}
	scs := make([]*scenario.Scenario, 0, len(args))
	for _, arg := range args {
		sc, ok := scenario.ByName(arg)
		if !ok {
			if !strings.ContainsAny(arg, "./") {
				fmt.Fprintf(os.Stderr, "dynamobench: unknown scenario %q (want one of %v, or a JSON file path)\n",
					arg, scenario.Names())
				return 2
			}
			var err error
			sc, err = scenario.LoadFile(arg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dynamobench: %v\n", err)
				return 1
			}
		}
		scs = append(scs, sc)
	}
	start := time.Now()
	results, err := cfg.ScenarioRuns(scs, core.SystemNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynamobench: %v\n", err)
		return 1
	}
	for _, r := range results {
		fmt.Println(expt.RenderScenario(r))
	}
	fmt.Fprintf(os.Stderr, "[%d scenario(s) took %v]\n", len(results), time.Since(start).Round(time.Millisecond))
	return 0
}

func run(cfg expt.Config, name string) (string, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.render(cfg)
		}
	}
	return "", fmt.Errorf("unknown experiment %q (want one of %v)", name, names())
}
