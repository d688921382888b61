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
		args = allNames()
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

// allNames is the experiment set "all" expands to (the paper's evaluation
// plus the scenario sweep).
func allNames() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"cost", "headline", "scenarios",
	}
}

// names lists every accepted experiment: the "all" set plus the fidelity
// cross-validation (runs its own fluid+event grid), the chaos sweep
// (fault grid, robustness-focused), and the KV sweep (event-fidelity
// cache dynamics), all kept out of "all".
func names() []string {
	return append(allNames(), "fidelity", "chaos", "kv")
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
	switch name {
	case "table1":
		return expt.RenderTableI(expt.TableI()), nil
	case "table2":
		return expt.RenderTableII(expt.TableII()), nil
	case "table3":
		return expt.RenderTableIII(expt.TableIII()), nil
	case "table4":
		return expt.RenderTableIV(), nil
	case "table5":
		return expt.RenderTableV(), nil
	case "table6":
		return expt.RenderTableVI(), nil
	case "fig1":
		return expt.RenderFig1(cfg.Fig1()), nil
	case "fig2":
		return expt.RenderFig2Series(cfg.Fig2()), nil
	case "fig3":
		return expt.RenderFig3(expt.Fig3()), nil
	case "fig6":
		hour := cfg.ClusterHour()
		return expt.RenderSystems(hour) + expt.RenderFig6Breakdown(hour), nil
	case "fig7", "fig8":
		return expt.RenderSystems(cfg.ClusterHour()), nil
	case "fig9":
		return expt.RenderFig9(cfg.ClusterHour()), nil
	case "fig10":
		return expt.RenderFig10(cfg.ClusterHour()), nil
	case "fig11":
		return expt.RenderFig11(cfg.Fig11()), nil
	case "fig12":
		return expt.RenderFig12(cfg.Fig12()), nil
	case "fig13":
		return expt.RenderFig13(cfg.Fig13()), nil
	case "fig14":
		return expt.RenderFig14(cfg.Fig14()), nil
	case "fig15":
		return expt.RenderFig15(cfg.Fig15()), nil
	case "fig16":
		return expt.RenderFig16(cfg.Fig16()), nil
	case "cost":
		return expt.RenderCost(cfg.CostAnalysis()), nil
	case "headline":
		return expt.RenderHeadline(cfg.HeadlineNumbers()), nil
	case "scenarios":
		rs, err := cfg.ScenarioSweep()
		if err != nil {
			return "", err
		}
		return expt.RenderScenarioSweep(rs), nil
	case "chaos":
		ps, err := cfg.ChaosSweep()
		if err != nil {
			return "", err
		}
		return expt.RenderChaos(ps), nil
	case "kv":
		ps, err := cfg.KVSweep()
		if err != nil {
			return "", err
		}
		return expt.RenderKV(ps), nil
	case "fidelity":
		return expt.RenderFidelity(cfg.FidelityCompare()), nil
	}
	return "", fmt.Errorf("unknown experiment %q (want one of %v)", name, names())
}
