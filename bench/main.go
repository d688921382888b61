// Command bench is the repository's end-to-end and per-layer benchmark.
// It drives the public API of each layer from outside — trace → profile →
// core.Live (tick loop, controllers, fluid and event backends) → engine
// KV (through Live.KVStats) → serve.Session and serve.NewHandler over
// loopback HTTP — on one of four workloads, checks the results, and
// prints a JSON line of run metadata followed by a JSON result line.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fluid-week --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 every call into a layer is timed, the spans
// are kept in memory, the per-layer metrics are computed from them, and the
// spans are written as Chrome-trace JSON under .bench_build/trace/.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	seed    uint64
	seconds float64 // measured-phase budget in wall seconds
	trace   bool
	// short shrinks every workload to a smoke size (2 virtual minutes,
	// half-second serve rungs, no set-up time budget); the tests set it.
	short bool
	// ref is the speed kernel timed next to the measured work; execute
	// provides one.
	ref *speedRef
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	// problems lists every correctness failure found (failed operations,
	// invariant violations, digest mismatches, an invalid generator).
	problems []string
	endToEnd map[string]float64
	perLayer map[string]float64
	// digest identifies the simulated outcome for the seed, so a refactor
	// can show identical behaviour.
	digest string
	// diag holds diagnostics that are printed but not gated.
	diag map[string]any
	// stepJobs is the event backend's worker count the workload ran with
	// (0: serial stepping, the default; fluid fidelity ignores it).
	stepJobs int
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, perLayer: map[string]float64{}, diag: map[string]any{}}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "wall seconds the measured phase runs for")
	traced := fs.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need -workload one of %v, -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: float64(*seconds), trace: *traced == 1}
	return execute(w, cfg, stdout, stderr)
}

// execute runs one workload and prints its result; it returns the exit
// code.
func execute(w workloadDef, cfg config, stdout, stderr io.Writer) int {
	if cfg.ref == nil {
		cfg.ref = newSpeedRef()
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	rep, err := w.run(cfg, rec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	rep.diag["peak_rss_mb"] = peakRSSMB()

	wanted, metrics := endToEnd, rep.endToEnd
	if cfg.trace {
		wanted, metrics = perLayer, rep.perLayer
		for _, m := range perLayer {
			if _, ok := metrics[m.Name]; !ok {
				metrics[m.Name] = 0 // a layer this workload does not exercise
			}
		}
		path := filepath.Join(".bench_build", "trace", w.Name+".json")
		dropped, err := rec.writeChrome(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing span file: %v\n", err)
			return 1
		}
		rep.diag["span_file"] = path
		rep.diag["spans_not_written"] = dropped
	}
	out := map[string]any{}
	for _, m := range wanted {
		v, ok := metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", w.Name, m.Name)
			return 1
		}
		if m.Bound > 0 && v <= 0 {
			rep.fail("end-to-end metric %s is %g; it must be positive", m.Name, v)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		fmt.Fprintf(stderr, "%-28s %14.6g %s\n", m.Name, v, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "bench: FAIL: %s\n", p)
	}

	info := map[string]any{
		"workload":      w.Name,
		"meta":          runMeta(cfg, rep),
		"result_digest": rep.digest,
		"diagnostics":   rep.diag,
	}
	if cfg.trace {
		info["end_to_end_traced"] = rep.endToEnd
	}
	correct := len(rep.problems) == 0
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := enc.Encode(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	}); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runMeta describes the host and build a result was measured on.
func runMeta(cfg config, rep *report) map[string]any {
	m := map[string]any{
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"step_jobs":  rep.stepJobs,
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"vcs":        "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["vcs"] = s.Value
			case "vcs.modified":
				m["vcs_modified"] = s.Value == "true"
			}
		}
	}
	if cfg.trace {
		m["trace_overhead_frac"] = rep.perLayer["bench.trace_overhead_frac"]
	}
	return m
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size in MB (getrusage
// reports kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupBudget is how long set-up repeats for: set-up runs on fresh state
// at least minSetups times and until this much wall time has passed (smoke
// runs skip the budget), and setup_s is the median. setupSamples speed
// kernel samples before and after each set-up rescale it to the
// reference speed.
const (
	setupBudget  = time.Second
	minSetups    = 3
	setupSamples = 25
)

// repeatSetup runs setup on fresh state until the budget is spent and
// returns the median rescaled duration in seconds. Every repetition but
// the last is torn down by its returned release function (nil for none);
// the last one's state stays with the caller.
func repeatSetup(cfg config, setup func() (release func(), err error)) (float64, error) {
	var times []float64
	var release func()
	start := time.Now()
	for len(times) < minSetups || (!cfg.short && time.Since(start) < setupBudget) {
		if release != nil {
			release()
		}
		debug.FreeOSMemory()
		meter := speedMeter{ref: cfg.ref}
		meter.add(setupSamples)
		t0 := time.Now()
		var err error
		if release, err = setup(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		meter.add(setupSamples)
		times = append(times, d.Seconds()*meter.factor())
	}
	return median(times), nil
}
