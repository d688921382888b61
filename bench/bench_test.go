package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the registry %d", len(b.Workloads), len(workloads))
	}
	for i := 0; i < min(len(b.Workloads), len(workloads)); i++ {
		if got, want := b.Workloads[i], workloads[i]; got.Name != want.Name || got.Why != want.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the registry %q (%q)", i, got.Name, got.Why, want.Name, want.Why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nregistry       %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nregistry       %+v", b.PerLayer, perLayer)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(7, serveRates, time.Second)
	if !reflect.DeepEqual(a, schedule(7, serveRates, time.Second)) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, serveRates, time.Second)) {
		t.Fatal("two seeds gave the same schedule")
	}
	for i, x := range a {
		if x.at < 0 || x.at >= time.Second || (i > 0 && a[i-1].rung == x.rung && a[i-1].at > x.at) {
			t.Fatalf("arrival %d at %v on rung %d is out of order or outside the rung", i, x.at, x.rung)
		}
	}
}

// TestSpeedRefAllocatesNothing keeps the speed kernel's time independent
// of the collector, which the program under test drives.
func TestSpeedRefAllocatesNothing(t *testing.T) {
	r := newSpeedRef()
	if n := testing.AllocsPerRun(100, func() { r.sample() }); n != 0 {
		t.Fatalf("a kernel sample allocates %v objects", n)
	}
}

// TestSmoke runs every batch workload at smoke size, untraced and traced;
// the two result digests must agree. The serve workload's smoke is in
// serve_smoke_test.go.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced run writes its span file under the working directory
	for _, w := range workloads {
		if w.Name == "serve-http" {
			continue
		}
		untraced, traced := smoke(t, w, false), smoke(t, w, true)
		if untraced != traced {
			t.Errorf("%s: untraced digest %s, traced %s", w.Name, untraced, traced)
		}
	}
}

// smoke runs one workload at smoke size and returns its result digest.
// The run must be correct with no failed operation and report every
// metric.
func smoke(t *testing.T, w workloadDef, traced bool) string {
	t.Helper()
	var out, errOut bytes.Buffer
	code := execute(w, config{seed: 3, seconds: 1, trace: traced, short: true}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 || len(lines) != 2 {
		t.Fatalf("%s trace=%v: exit %d\n%s", w.Name, traced, code, errOut.String())
	}
	var info struct {
		Digest string `json:"result_digest"`
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[0]), &info); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
	}
	return info.Digest
}
