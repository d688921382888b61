package solver

import (
	"math"
	"sync"
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/workload"
)

var (
	prof     *profile.Profile
	profOnce sync.Once
)

func p70(t *testing.T) *profile.Profile {
	t.Helper()
	profOnce.Do(func() { prof = profile.Build(model.Llama2_70B, 1, nil) })
	return prof
}

func lambdaFor(cls workload.Class, tps float64) float64 {
	in, out := workload.RepresentativeLengths(cls)
	return tps / float64(in+out)
}

func TestSolveCoversLoad(t *testing.T) {
	p := p70(t)
	for _, cls := range []workload.Class{workload.SS, workload.MM, workload.LL} {
		lambda := lambdaFor(cls, 4000)
		a, err := Solve(p, cls, 32, lambda, Options{})
		if err != nil {
			t.Fatalf("%v: %v", cls, err)
		}
		if a.GPUs() > 32 {
			t.Errorf("%v: used %d GPUs > budget", cls, a.GPUs())
		}
		// Capacity: each group's per-instance feasible load from the
		// profile, times its instance count.
		cap := 0.0
		for _, g := range a.Groups {
			if e := p.Entry(profile.Key{Class: cls, TP: g.TP, Freq: g.Freq}); e != nil {
				cap += e.MaxLoad * float64(g.Count)
			}
		}
		if cap < lambda {
			t.Errorf("%v: capacity %v below load %v", cls, cap, lambda)
		}
		if a.PowerW <= 0 || math.IsInf(a.PowerW, 0) {
			t.Errorf("%v: bad power %v", cls, a.PowerW)
		}
	}
}

func TestSolveZeroLoad(t *testing.T) {
	a, err := Solve(p70(t), workload.MM, 16, 0, Options{})
	if err != nil || len(a.Groups) != 0 || a.PowerW != 0 {
		t.Errorf("zero load => empty assignment, got %v, %v", a, err)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := p70(t)
	if _, err := Solve(p, workload.MM, 2, lambdaFor(workload.MM, 50000), Options{}); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	if _, err := Solve(p, workload.MM, 0, 1, Options{}); err == nil {
		t.Error("zero GPU budget should error")
	}
}

// TestSolveOptimalityAgainstBruteForce cross-checks the refined load split
// against an exhaustive grid over single- and two-group assignments.
func TestSolveOptimalityAgainstBruteForce(t *testing.T) {
	p := p70(t)
	cls := workload.MM
	lambda := lambdaFor(cls, 3000)
	const budget = 16
	a, err := Solve(p, cls, budget, lambda, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: every count vector, every ladder freq combo, load
	// split on a fine grid.
	best := math.Inf(1)
	for n2 := 0; n2 <= budget/2; n2++ {
		for n4 := 0; n4*4 <= budget-2*n2; n4++ {
			for n8 := 0; n8*8 <= budget-2*n2-4*n4; n8++ {
				best = math.Min(best, bruteForce(p, cls, lambda, n2, n4, n8))
			}
		}
	}
	if a.PowerW > best*1.02+1e-9 {
		t.Errorf("solver %.2f W worse than brute force %.2f W", a.PowerW, best)
	}
}

func bruteForce(p *profile.Profile, cls workload.Class, lambda float64, n2, n4, n8 int) float64 {
	counts := []struct {
		tp model.TP
		n  int
	}{{model.TP2, n2}, {model.TP4, n4}, {model.TP8, n8}}
	var active []struct {
		tp model.TP
		n  int
	}
	for _, c := range counts {
		if c.n > 0 {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return math.Inf(1)
	}
	const steps = 20
	best := math.Inf(1)
	var rec func(idx int, remaining float64, acc float64)
	rec = func(idx int, remaining float64, acc float64) {
		if acc >= best {
			return
		}
		if idx == len(active)-1 {
			w, ok := groupPower(p, cls, active[idx].tp, active[idx].n, remaining)
			if ok && acc+w < best {
				best = acc + w
			}
			return
		}
		for s := 0; s <= steps; s++ {
			part := remaining * float64(s) / steps
			w, ok := groupPower(p, cls, active[idx].tp, active[idx].n, part)
			if ok {
				rec(idx+1, remaining-part, acc+w)
			}
		}
	}
	rec(0, lambda, 0)
	return best
}

func groupPower(p *profile.Profile, cls workload.Class, tp model.TP, n int, load float64) (float64, bool) {
	loadEach := load / float64(n)
	best := math.Inf(1)
	for _, f := range gpu.Ladder() {
		e := p.Entry(profile.Key{Class: cls, TP: tp, Freq: f})
		if e != nil && e.Feasible(loadEach) {
			if w := e.Power.At(loadEach); w < best {
				best = w
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best * float64(n), true
}

// TestFixedFreqCostsMore: the pool manager's fixed-max-frequency
// simplification can never beat the full optimization.
func TestFixedFreqCostsMore(t *testing.T) {
	p := p70(t)
	lambda := lambdaFor(workload.MM, 3000)
	full, err1 := Solve(p, workload.MM, 16, lambda, Options{})
	fixed, err2 := SolveSharding(p, workload.MM, 16, lambda)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fixed.PowerW < full.PowerW-1e-9 {
		t.Errorf("fixed-frequency solve (%v W) beat full solve (%v W)", fixed.PowerW, full.PowerW)
	}
}

// TestMoreGPUsNeverHurt: enlarging the budget cannot increase optimal power.
func TestMoreGPUsNeverHurt(t *testing.T) {
	p := p70(t)
	lambda := lambdaFor(workload.MM, 2000)
	prev := math.Inf(1)
	for _, budget := range []int{8, 16, 24, 32} {
		a, err := Solve(p, workload.MM, budget, lambda, Options{})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if a.PowerW > prev+1e-9 {
			t.Errorf("budget %d: power %v worse than smaller budget %v", budget, a.PowerW, prev)
		}
		prev = a.PowerW
	}
}

// TestSolvePrefersEfficientShardingForShortRequests: SS load fits TP2
// instances, which the optimizer should prefer over TP8 (Table I).
func TestSolvePrefersEfficientShardingForShortRequests(t *testing.T) {
	p := p70(t)
	a, err := Solve(p, workload.SS, 8, lambdaFor(workload.SS, 2000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range a.Groups {
		if g.TP == model.TP8 {
			t.Errorf("SS assignment uses TP8: %v", a)
		}
	}
}

// TestSolveFrequencyTracksLoad: for short requests (feasible across the
// whole ladder) the optimizer clocks down at low load.
func TestSolveFrequencyTracksLoad(t *testing.T) {
	p := p70(t)
	low, err := Solve(p, workload.SS, 8, lambdaFor(workload.SS, 400), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range low.Groups {
		if g.Freq >= gpu.MaxFreq {
			t.Errorf("low load chose max frequency: %v", low)
		}
	}
}

func TestNodesForPeak(t *testing.T) {
	p := p70(t)
	ml := p.MaxLoadHighestPerf(workload.MM)
	cases := []struct {
		peak float64
		want int
	}{
		{0, 0},
		{ml * 0.5, 1},
		{ml, 1},
		{ml * 1.01, 2},
		{ml * 3.5, 4},
	}
	for _, c := range cases {
		if got := NodesForPeak(p, workload.MM, c.peak); got != c.want {
			t.Errorf("NodesForPeak(%v) = %d, want %d", c.peak, got, c.want)
		}
	}
}

func TestAssignmentAccessors(t *testing.T) {
	a := Assignment{Groups: []Group{
		{TP: model.TP2, Count: 3},
		{TP: model.TP8, Count: 1},
	}}
	if a.GPUs() != 14 {
		t.Errorf("GPUs = %d, want 14", a.GPUs())
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func TestSolveCostObjective(t *testing.T) {
	p := p70(t)
	lambda := lambdaFor(workload.MM, 2000)

	// With electricity free, cost reduces to GPU rental: the solver must
	// pick the assignment with the fewest GPUs that covers the load.
	rentalOnly := CostWeights{GPUHourUSD: 12, EnergyUSDPerKWh: 0}
	a, err := SolveCost(p, workload.MM, 32, lambda, rentalOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	minGPUs := 33
	for budget := 2; budget <= 32; budget++ {
		if b, err := Solve(p, workload.MM, budget, lambda, Options{}); err == nil && b.GPUs() < minGPUs {
			minGPUs = b.GPUs()
		}
	}
	if a.GPUs() != minGPUs {
		t.Errorf("rental-only cost solve used %d GPUs, minimum feasible is %d", a.GPUs(), minGPUs)
	}

	// With rental free, the cost objective degenerates to the power
	// objective: both solves must agree on the optimum power.
	powerOnly := CostWeights{GPUHourUSD: 0, EnergyUSDPerKWh: 0.12}
	ac, err := SolveCost(p, workload.MM, 32, lambda, powerOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := Solve(p, workload.MM, 32, lambda, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ac.PowerW-ap.PowerW) > 1e-6 {
		t.Errorf("electricity-only cost solve power %v != power solve %v", ac.PowerW, ap.PowerW)
	}

	// The reported optimum is never beaten by the other objective's pick.
	if rentalOnly.HourlyUSD(ap) < rentalOnly.HourlyUSD(a)-1e-9 {
		t.Errorf("power optimum is cheaper than cost optimum under rental weights: %v < %v",
			rentalOnly.HourlyUSD(ap), rentalOnly.HourlyUSD(a))
	}
}

func TestSolveCostInfeasible(t *testing.T) {
	p := p70(t)
	if _, err := SolveCost(p, workload.LL, 2, lambdaFor(workload.LL, 50000),
		CostWeights{GPUHourUSD: 12, EnergyUSDPerKWh: 0.03}, Options{}); err == nil {
		t.Error("expected infeasible")
	}
}
