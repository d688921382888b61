// Package solver implements the configuration optimizer of §IV-A, Eq. (1):
//
//	min  Σ N_TPi · Energy_TPi,fi(L_TPi)        i ∈ {2, 4, 8}
//	s.t. Σ i·N_TPi ≤ N                         (GPU budget)
//	     Σ N_TPi·L_TPi ≥ L                     (load coverage)
//	     Performance_TPi,fi(L_TPi) ≤ SLO       (latency)
//
// The paper feeds this to a PuLP MILP solver; the knob space is small
// enough (three parallelisms, eight ladder frequencies, fair-share loads)
// that exact enumeration with an exact inner frequency optimization finds
// the true optimum. The enumeration cost — like the MILP's hundreds of
// milliseconds — is what motivates the hierarchical decomposition, so the
// package exposes both the full problem and the pool manager's simplified
// fixed-frequency variant (§IV-B).
package solver

import (
	"errors"
	"fmt"
	"math"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/workload"
)

// Group is one homogeneous set of instances in an assignment: the paper's
// N_TPi instances at frequency f_i each receiving the fair share L_TPi.
type Group struct {
	TP        model.TP
	Count     int
	Freq      gpu.Freq
	PowerEach float64 // watts per instance
}

// GPUs returns the GPUs consumed by the group.
func (g Group) GPUs() int { return g.Count * g.TP.GPUs() }

// Assignment is a solved configuration.
type Assignment struct {
	Groups []Group // one per TP degree in use, in ascending TP
	// PowerW is the summed average power (the energy rate being
	// minimized; energy over an epoch is PowerW x epoch).
	PowerW float64
}

// GPUs returns total GPUs used.
func (a Assignment) GPUs() int {
	n := 0
	for _, g := range a.Groups {
		n += g.GPUs()
	}
	return n
}

func (a Assignment) String() string {
	s := ""
	for i, g := range a.Groups {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%dx%v@%v", g.Count, g.TP, g.Freq)
	}
	return fmt.Sprintf("{%s, %.0fW}", s, a.PowerW)
}

// Options tunes the solve.
type Options struct {
	// FixedFreq pins every group to one frequency (the pool manager's
	// simplification assumes max frequency); zero means optimize per
	// group over the whole ladder.
	FixedFreq gpu.Freq
}

// ErrInfeasible is returned when no configuration within the GPU budget
// covers the load within the SLO.
var ErrInfeasible = errors.New("solver: no feasible configuration")

// Solve finds the minimum-power assignment serving lambda req/s of the
// class within totalGPUs. It enumerates instance-count vectors exactly;
// for each vector it splits load across groups with a convex
// water-filling refinement and picks each group's least-energy feasible
// frequency exactly from the profile.
func Solve(p *profile.Profile, cls workload.Class, totalGPUs int, lambda float64, opts Options) (Assignment, error) {
	return solveScored(p, cls, totalGPUs, lambda, opts, func(a Assignment) float64 {
		return a.PowerW
	})
}

// CostWeights prices an assignment in dollars per hour, turning the
// solver's power objective into a cost objective: GPU rental (the
// dominant §V-F term) plus electricity at the current — possibly
// scenario-perturbed — grid price. A high electricity price pushes the
// optimum toward fewer joules even at the expense of more GPUs; a cheap
// one toward releasing machines.
type CostWeights struct {
	// GPUHourUSD is the rental price of one GPU for one hour.
	GPUHourUSD float64
	// EnergyUSDPerKWh is the effective electricity price.
	EnergyUSDPerKWh float64
}

// HourlyUSD prices an assignment: rental for its GPUs plus electricity
// for its average power over one hour.
func (w CostWeights) HourlyUSD(a Assignment) float64 {
	return float64(a.GPUs())*w.GPUHourUSD + a.PowerW/1000*w.EnergyUSDPerKWh
}

// SolveCost is Solve with a dollar-per-hour objective instead of watts:
// it returns the cheapest assignment under the weights that serves lambda
// req/s within the GPU budget. Within one instance-count vector the GPU
// rental is constant, so the power-optimal frequency split is also the
// cost-optimal one; only the comparison across vectors changes.
func SolveCost(p *profile.Profile, cls workload.Class, totalGPUs int, lambda float64, w CostWeights, opts Options) (Assignment, error) {
	return solveScored(p, cls, totalGPUs, lambda, opts, w.HourlyUSD)
}

// solveScored enumerates instance-count vectors and keeps the assignment
// minimizing score (power for Solve, dollars for SolveCost).
func solveScored(p *profile.Profile, cls workload.Class, totalGPUs int, lambda float64, opts Options, score func(Assignment) float64) (Assignment, error) {
	if totalGPUs <= 0 {
		return Assignment{}, fmt.Errorf("solver: non-positive GPU budget %d", totalGPUs)
	}
	if lambda <= 0 {
		return Assignment{}, nil // nothing to serve: empty assignment
	}

	best := Assignment{PowerW: math.Inf(1)}
	bestScore := math.Inf(1)
	// Candidates fill one groups buffer; a new best keeps it and the
	// search moves on to a fresh one.
	buf := make([]Group, 0, len(model.TPChoices))
	n2max := totalGPUs / 2
	for n2 := 0; n2 <= n2max; n2++ {
		for n4 := 0; n4*4 <= totalGPUs-n2*2; n4++ {
			for n8 := 0; n8*8 <= totalGPUs-n2*2-n4*4; n8++ {
				if n2+n4+n8 == 0 {
					continue
				}
				a, ok := evaluate(p, cls, [...]int{n2, n4, n8}, lambda, opts, buf)
				if ok {
					if s := score(a); s < bestScore-1e-9 {
						best, bestScore = a, s
						buf = make([]Group, 0, len(model.TPChoices))
					}
				}
			}
		}
	}
	if math.IsInf(best.PowerW, 1) {
		return Assignment{}, ErrInfeasible
	}
	return best, nil
}

// evaluate prices one instance-count vector, indexed by model.TP.Slot:
// split the load, choose frequencies, and sum power. The assignment's
// groups are appended to buf[:0] in ascending TP. Reports ok=false when
// the vector cannot cover the load within the SLO.
func evaluate(p *profile.Profile, cls workload.Class, counts [len(model.TPChoices)]int, lambda float64, opts Options, buf []Group) (Assignment, bool) {
	active := 0
	for _, n := range counts {
		if n > 0 {
			active++
		}
	}

	// Per-group capacity at the most permissive frequency.
	f := gpu.MaxFreq
	if opts.FixedFreq != 0 {
		f = opts.FixedFreq
	}
	var capEach [len(model.TPChoices)]float64
	total := 0.0
	for i, tp := range model.TPChoices {
		if counts[i] == 0 {
			continue
		}
		if e := p.Entry(profile.Key{Class: cls, TP: tp, Freq: f}); e != nil && e.MaxLoad > 0 {
			capEach[i] = e.MaxLoad
		}
		total += capEach[i] * float64(counts[i])
	}
	if total < lambda {
		return Assignment{}, false
	}

	// Initial split: proportional to group capacity; then refine by
	// moving load between groups while power improves (the continuous
	// L_TPi dimension of the MILP).
	var share [len(model.TPChoices)]float64
	for i := range counts {
		if counts[i] > 0 {
			share[i] = capEach[i] * float64(counts[i]) / total * lambda
		}
	}
	price := func(split [len(model.TPChoices)]float64) (float64, [len(model.TPChoices)]Group, bool) {
		sum := 0.0
		var groups [len(model.TPChoices)]Group
		for i, tp := range model.TPChoices {
			if counts[i] == 0 {
				continue
			}
			g, ok := bestGroupFreq(p, cls, tp, counts[i], split[i]/float64(counts[i]), opts)
			if !ok {
				return 0, groups, false
			}
			groups[i] = g
			sum += g.PowerEach * float64(g.Count)
		}
		return sum, groups, true
	}

	bestPower, bestGroups, ok := price(share)
	if !ok {
		return Assignment{}, false
	}
	if active > 1 {
		// Coordinate-descent refinement on the load split.
		step := lambda / 8
		for iter := 0; iter < 24 && step > lambda/512; iter++ {
			improved := false
			for from := range counts {
				for to := range counts {
					if counts[from] == 0 || counts[to] == 0 || from == to || share[from] < step {
						continue
					}
					if share[to]+step > capEach[to]*float64(counts[to]) {
						continue
					}
					trial := share
					trial[from] -= step
					trial[to] += step
					if w, g, ok := price(trial); ok && w < bestPower-1e-9 {
						bestPower, bestGroups, share = w, g, trial
						improved = true
					}
				}
			}
			if !improved {
				step /= 2
			}
		}
	}

	a := Assignment{Groups: buf[:0], PowerW: bestPower}
	for i, g := range bestGroups {
		if counts[i] > 0 {
			a.Groups = append(a.Groups, g)
		}
	}
	return a, true
}

// bestGroupFreq picks the least-energy feasible ladder frequency for a
// group, or the fixed frequency if pinned.
func bestGroupFreq(p *profile.Profile, cls workload.Class, tp model.TP, count int, loadEach float64, opts Options) (Group, bool) {
	try := func(f gpu.Freq) (Group, bool) {
		e := p.Entry(profile.Key{Class: cls, TP: tp, Freq: f})
		if e == nil || !e.Feasible(loadEach) {
			return Group{}, false
		}
		return Group{
			TP:        tp,
			Count:     count,
			Freq:      f,
			PowerEach: e.Power.At(loadEach),
		}, true
	}
	if opts.FixedFreq != 0 {
		return try(opts.FixedFreq)
	}
	best := Group{PowerEach: math.Inf(1)}
	found := false
	for _, f := range gpu.Ladder() {
		if g, ok := try(f); ok && g.PowerEach < best.PowerEach {
			best, found = g, true
		}
	}
	return best, found
}

// SolveSharding is the pool manager's simplified problem (§IV-B
// "Shard-up/down"): all instances assumed at the highest frequency,
// only the parallelism mix is chosen.
func SolveSharding(p *profile.Profile, cls workload.Class, totalGPUs int, lambda float64) (Assignment, error) {
	return Solve(p, cls, totalGPUs, lambda, Options{FixedFreq: gpu.MaxFreq})
}

// NodesForPeak computes the cluster manager's node count (§IV-B
// "Scale-out/in"): ceil(PL/ML) instances at the highest-performance
// configuration for the predicted peak load PL.
func NodesForPeak(p *profile.Profile, cls workload.Class, predictedPeak float64) int {
	ml := p.MaxLoadHighestPerf(cls)
	if ml <= 0 || predictedPeak <= 0 {
		return 0
	}
	return int(math.Ceil(predictedPeak / ml))
}
