// Package reshard implements DynamoLLM's low-overhead re-sharding (§IV-C):
// changing the tensor parallelism of instances on one 8-GPU server by
// moving model-weight shards between GPUs over NVLink.
//
// Weights are modeled at 1/8-model granularity (slices W0..W7, Fig. 5). A
// TPk role holds a contiguous block of 8/k slices. Planning happens in two
// stages, following the paper's graph algorithm:
//
//  1. Role placement: a bipartite matching between target roles and
//     physical GPUs that maximizes the weight bytes already resident
//     (equivalently minimizes bytes transferred). Solved exactly with a
//     bitmask DP over the 8 GPUs.
//  2. Source selection: each missing slice is fetched from some GPU that
//     holds it; distinct (src,dst) pairs transfer in parallel over the
//     NVLink switch, so the completion time is T times the maximum number
//     of slices on any single directed pair (T = time to move 1/8 of the
//     model, ~50 ms for Llama2-70B). A balancing pass spreads fetches
//     across replicas to minimize that maximum.
//
// The derived overhead matrix for the six server configurations reproduces
// the paper's Table VI.
package reshard

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
)

// NumSlices is the weight granularity: one slice = 1/8 of the model.
const NumSlices = 8

// SliceSet is a bitmask of slices W0..W7.
type SliceSet uint8

// Has reports whether slice i is in the set.
func (s SliceSet) Has(i int) bool { return s&(1<<i) != 0 }

// Count returns the number of slices.
func (s SliceSet) Count() int { return bits.OnesCount8(uint8(s)) }

// roleSlices returns the slices role r of a TPk instance holds: the
// contiguous block [r*8/k, (r+1)*8/k).
func roleSlices(tp model.TP, role int) SliceSet {
	per := NumSlices / tp.GPUs()
	var s SliceSet
	for i := role * per; i < (role+1)*per; i++ {
		s |= 1 << i
	}
	return s
}

// Layout records which slices each of the server's 8 GPUs holds. Multiple
// instances hold independent full copies, so a GPU's set is the union of
// its roles' slices.
type Layout [gpu.ServerGPUs]SliceSet

// Config is the instance mix on one server, e.g. {TP2, TP4} is the paper's
// "TP2+TP4". Order is canonical (sorted descending by TP).
type Config []model.TP

// GPUs returns the GPUs the configuration occupies.
func (c Config) GPUs() int {
	n := 0
	for _, tp := range c {
		n += tp.GPUs()
	}
	return n
}

func (c Config) String() string {
	if len(c) == 0 {
		return "idle"
	}
	// Collapse repeats: {TP2,TP2,TP2,TP2} -> "4TP2".
	counts := map[model.TP]int{}
	for _, tp := range c {
		counts[tp]++
	}
	var parts []string
	for _, tp := range []model.TP{model.TP8, model.TP4, model.TP2, model.TP1} {
		switch n := counts[tp]; {
		case n == 1:
			parts = append(parts, tp.String())
		case n > 1:
			parts = append(parts, fmt.Sprintf("%d%v", n, tp))
		}
	}
	return strings.Join(parts, "+")
}

// Canonical sorts the config descending by TP so equivalent configs compare
// equal.
func (c Config) Canonical() Config {
	out := append(Config(nil), c...)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// CanonicalLayout places the config's instances on consecutive GPUs from
// GPU0 and returns the resulting slice layout.
func CanonicalLayout(c Config) Layout {
	var l Layout
	g := 0
	for _, tp := range c.Canonical() {
		for role := 0; role < tp.GPUs(); role++ {
			if g >= gpu.ServerGPUs {
				panic("reshard: config exceeds server GPUs")
			}
			l[g] = roleSlices(tp, role)
			g++
		}
	}
	return l
}

// Move is one slice transfer.
type Move struct {
	Src, Dst, Slice int
}

// Plan is a complete re-sharding schedule.
type Plan struct {
	Target Config
	// RoleGPU maps each target role (flattened across instances in
	// canonical order) to its physical GPU.
	RoleGPU []int
	Moves   []Move
	// TimeUnits is the makespan in units of T (the time to move one
	// slice over one NVLink pair); distinct pairs run in parallel.
	TimeUnits int
	// SlicesMoved is the total data volume in slices.
	SlicesMoved int
}

// TransferSeconds returns the wall-clock makespan for a given model.
func (p Plan) TransferSeconds(m *model.Model) float64 {
	return float64(p.TimeUnits) * gpu.TransferTime(m.WeightBytes/NumSlices)
}

// PlanReshard computes the minimum-transfer schedule from the current
// layout to the target configuration.
func PlanReshard(current Layout, target Config) Plan {
	target = target.Canonical()
	if target.GPUs() > gpu.ServerGPUs {
		panic("reshard: target config exceeds server GPUs")
	}
	// Flatten target roles.
	var roles []SliceSet
	for _, tp := range target {
		for r := 0; r < tp.GPUs(); r++ {
			roles = append(roles, roleSlices(tp, r))
		}
	}

	// Stage 1 — role placement: assignment problem minimizing transferred
	// slices, solved by DP over GPU bitmasks. cost[r][g] = slices role r
	// needs that GPU g lacks.
	nRoles := len(roles)
	cost := make([][]int, nRoles)
	for r := range roles {
		cost[r] = make([]int, gpu.ServerGPUs)
		for g := 0; g < gpu.ServerGPUs; g++ {
			cost[r][g] = (roles[r] &^ current[g]).Count()
		}
	}
	const inf = math.MaxInt32
	size := 1 << gpu.ServerGPUs
	dp := make([]int, size)
	parent := make([]int, size) // chosen GPU for role popcount(mask)-1
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for mask := 0; mask < size; mask++ {
		if dp[mask] == inf {
			continue
		}
		r := bits.OnesCount(uint(mask))
		if r >= nRoles {
			continue
		}
		for g := 0; g < gpu.ServerGPUs; g++ {
			if mask&(1<<g) != 0 {
				continue
			}
			next := mask | 1<<g
			if c := dp[mask] + cost[r][g]; c < dp[next] {
				dp[next] = c
				parent[next] = g
			}
		}
	}
	// Find the best final mask with nRoles GPUs used.
	bestMask, bestCost := -1, inf
	for mask := 0; mask < size; mask++ {
		if bits.OnesCount(uint(mask)) == nRoles && dp[mask] < bestCost {
			bestMask, bestCost = mask, dp[mask]
		}
	}
	// Reconstruct role -> GPU.
	roleGPU := make([]int, nRoles)
	mask := bestMask
	for r := nRoles - 1; r >= 0; r-- {
		g := parent[mask]
		roleGPU[r] = g
		mask &^= 1 << g
	}

	// Stage 2 — source selection: balance fetches across replicas to
	// minimize the per-pair maximum.
	pairLoad := map[[2]int]int{}
	var moves []Move
	for r, g := range roleGPU {
		missing := roles[r] &^ current[g]
		for s := 0; s < NumSlices; s++ {
			if !missing.Has(s) {
				continue
			}
			src := -1
			bestLoad := inf
			for cand := 0; cand < gpu.ServerGPUs; cand++ {
				if cand == g || !current[cand].Has(s) {
					continue
				}
				if l := pairLoad[[2]int{cand, g}]; l < bestLoad {
					bestLoad, src = l, cand
				}
			}
			if src < 0 {
				panic(fmt.Sprintf("reshard: slice %d not present on any GPU", s))
			}
			pairLoad[[2]int{src, g}]++
			moves = append(moves, Move{Src: src, Dst: g, Slice: s})
		}
	}
	makespan := 0
	//dynamolint:order-independent max over values; comparison order cannot change the max
	for _, l := range pairLoad {
		if l > makespan {
			makespan = l
		}
	}
	return Plan{
		Target:      target,
		RoleGPU:     roleGPU,
		Moves:       moves,
		TimeUnits:   makespan,
		SlicesMoved: len(moves),
	}
}

// --- Table VI -------------------------------------------------------------------

// TableVIConfigs are the six source/destination configurations of the
// paper's overhead matrix, in presentation order.
var TableVIConfigs = []Config{
	{model.TP2},
	{model.TP2, model.TP2, model.TP2, model.TP2},
	{model.TP4},
	{model.TP2, model.TP4},
	{model.TP4, model.TP4},
	{model.TP8},
}

// OverheadTable derives the re-sharding makespan (in units of T) between
// every pair of Table VI configurations.
func OverheadTable() [][]int {
	out := make([][]int, len(TableVIConfigs))
	for i, src := range TableVIConfigs {
		out[i] = make([]int, len(TableVIConfigs))
		layout := CanonicalLayout(src)
		for j, dst := range TableVIConfigs {
			out[i][j] = PlanReshard(layout, dst).TimeUnits
		}
	}
	return out
}

// --- Transition impact ------------------------------------------------------------

// Impact describes what a transition costs beyond the transfer itself
// (§IV-C): engine re-synchronization downtime and, when GPU memory must
// hold old and new shards simultaneously, either a throughput reduction or
// a full stop.
type Impact struct {
	// TransferSeconds is the NVLink makespan.
	TransferSeconds float64
	// SyncSeconds is the engine re-synchronization time during which the
	// NEW instance cannot serve (old one keeps serving when possible).
	SyncSeconds float64
	// DowntimeSeconds is wall time with NO serving capacity from this
	// instance (only when old+new shards exceed GPU memory).
	DowntimeSeconds float64
	// ThroughputFactor scales the old instance's capacity during the
	// transition (growing per-GPU shards shrink the KV cache).
	ThroughputFactor float64
}

// EngineSyncSeconds is the vLLM-style engine re-initialization time after
// weights land (§IV-C: "a few 100s of milliseconds to a few seconds").
const EngineSyncSeconds = 1.5

// TransitionImpact models re-sharding one instance from one TP degree to
// another for the given model.
func TransitionImpact(m *model.Model, from, to model.TP, plan Plan) Impact {
	im := Impact{
		TransferSeconds:  plan.TransferSeconds(m),
		SyncSeconds:      EngineSyncSeconds,
		ThroughputFactor: 1,
	}
	if to < from {
		// Scaling down: some GPUs take on larger shards, shrinking KV
		// space; throughput drops in proportion to the lost capacity.
		oldShard := m.ShardBytes(from)
		newShard := m.ShardBytes(to)
		perGPU := 80e9 * 0.88
		free := perGPU - oldShard
		freeAfter := perGPU - newShard - oldShard // both resident during switch
		if freeAfter <= 0 {
			// Old and new shards cannot coexist: hard stop while the
			// new instance is built and synced.
			im.DowntimeSeconds = im.TransferSeconds + im.SyncSeconds
			im.ThroughputFactor = 0
		} else {
			im.ThroughputFactor = freeAfter / free
		}
	}
	return im
}
