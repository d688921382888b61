package expt

import (
	"math"
	"strings"
	"testing"

	"dynamollm/internal/core"
)

// TestKVSweepTrends pins the KV sweep's two acceptance properties on the
// quick grid: goodput falls monotonically as the KV capacity factor
// shrinks, and the prefix-share cell converts shared prompts into cache
// hits that reduce TTFT versus the plain full-capacity cell. Runs two
// systems to keep the event-fidelity cost bounded while still covering an
// autoscaling and a static policy.
func TestKVSweepTrends(t *testing.T) {
	if testing.Short() {
		t.Skip("event-fidelity cluster simulations")
	}
	c := quickCfg()
	c.PeakRPS = 5
	systems := []string{"multipool", "dynamollm"}
	points, err := c.kvRuns(systems)
	if err != nil {
		t.Fatal(err)
	}
	// 3 capacity cells + 2 tiers x 2 pressured capacities + 1 prefix cell
	// + 1 disagg cell.
	if len(points) != 9 {
		t.Fatalf("quick grid has %d cells, want 9", len(points))
	}
	find := func(p KVPoint, name string) SystemRun {
		for _, run := range p.Systems {
			if run.Name == name {
				return run
			}
		}
		t.Fatalf("cell capacity=%g prefix=%g disagg=%v missing system %s",
			p.CapacityFactor, p.PrefixShare, p.Disagg, name)
		return SystemRun{}
	}
	for _, p := range points {
		for _, run := range p.Systems {
			if err := run.Result.CheckInvariants(); err != nil {
				t.Errorf("capacity=%g prefix=%g disagg=%v %s: %v",
					p.CapacityFactor, p.PrefixShare, p.Disagg, run.Name, err)
			}
		}
	}
	for _, name := range systems {
		// Capacity cells appear in shrinking order; goodput may not rise.
		prev := 2.0
		for _, p := range points {
			if p.PrefixShare != 0 || p.Disagg || p.Tier != core.KVTierNone {
				continue
			}
			g := Goodput(find(p, name).Result)
			if g > prev+1e-9 {
				t.Errorf("%s: goodput rose to %.4f at capacity %g (was %.4f at larger capacity)",
					name, g, p.CapacityFactor, prev)
			}
			prev = g
		}
	}
	// Tier cells: every tier cell must engage the link (swap-outs > 0) and
	// strictly replace recomputes versus the recompute-only cell at the
	// same capacity. Goodput recovery is asserted strictly for the cpu
	// tier at its largest pressured capacity — the regime the tier exists
	// for: a tight pool that is not yet capacity-collapsed, over a link
	// fast enough that swapping beats re-prefilling. At the collapse
	// capacity goodput is bounded by the pool itself (swap and recompute
	// both idle behind the same handful of blocks), and the slow ssd link
	// engages too rarely under the auto policy to move goodput, so those
	// cells only have to hold goodput within a small tolerance.
	noneAt := map[float64]*KVPoint{}
	for i := range points {
		p := &points[i]
		if p.Tier == core.KVTierNone && p.PrefixShare == 0 && !p.Disagg {
			noneAt[p.CapacityFactor] = p
		}
	}
	for _, name := range systems {
		firstCap := map[core.KVTier]float64{}
		for _, p := range points {
			if p.Tier == core.KVTierNone {
				continue
			}
			none := noneAt[p.CapacityFactor]
			if none == nil {
				t.Fatalf("tier cell at capacity %g has no recompute-only counterpart", p.CapacityFactor)
			}
			tr, nr := find(p, name).Result, find(*none, name).Result
			if tr.KVSwapOuts == 0 {
				t.Errorf("%s: tier=%s cell at capacity %g never swapped", name, p.Tier, p.CapacityFactor)
			}
			if tr.KVRecomputes >= nr.KVRecomputes {
				t.Errorf("%s: tier=%s did not displace recomputes at capacity %g: %d vs %d",
					name, p.Tier, p.CapacityFactor, tr.KVRecomputes, nr.KVRecomputes)
			}
			// Tier cells appear in shrinking-capacity order per tier.
			if _, ok := firstCap[p.Tier]; !ok {
				firstCap[p.Tier] = p.CapacityFactor
			}
			gt, gn := Goodput(tr), Goodput(nr)
			if p.Tier == core.KVTierCPU && p.CapacityFactor == firstCap[p.Tier] && p.Policy == core.KVSwapAuto {
				if gt <= gn {
					t.Errorf("%s: tier=%s goodput %.4f did not beat recompute-only %.4f at capacity %g",
						name, p.Tier, gt, gn, p.CapacityFactor)
				}
			} else if tol := math.Max(0.005, 0.02*gn); gt < gn-tol {
				t.Errorf("%s: tier=%s goodput %.4f fell more than %.4f below recompute-only %.4f at capacity %g",
					name, p.Tier, gt, tol, gn, p.CapacityFactor)
			}
		}
	}
	var plain, prefix, disagg *KVPoint
	for i := range points {
		p := &points[i]
		switch {
		case p.Disagg:
			disagg = p
		case p.PrefixShare > 0:
			prefix = p
		case p.CapacityFactor == 1:
			plain = p
		}
	}
	if plain == nil || prefix == nil || disagg == nil {
		t.Fatal("grid missing the plain, prefix, or disagg cell")
	}
	for _, name := range systems {
		pr, pl := find(*prefix, name).Result, find(*plain, name).Result
		if pr.KVPrefixHits == 0 {
			t.Errorf("%s: prefix cell recorded no cache hits", name)
		}
		if pr.TTFT.Mean() >= pl.TTFT.Mean() {
			t.Errorf("%s: prefix cache did not reduce mean TTFT (%.4fs with hits vs %.4fs plain)",
				name, pr.TTFT.Mean(), pl.TTFT.Mean())
		}
		dr := find(*disagg, name).Result
		if dr.Handoffs == 0 {
			t.Errorf("%s: disagg cell recorded no prefill-to-decode handoffs", name)
		}
		if dr.Handoffs > dr.Requests {
			t.Errorf("%s: %d handoffs exceed %d routed requests", name, dr.Handoffs, dr.Requests)
		}
	}
	out := RenderKV(points)
	for _, want := range []string{"capacity -> goodput", "prefix share", "disagg=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderKV output missing %q", want)
		}
	}
}
