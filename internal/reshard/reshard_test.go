package reshard

import (
	"testing"
	"testing/quick"

	"dynamollm/internal/model"
	"dynamollm/internal/simclock"
)

func TestRoleSlices(t *testing.T) {
	if got := roleSlices(model.TP2, 0); got != 0x0F {
		t.Errorf("TP2 role 0 = %08b, want 00001111", got)
	}
	if got := roleSlices(model.TP2, 1); got != 0xF0 {
		t.Errorf("TP2 role 1 = %08b, want 11110000", got)
	}
	if got := roleSlices(model.TP8, 5); got != 1<<5 {
		t.Errorf("TP8 role 5 = %08b", got)
	}
	if got := roleSlices(model.TP4, 1); got != 0x0C {
		t.Errorf("TP4 role 1 = %08b, want 00001100", got)
	}
}

func TestConfigString(t *testing.T) {
	cases := []struct {
		c    Config
		want string
	}{
		{Config{model.TP2}, "TP2"},
		{Config{model.TP2, model.TP2, model.TP2, model.TP2}, "4TP2"},
		{Config{model.TP4, model.TP2}, "TP4+TP2"},
		{Config{model.TP2, model.TP4}, "TP4+TP2"},
		{Config{}, "idle"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", []model.TP(c.c), got, c.want)
		}
	}
}

func TestCanonicalLayoutCoversModel(t *testing.T) {
	for _, cfg := range TableVIConfigs {
		l := CanonicalLayout(cfg)
		instances := 0
		var union SliceSet
		for _, s := range l {
			union |= s
		}
		if union != 0xFF {
			t.Errorf("%v layout does not cover all slices: %08b", cfg, union)
		}
		_ = instances
	}
}

// TestTableVI pins the paper's full overhead matrix (Table VI), derived by
// the planner rather than hard-coded.
func TestTableVI(t *testing.T) {
	want := [][]int{
		// Dst:  TP2 4TP2 TP4 TP2+TP4 2TP4 TP8    Src:
		{0, 4, 2, 2, 2, 1}, // TP2
		{0, 0, 0, 0, 0, 0}, // 4TP2
		{2, 2, 0, 2, 2, 1}, // TP4
		{0, 2, 0, 0, 1, 1}, // TP2+TP4
		{1, 1, 0, 1, 0, 0}, // 2TP4
		{1, 1, 1, 1, 1, 0}, // TP8
	}
	got := OverheadTable()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("overhead[%v][%v] = %dT, want %dT",
					TableVIConfigs[i], TableVIConfigs[j], got[i][j], want[i][j])
			}
		}
	}
}

func TestPlanReshardSelfIsFree(t *testing.T) {
	for _, cfg := range TableVIConfigs {
		p := PlanReshard(CanonicalLayout(cfg), cfg)
		if p.TimeUnits != 0 || p.SlicesMoved != 0 {
			t.Errorf("%v -> self moved %d slices in %dT", cfg, p.SlicesMoved, p.TimeUnits)
		}
	}
}

// TestPlanCompletesLayout: applying the moves yields every role's slices on
// its assigned GPU.
func TestPlanCompletesLayout(t *testing.T) {
	for _, src := range TableVIConfigs {
		for _, dst := range TableVIConfigs {
			layout := CanonicalLayout(src)
			p := PlanReshard(layout, dst)
			after := layout
			for _, mv := range p.Moves {
				if !layout[mv.Src].Has(mv.Slice) {
					t.Fatalf("%v->%v: move sources slice %d absent on GPU %d", src, dst, mv.Slice, mv.Src)
				}
				after[mv.Dst] |= 1 << mv.Slice
			}
			var roles []SliceSet
			for _, tp := range p.Target {
				for r := 0; r < tp.GPUs(); r++ {
					roles = append(roles, roleSlices(tp, r))
				}
			}
			for r, g := range p.RoleGPU {
				if roles[r]&^after[g] != 0 {
					t.Fatalf("%v->%v: role %d incomplete on GPU %d", src, dst, r, g)
				}
			}
		}
	}
}

// TestPlanRoleGPUsDistinct: no two roles share a GPU.
func TestPlanRoleGPUsDistinct(t *testing.T) {
	for _, src := range TableVIConfigs {
		for _, dst := range TableVIConfigs {
			p := PlanReshard(CanonicalLayout(src), dst)
			seen := map[int]bool{}
			for _, g := range p.RoleGPU {
				if seen[g] {
					t.Fatalf("%v->%v: GPU %d assigned twice", src, dst, g)
				}
				seen[g] = true
			}
		}
	}
}

// Property: the makespan never exceeds the total slices moved, and moves
// never exceed the model size times instance count.
func TestPlanBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := simclock.NewRNG(seed)
		src := TableVIConfigs[r.Intn(len(TableVIConfigs))]
		dst := TableVIConfigs[r.Intn(len(TableVIConfigs))]
		p := PlanReshard(CanonicalLayout(src), dst)
		if p.TimeUnits > p.SlicesMoved {
			return false
		}
		return p.SlicesMoved <= NumSlices*len(dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferSecondsMatchesPaperT(t *testing.T) {
	// T for Llama2-70B is ~50-60 ms (§IV-C: 300 GB/s NVLink, 1/8 of the
	// weights). The TP4->TP8 transition should take ~T.
	p := PlanReshard(CanonicalLayout(Config{model.TP4}), Config{model.TP8})
	sec := p.TransferSeconds(model.Llama2_70B)
	if sec < 0.04 || sec > 0.08 {
		t.Errorf("TP4->TP8 transfer = %v s, want ~0.057", sec)
	}
	if p.SlicesMoved <= 0 {
		t.Error("no slices moved for a real transition")
	}
}

func TestTransitionImpactScaleUpKeepsServing(t *testing.T) {
	plan := PlanReshard(CanonicalLayout(Config{model.TP4}), Config{model.TP8})
	im := TransitionImpact(model.Llama2_70B, model.TP4, model.TP8, plan)
	if im.DowntimeSeconds != 0 {
		t.Errorf("scale-up downtime = %v, want 0 (old instance keeps serving)", im.DowntimeSeconds)
	}
	if im.ThroughputFactor != 1 {
		t.Errorf("scale-up throughput factor = %v, want 1", im.ThroughputFactor)
	}
	if im.SyncSeconds <= 0 {
		t.Error("engine sync must cost time")
	}
}

// TestTransitionImpactScaleDown70B: TP4->TP2 for a 70B model cannot hold
// both shard sets (§IV-C: "the old instance needs to be shutdown"), so it
// takes real downtime. TP8->TP4 shards coexist, so only throughput drops.
func TestTransitionImpactScaleDown70B(t *testing.T) {
	planHard := PlanReshard(CanonicalLayout(Config{model.TP4}), Config{model.TP2})
	hard := TransitionImpact(model.Llama2_70B, model.TP4, model.TP2, planHard)
	if hard.DowntimeSeconds <= 0 {
		t.Error("TP4->TP2 with 70B must incur downtime (shards cannot coexist)")
	}
	planSoft := PlanReshard(CanonicalLayout(Config{model.TP8}), Config{model.TP4})
	soft := TransitionImpact(model.Llama2_70B, model.TP8, model.TP4, planSoft)
	if soft.DowntimeSeconds != 0 {
		t.Errorf("TP8->TP4 downtime = %v, want 0", soft.DowntimeSeconds)
	}
	if soft.ThroughputFactor >= 1 || soft.ThroughputFactor <= 0 {
		t.Errorf("TP8->TP4 throughput factor = %v, want in (0,1)", soft.ThroughputFactor)
	}
}

func TestPlanReshardPanicsOnOversizedTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PlanReshard(CanonicalLayout(Config{model.TP8}), Config{model.TP8, model.TP2})
}
