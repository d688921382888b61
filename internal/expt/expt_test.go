package expt

import (
	"slices"
	"strings"
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

func quickCfg() Config {
	c := Default()
	c.Quick = true
	c.PeakRPS = 30
	return c
}

func TestTableIShapes(t *testing.T) {
	tab := TableI()
	// SS feasible at TP2; LL not; every class has at least one feasible
	// configuration.
	if !tab[workload.SS][model.TP2.Slot()][1200].Feasible {
		t.Error("SS/TP2/1.2 should be feasible")
	}
	for _, f := range gpu.CoarseLadder() {
		if tab[workload.LL][model.TP2.Slot()][f].Feasible {
			t.Errorf("LL/TP2/%v should be infeasible", f)
		}
	}
	for _, cls := range workload.AllClasses {
		any := false
		for _, tp := range model.TPChoices {
			for _, f := range gpu.CoarseLadder() {
				if tab[cls][tp.Slot()][f].Feasible {
					any = true
					if tab[cls][tp.Slot()][f].WhPer10 <= 0 {
						t.Errorf("%v/%v/%v: non-positive energy", cls, tp, f)
					}
				}
			}
		}
		if !any {
			t.Errorf("%v has no feasible configuration", cls)
		}
	}
	out := RenderTableI(tab)
	if !strings.Contains(out, "SS") || !strings.Contains(out, "--") {
		t.Error("render incomplete")
	}
}

func TestTableIILoadDirection(t *testing.T) {
	tab := TableII()
	// Feasible cells only shrink as load rises (per TP/freq).
	low, high := tab[0], tab[len(tab)-1]
	for _, tp := range model.TPChoices {
		for _, f := range gpu.CoarseLadder() {
			if !low[tp.Slot()][f].Feasible && high[tp.Slot()][f].Feasible {
				t.Errorf("%v/%v feasible at high load but not low", tp, f)
			}
		}
	}
	if RenderTableII(tab) == "" {
		t.Error("empty render")
	}
}

func TestTableIIIBigModelsNeedTP8(t *testing.T) {
	tab := TableIII()
	for _, big := range []*model.Model{model.Mixtral22B, model.Falcon180B} {
		g := tab[slices.Index(TableIIIModels[:], big)]
		for _, tp := range []model.TP{model.TP2, model.TP4} {
			for _, f := range gpu.CoarseLadder() {
				if g[tp.Slot()][f].Feasible {
					t.Errorf("%s/%v/%v should be infeasible", big.Name, tp, f)
				}
			}
		}
		if !g[model.TP8.Slot()][gpu.MaxFreq].Feasible {
			t.Errorf("%s/TP8/max should be feasible", big.Name)
		}
	}
	if RenderTableIII(tab) == "" {
		t.Error("empty render")
	}
}

func TestTableVTotals(t *testing.T) {
	naive, opt := TableVTotal()
	// Paper: ~6-8 minutes naive; seconds-scale optimized critical path.
	if naive < 360 || naive > 480 {
		t.Errorf("naive provisioning = %v s, want 6-8 min", naive)
	}
	if opt > 60 {
		t.Errorf("optimized critical path = %v s, want under a minute", opt)
	}
	if RenderTableV() == "" || RenderTableIV() == "" {
		t.Error("empty renders")
	}
}

func TestTableVIUnit(t *testing.T) {
	matrix, unit := TableVI()
	if unit < 0.04 || unit > 0.08 {
		t.Errorf("T = %v s, want ~50-60 ms", unit)
	}
	if len(matrix) != 6 {
		t.Fatalf("matrix size %d", len(matrix))
	}
	if !strings.Contains(RenderTableVI(), "4T") {
		t.Error("render missing the 4T cell")
	}
}

func TestFig1And2(t *testing.T) {
	c := quickCfg()
	f1 := c.Fig1()
	for i, rows := range f1 {
		svc := weekServices[i]
		if len(rows) < 2 {
			t.Errorf("%v: too few days", svc)
		}
		for _, r := range rows {
			sum := 0.0
			for _, s := range r.Shares {
				sum += s
			}
			if sum < 0.99 || sum > 1.01 {
				t.Errorf("%v day %d shares sum to %v", svc, r.Day, sum)
			}
		}
	}
	f2 := c.Fig2()
	for i, pts := range f2 {
		svc := weekServices[i]
		peak := 0.0
		for _, p := range pts {
			if p.Value > peak {
				peak = p.Value
			}
		}
		if peak < 0.99 || peak > 1.01 {
			t.Errorf("%v: normalized peak = %v", svc, peak)
		}
	}
	if RenderFig1(f1) == "" || RenderFig2Series(f2) == "" {
		t.Error("empty renders")
	}
}

func TestFig3Drop(t *testing.T) {
	rows := Fig3()
	if len(rows) != workload.NumClasses {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SwitchRPS >= r.ConstRPS {
			t.Errorf("%v: switching frequency should cost throughput (%v vs %v)",
				r.Class, r.SwitchRPS, r.ConstRPS)
		}
	}
	if RenderFig3(rows) == "" {
		t.Error("empty render")
	}
}

func TestClusterHourRendersAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	c := quickCfg()
	runs := c.ClusterHour()
	if len(runs) != 6 {
		t.Fatalf("systems = %d", len(runs))
	}
	for _, render := range []string{
		RenderSystems(runs), RenderFig6Breakdown(runs),
		RenderFig9(runs), RenderFig10(runs),
	} {
		if render == "" {
			t.Error("empty render")
		}
	}
	// DynamoLLM uses least energy among the runs.
	var dyn, base float64
	for _, r := range runs {
		switch r.Name {
		case "dynamollm":
			dyn = r.Result.EnergyJ
		case "singlepool":
			base = r.Result.EnergyJ
		}
	}
	if dyn >= base {
		t.Errorf("DynamoLLM %v J should beat SinglePool %v J", dyn, base)
	}
}

func TestFig13PoolSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	rows := quickCfg().Fig13()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if RenderFig13(rows) == "" {
		t.Error("empty render")
	}
}

func TestServersForScalesWithLoad(t *testing.T) {
	c := quickCfg()
	small := serversFor(c.WeekTrace(trace.Conversation).Scale(0.3, 1))
	big := serversFor(c.WeekTrace(trace.Conversation))
	if small > big {
		t.Errorf("thinner trace sized larger fleet: %d > %d", small, big)
	}
	if big < 3 {
		t.Errorf("fleet floor violated: %d", big)
	}
}
