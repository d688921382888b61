// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkTableN / BenchmarkFigN runs the corresponding experiment
// from internal/expt (in Quick mode where the full experiment is long) and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. cmd/dynamobench prints the full tables.
package dynamollm

import (
	"slices"
	"testing"

	"dynamollm/internal/core"
	"dynamollm/internal/expt"
	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/workload"
)

// benchRepo shares one profile repository across all benchmarks.
var benchRepo = profile.NewRepository(nil)

// coldCfg returns the benchmark harness with an empty run memo, so an
// experiment run on it simulates everything it reads.
func coldCfg() expt.Config {
	c := expt.Default()
	c.Quick = true
	c.PeakRPS = 30
	c.Repo = benchRepo
	return c
}

// hourCfg is shared by the Fig. 6-10 benchmarks: its memo holds the one
// cluster hour that feeds all five figures, as in the paper.
var hourCfg = coldCfg()

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := expt.TableI()
		feasible := 0
		for _, grid := range tab {
			for _, row := range grid {
				for _, cell := range row {
					if cell.Feasible {
						feasible++
					}
				}
			}
		}
		b.ReportMetric(float64(feasible), "feasible-cells")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := expt.TableII()
		b.ReportMetric(tab[slices.Index(expt.TableIILoads[:], 2000)][model.TP4.Slot()][1200].WhPer10, "MM-TP4-1.2GHz-Wh/10req")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := expt.TableIII()
		b.ReportMetric(tab[slices.Index(expt.TableIIIModels[:], model.Llama2_13B)][model.TP2.Slot()][1200].WhPer10, "13B-TP2-1.2GHz-Wh/10req")
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		slo := workload.SLOFor(workload.MM)
		b.ReportMetric(slo.TTFT*1000, "MM-TTFT-SLO-ms")
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		naive, opt := expt.TableVTotal()
		b.ReportMetric(naive, "naive-s")
		b.ReportMetric(opt, "optimized-s")
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		matrix, unit := expt.TableVI()
		b.ReportMetric(float64(matrix[0][1]), "TP2-to-4TP2-units")
		b.ReportMetric(unit*1000, "T-ms")
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := coldCfg().Fig1()
		b.ReportMetric(float64(len(rows)), "services")
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := coldCfg().Fig2()
		b.ReportMetric(float64(len(pts)), "services")
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := expt.Fig3()
		drop := 1 - rows[4].SwitchRPS/rows[4].ConstRPS // MM
		b.ReportMetric(drop*100, "MM-throughput-drop-%")
	}
}

func systemByName(runs []expt.SystemRun, name string) *core.Result {
	for _, r := range runs {
		if r.Name == name {
			return r.Result
		}
	}
	return nil
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := hourCfg.ClusterHour()
		base := systemByName(runs, "singlepool")
		dyn := systemByName(runs, "dynamollm")
		b.ReportMetric((1-dyn.EnergyJ/base.EnergyJ)*100, "dynamo-energy-saving-%")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn := systemByName(hourCfg.ClusterHour(), "dynamollm")
		b.ReportMetric(dyn.TTFT.Percentile(99)*1000, "ttft-p99-ms")
		b.ReportMetric(dyn.TBT.Percentile(99)*1000, "tbt-p99-ms")
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn := systemByName(hourCfg.ClusterHour(), "dynamollm")
		b.ReportMetric(dyn.ClusterPowerW.Percentile(50)/1000, "cluster-p50-kW")
		b.ReportMetric(dyn.GPUPowerW.Percentile(50), "gpu-p50-W")
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn := systemByName(hourCfg.ClusterHour(), "dynamollm")
		avg, n := 0.0, 0
		for _, p := range dyn.FreqSeries.Points() {
			avg += p.Value
			n++
		}
		b.ReportMetric(avg/float64(n), "avg-freq-MHz")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn := systemByName(hourCfg.ClusterHour(), "dynamollm")
		b.ReportMetric(float64(dyn.Reshards), "reshards")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := coldCfg().Fig11()
		// Energy overhead of 60% accuracy vs perfect.
		var perfect, poor float64
		for _, r := range rows {
			switch r.Label {
			case "Dyn-100%":
				perfect = r.EnergyKWh
			case "Dyn-60%":
				poor = r.EnergyKWh
			}
		}
		b.ReportMetric((poor/perfect-1)*100, "60%-accuracy-energy-overhead-%")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		levels := coldCfg().Fig12()
		// DynamoLLM saving at low load.
		var base, dyn float64
		for _, r := range levels[0].Systems {
			switch r.Name {
			case "singlepool":
				base = r.Result.EnergyJ
			case "dynamollm":
				dyn = r.Result.EnergyJ
			}
		}
		b.ReportMetric((1-dyn/base)*100, "low-load-saving-%")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := coldCfg().Fig13()
		var nine, two float64
		for _, r := range rows {
			switch r.Pools {
			case 9:
				nine = r.EnergyKWh
			case 2:
				two = r.EnergyKWh
			}
		}
		b.ReportMetric(two/nine, "2pool-over-9pool-energy")
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := coldCfg().Fig14()
		for _, row := range rows {
			var base, dyn float64
			for _, r := range row.Systems {
				switch r.Name {
				case "singlepool":
					base = r.Result.EnergyJ
				case "dynamollm":
					dyn = r.Result.EnergyJ
				}
			}
			b.ReportMetric((1-dyn/base)*100, row.Service.String()+"-saving-%")
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := coldCfg().Fig15()
		base := systemByName(runs, "singlepool")
		dyn := systemByName(runs, "dynamollm")
		b.ReportMetric((1-dyn.EnergyJ/base.EnergyJ)*100, "day-saving-%")
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := coldCfg().Fig16()
		b.ReportMetric((1-r.DynamoKg/r.BaselineKg)*100, "carbon-saving-%")
	}
}

func BenchmarkCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := coldCfg().CostAnalysis()
		b.ReportMetric(r.TotalSavingFrac*100, "cost-saving-%")
		b.ReportMetric(r.GPUSavingFrac*100, "gpu-saving-%")
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := coldCfg().HeadlineNumbers()
		b.ReportMetric(h.EnergySaving*100, "energy-saving-%")
		b.ReportMetric(h.CarbonSaving*100, "carbon-saving-%")
		b.ReportMetric(h.CostSaving*100, "cost-saving-%")
	}
}
