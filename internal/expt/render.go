package expt

import (
	"fmt"
	"strings"

	"dynamollm/internal/core"
	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/workload"
)

func pct(f float64) string { return fmt.Sprintf("%d%%", int(f*100+0.5)) }

// systemResult returns the named system's result in runs, or nil.
func systemResult(runs []SystemRun, name string) *core.Result {
	for _, r := range runs {
		if r.Name == name {
			return r.Result
		}
	}
	return nil
}

func cellString(c Cell) string {
	if !c.Feasible {
		return "   -- "
	}
	return fmt.Sprintf("%6.2f", c.WhPer10)
}

func gridHeader(b *strings.Builder) {
	fmt.Fprintf(b, "%-14s", "")
	for _, tp := range model.TPChoices {
		fmt.Fprintf(b, "| %-27s", tp)
	}
	b.WriteString("\n")
	fmt.Fprintf(b, "%-14s", "GHz")
	for range model.TPChoices {
		b.WriteString("|   0.8    1.2    1.6    2.0 ")
	}
	b.WriteString("\n")
}

func gridRow(b *strings.Builder, label string, row Grid) {
	fmt.Fprintf(b, "%-14s", label)
	for _, cells := range row {
		b.WriteString("| ")
		for _, f := range gpu.CoarseLadder() {
			b.WriteString(cellString(cells[f]) + " ")
		}
	}
	b.WriteString("\n")
}

// RenderTableI formats the Table I heat map.
func RenderTableI(t [workload.NumClasses]Grid) string {
	var b strings.Builder
	b.WriteString("Table I: energy (Wh per 10 requests), Llama2-70B at 2K total TPS; -- = SLO violated\n")
	gridHeader(&b)
	for _, cls := range workload.AllClasses {
		gridRow(&b, cls.String(), t[cls])
	}
	return b.String()
}

// tableIILabels are Table II's row labels, beside TableIILoads.
var tableIILabels = [len(TableIILoads)]string{"Low (650)", "Medium (2K)", "High (4K)"}

// RenderTableII formats the load sweep.
func RenderTableII(t [len(TableIILoads)]Grid) string {
	var b strings.Builder
	b.WriteString("Table II: energy (Wh per 10 requests), Llama2-70B MM requests; -- = SLO violated\n")
	gridHeader(&b)
	for i, label := range tableIILabels {
		gridRow(&b, label, t[i])
	}
	return b.String()
}

// RenderTableIII formats the model sweep.
func RenderTableIII(t [len(TableIIIModels)]Grid) string {
	var b strings.Builder
	b.WriteString("Table III: energy (Wh per 10 requests), MM requests at 2K total TPS; -- = infeasible\n")
	gridHeader(&b)
	for i, m := range TableIIIModels {
		gridRow(&b, m.Name, t[i])
	}
	return b.String()
}

// RenderTableIV formats the classification thresholds and SLOs.
func RenderTableIV() string {
	var b strings.Builder
	b.WriteString("Table IV: request classes and SLOs\n")
	b.WriteString("  bucket   input        output     TTFT SLO   TBT SLO\n")
	rows := []struct {
		name    string
		in, out string
		cls     workload.Class
	}{
		{"Short ", "<256  ", "<100", workload.SS},
		{"Medium", "<1024 ", "<350", workload.MM},
		{"Long  ", "<=8192", ">=350", workload.LL},
	}
	for _, r := range rows {
		slo := workload.SLOFor(r.cls)
		fmt.Fprintf(&b, "  %s   %-10s   %-7s   %4.0f ms    %3.0f ms\n",
			r.name, r.in, r.out, slo.TTFT*1000, slo.TBT*1000)
	}
	return b.String()
}

// RenderTableV formats the provisioning overhead breakdown.
func RenderTableV() string {
	var b strings.Builder
	b.WriteString("Table V: overheads of creating a new 8xH100 inference server\n")
	for _, s := range TableV() {
		path := "critical path"
		if s.Hidden {
			path = "hidden by snapshot/prewarm"
		}
		fmt.Fprintf(&b, "  %-40s %5.0f s   (%s)\n", s.Name, s.Seconds, path)
	}
	naive, opt := TableVTotal()
	fmt.Fprintf(&b, "  %-40s %5.0f s\n", "Total (naive)", naive)
	fmt.Fprintf(&b, "  %-40s %5.0f s\n", "Total (DynamoLLM critical path)", opt)
	return b.String()
}

// RenderTableVI formats the re-sharding overhead matrix.
func RenderTableVI() string {
	matrix, unit := TableVI()
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: re-sharding overhead in units of T (T = %.0f ms for Llama2-70B)\n", unit*1000)
	fmt.Fprintf(&b, "  %-9s", "Src/Dst")
	for _, c := range reshardNames() {
		fmt.Fprintf(&b, "%9s", c)
	}
	b.WriteString("\n")
	for i, row := range matrix {
		fmt.Fprintf(&b, "  %-9s", reshardNames()[i])
		for _, v := range row {
			if v == 0 {
				fmt.Fprintf(&b, "%9s", "0")
			} else {
				fmt.Fprintf(&b, "%8dT", v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func reshardNames() []string {
	return []string{"TP2", "4TP2", "TP4", "TP4+TP2", "2TP4", "TP8"}
}

// RenderFig1 formats daily class distributions.
func RenderFig1(data [len(weekServices)][]Fig1Row) string {
	var b strings.Builder
	b.WriteString("Fig 1: request-type distribution per day (% of requests)\n")
	for i, svc := range weekServices {
		fmt.Fprintf(&b, "  %s:\n    day  ", svc)
		for _, cls := range workload.AllClasses {
			fmt.Fprintf(&b, "%5s", cls)
		}
		b.WriteString("\n")
		for _, row := range data[i] {
			fmt.Fprintf(&b, "    %-5d", row.Day)
			for _, cls := range workload.AllClasses {
				fmt.Fprintf(&b, "%5.1f", row.Shares[cls]*100)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// RenderSystems formats the Fig. 6/7/8 cluster-hour comparison.
func RenderSystems(runs []SystemRun) string {
	var b strings.Builder
	b.WriteString("Fig 6/7/8: 1-hour cluster run, six systems\n")
	b.WriteString("  system      energy(kWh)  vs base   servers  TTFT p50/p99 (s)  TBT p50/p99 (ms)  clusterP p50/p99 (kW)  gpuP p50/p99 (W)  SLO att\n")
	var base float64
	if sp := systemResult(runs, "singlepool"); sp != nil {
		base = sp.EnergyJ
	}
	for _, r := range runs {
		res := r.Result
		rel := ""
		if base > 0 {
			rel = fmt.Sprintf("%+6.1f%%", (res.EnergyJ/base-1)*100)
		}
		fmt.Fprintf(&b, "  %-11s %10.2f  %7s  %6.1f   %6.3f/%6.3f   %6.1f/%6.1f    %7.1f/%7.1f      %5.0f/%5.0f      %.3f\n",
			r.Name, res.EnergyKWh(), rel, res.AvgServers,
			res.TTFT.Percentile(50), res.TTFT.Percentile(99),
			res.TBT.Percentile(50)*1000, res.TBT.Percentile(99)*1000,
			res.ClusterPowerW.Percentile(50)/1000, res.ClusterPowerW.Percentile(99)/1000,
			res.GPUPowerW.Percentile(50), res.GPUPowerW.Percentile(99),
			res.SLOAttainment())
	}
	return b.String()
}

// RenderFig6Breakdown formats the per-class energy stacking.
func RenderFig6Breakdown(runs []SystemRun) string {
	var b strings.Builder
	b.WriteString("Fig 6 (breakdown): energy by request class (kWh)\n    system      ")
	for _, cls := range workload.AllClasses {
		fmt.Fprintf(&b, "%7s", cls)
	}
	b.WriteString("\n")
	for _, r := range runs {
		fmt.Fprintf(&b, "    %-11s ", r.Name)
		for _, cls := range workload.AllClasses {
			fmt.Fprintf(&b, "%7.2f", r.Result.EnergyByClassJ[cls]/3.6e6)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig9 formats the frequency-over-time series for DynamoLLM.
func RenderFig9(runs []SystemRun) string {
	var b strings.Builder
	b.WriteString("Fig 9: DynamoLLM average GPU frequency over the hour (GHz, 5-min bins)\n")
	if dyn := systemResult(runs, "dynamollm"); dyn != nil {
		b.WriteString(seriesLine("total", bin(dyn.FreqSeries.Points(), 300), 0.001))
		for _, cls := range []workload.Class{workload.SL, workload.LL} {
			if s := dyn.PoolFreqSeries[cls]; s != nil {
				b.WriteString(seriesLine(cls.String(), bin(s.Points(), 300), 0.001))
			}
		}
	}
	return b.String()
}

// RenderFig10 formats GPUs-per-TP over time for DynamoLLM.
func RenderFig10(runs []SystemRun) string {
	var b strings.Builder
	b.WriteString("Fig 10: DynamoLLM GPUs per sharding over the hour (5-min bins)\n")
	if dyn := systemResult(runs, "dynamollm"); dyn != nil {
		for i, tp := range model.TPChoices {
			b.WriteString(seriesLine("total-"+tp.String(), bin(dyn.ShardSeries[i].Points(), 300), 1))
		}
		for _, cls := range []workload.Class{workload.SL, workload.ML, workload.LL} {
			for i, tp := range model.TPChoices {
				if s := dyn.PoolShardSeries[cls][i]; s != nil {
					b.WriteString(seriesLine(cls.String()+"-"+tp.String(), bin(s.Points(), 300), 1))
				}
			}
			if s := dyn.PoolLoadSeries[cls]; s != nil {
				b.WriteString(seriesLine(cls.String()+"-load(rps)", bin(s.Points(), 300), 1))
			}
		}
	}
	return b.String()
}

// bin averages time-ordered pts over consecutive windows of width
// seconds, skipping empty windows.
func bin(pts []metrics.Point, width float64) []float64 {
	var out []float64
	var sum, n float64
	cur := -1
	for _, p := range pts {
		if k := int(p.Time / width); k != cur {
			if n > 0 {
				out = append(out, sum/n)
			}
			sum, n, cur = 0, 0, k
		}
		sum += p.Value
		n++
	}
	if n > 0 {
		out = append(out, sum/n)
	}
	return out
}

func seriesLine(label string, means []float64, scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-14s", label)
	for _, v := range means {
		fmt.Fprintf(&b, " %6.2f", v*scale)
	}
	b.WriteString("\n")
	return b.String()
}

// RenderFig11 formats the accuracy sweep.
func RenderFig11(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Fig 11: sensitivity to output-length predictor accuracy\n")
	b.WriteString("  config       energy(kWh)   mean TTFT (s)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-11s %10.2f   %10.3f\n", r.Label, r.EnergyKWh, r.TTFTMean)
	}
	return b.String()
}

// RenderFig12 formats the load sensitivity.
func RenderFig12(levels []Fig12Level) string {
	var b strings.Builder
	b.WriteString("Fig 12: energy (kWh) under Low/Medium/High load\n  system      ")
	for _, lv := range levels {
		fmt.Fprintf(&b, "%10s", lv.Label)
	}
	b.WriteString("   savings(L/M/H vs SinglePool)\n")
	for i := range levels[0].Systems {
		name := levels[0].Systems[i].Name
		fmt.Fprintf(&b, "  %-11s ", name)
		var savings []string
		for _, lv := range levels {
			res := lv.Systems[i].Result
			fmt.Fprintf(&b, "%10.2f", res.EnergyKWh())
			base := systemResult(lv.Systems, "singlepool").EnergyJ
			savings = append(savings, fmt.Sprintf("%4.1f%%", (1-res.EnergyJ/base)*100))
		}
		fmt.Fprintf(&b, "   %s\n", strings.Join(savings, " / "))
	}
	return b.String()
}

// RenderFig13 formats the pool-count sweep.
func RenderFig13(rows []Fig13Row) string {
	var b strings.Builder
	b.WriteString("Fig 13: sensitivity to number of pools\n")
	b.WriteString("  pools   energy(kWh)   mean TTFT (s)   SLO attainment\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6d %10.2f    %10.3f        %.3f\n", r.Pools, r.EnergyKWh, r.TTFTMean, r.SLOAtt)
	}
	return b.String()
}

// RenderFig14 formats the normalized week-long comparison.
func RenderFig14(rows []Fig14Row) string {
	var b strings.Builder
	b.WriteString("Fig 14: normalized energy, week-long traces\n  system      ")
	for _, row := range rows {
		fmt.Fprintf(&b, "%14s", row.Service)
	}
	b.WriteString("\n")
	for i := range rows[0].Systems {
		fmt.Fprintf(&b, "  %-11s ", rows[0].Systems[i].Name)
		for _, row := range rows {
			fmt.Fprintf(&b, "%14.3f", row.Systems[i].Result.EnergyJ/systemResult(row.Systems, "singlepool").EnergyJ)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig15 formats the day-long energy-over-time comparison.
func RenderFig15(runs []SystemRun) string {
	var b strings.Builder
	b.WriteString("Fig 15: energy per 30-min interval over one day (kWh)\n")
	for _, r := range runs {
		// EnergySeries accumulates J per 5-min bucket; binning averages,
		// so scale back to per-interval kWh (6 buckets per 30 min).
		fmt.Fprintf(&b, "  %-11s", r.Name)
		for _, v := range bin(r.Result.EnergySeries.Points(), 1800) {
			fmt.Fprintf(&b, " %5.1f", v*6/3.6e6)
		}
		b.WriteString("\n")
	}
	var base, dyn float64
	for _, r := range runs {
		if r.Name == "singlepool" {
			base = r.Result.EnergyJ
		} else {
			dyn = r.Result.EnergyJ
		}
	}
	if base > 0 {
		fmt.Fprintf(&b, "  day-long saving: %s\n", pct(1-dyn/base))
	}
	return b.String()
}

// RenderFig16 formats the carbon comparison.
func RenderFig16(r Fig16Result) string {
	var b strings.Builder
	b.WriteString("Fig 16: operational carbon over the week (CAISO-like intensity)\n")
	fmt.Fprintf(&b, "  SinglePool: %8.1f kg CO2\n", r.BaselineKg)
	fmt.Fprintf(&b, "  DynamoLLM:  %8.1f kg CO2\n", r.DynamoKg)
	fmt.Fprintf(&b, "  saving:     %s\n", pct(1-r.DynamoKg/r.BaselineKg))
	return b.String()
}

// RenderCost formats the §V-F analysis.
func RenderCost(r CostResult) string {
	var b strings.Builder
	b.WriteString("Cost analysis (week-long Conversation trace)\n")
	fmt.Fprintf(&b, "  avg servers:     %.1f -> %.1f  (GPU-hour saving %s)\n",
		r.BaselineServers, r.DynamoServers, pct(r.GPUSavingFrac))
	fmt.Fprintf(&b, "  GPU bill:        $%.0f -> $%.0f\n", r.BaselineBill.GPUUSD, r.DynamoBill.GPUUSD)
	fmt.Fprintf(&b, "  energy bill:     $%.2f -> $%.2f  (energy saving %s)\n",
		r.BaselineBill.EnergyUSD, r.DynamoBill.EnergyUSD, pct(r.EnergySavingFrac))
	fmt.Fprintf(&b, "  total saving:    %s\n", pct(r.TotalSavingFrac))
	return b.String()
}

// RenderHeadline formats the abstract's summary numbers.
func RenderHeadline(h Headline) string {
	return fmt.Sprintf("Headline (paper: 53%% energy, 38%% carbon, 61%% cost):\n"+
		"  energy saving: %s\n  carbon saving: %s\n  cost saving:   %s\n",
		pct(h.EnergySaving), pct(h.CarbonSaving), pct(h.CostSaving))
}

// RenderFig3 formats the frequency-switch throughput comparison.
func RenderFig3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Fig 3: throughput with constant vs per-iteration frequency setting (req/s)\n")
	b.WriteString("  class   ConstFreq  SwitchFreq   drop\n")
	for _, r := range rows {
		drop := 0.0
		if r.ConstRPS > 0 {
			drop = 1 - r.SwitchRPS/r.ConstRPS
		}
		fmt.Fprintf(&b, "  %-6s %9.2f  %9.2f   %s\n", r.Class, r.ConstRPS, r.SwitchRPS, pct(drop))
	}
	return b.String()
}

// RenderFig2Series formats weekly normalized load.
func RenderFig2Series(data [len(weekServices)][]metrics.Point) string {
	var b strings.Builder
	b.WriteString("Fig 2: normalized load over the week (6-hour bins)\n")
	for i, svc := range weekServices {
		b.WriteString(seriesLine(svc.String(), bin(data[i], 6*3600), 1))
	}
	return b.String()
}
