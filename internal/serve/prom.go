package serve

import (
	"bytes"
	"fmt"
	"io"

	"dynamollm/internal/metrics"
	"dynamollm/internal/workload"
)

// promQuantiles are the summary quantiles /metrics exports from every
// latency distribution.
var promQuantiles = [...]float64{50, 90, 99}

// WriteMetrics advances the session to the present and renders the
// Prometheus text exposition (/metrics): counters and gauges from the
// running aggregates plus TTFT/TBT summaries — cluster-wide and, under
// event fidelity, per request class — straight out of the O(1) streaming
// histograms. The exposition is rendered into a buffer under the session
// lock and written to w after releasing it, so a slow scraper can never
// stall the control plane.
func (s *Session) WriteMetrics(out io.Writer) {
	var buf bytes.Buffer
	s.renderMetrics(&buf)
	_, _ = out.Write(buf.Bytes())
}

func (s *Session) renderMetrics(w *bytes.Buffer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	res := s.live.Result()
	st := s.statsLocked()

	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP dynamollm_%s %s\n# TYPE dynamollm_%s gauge\n", name, help, name)
		fmt.Fprintf(w, "dynamollm_%s %g\n", name, v)
	}
	c := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP dynamollm_%s %s\n# TYPE dynamollm_%s counter\n", name, help, name)
		fmt.Fprintf(w, "dynamollm_%s %g\n", name, v)
	}

	g("virtual_seconds", "virtual time the simulation has served", st.VirtualSeconds)
	g("sim_lag_virtual_seconds", "virtual seconds the simulation trails the wall-clock pacer", st.SimLagSeconds)
	c("requests_total", "requests routed (base trace + injected)", float64(st.Requests))
	c("completed_total", "requests served to completion", float64(st.Completed))
	c("squashed_total", "requests dropped by emergency handling or outages", float64(st.Squashed))
	c("slo_met_total", "completed requests that met their SLO", float64(res.SLOMet))
	g("slo_attainment", "fraction of completed requests meeting SLOs", st.SLOAttainment)
	g("inflight_requests", "injected requests awaiting completion", float64(st.Inflight))
	c("energy_joules_total", "total cluster energy", res.EnergyJ)
	c("energy_cost_usd_total", "electricity bill at the time-varying price", res.EnergyCostUSD)
	g("servers_active", "live capacity in 8-GPU server equivalents", float64(st.ActiveServers))
	g("servers_avg", "time-averaged occupied servers", st.AvgServers)
	g("price_mult", "electricity-price multiplier in force", st.PriceMult)
	g("slo_factor", "SLO scaling factor in force", st.SLOFactor)
	c("reshards_total", "tensor-parallelism reconfigurations", float64(st.Reshards))
	c("scale_outs_total", "instances provisioned", float64(st.ScaleOuts))
	c("scale_ins_total", "instances retired by scale-in", float64(st.ScaleIns))
	c("emergencies_total", "instance-manager emergency escalations", float64(st.Emergencies))
	c("outages_total", "instances lost to injected failures", float64(st.Outages))
	c("recoveries_total", "servers restored by recovery events", float64(st.Recoveries))
	c("retried_total", "failed requests readmitted through the frontend retry queue", float64(st.Retried))
	c("retry_success_total", "retried requests that eventually completed", float64(st.RetrySuccess))
	c("shed_total", "requests dropped after exhausting their retry budget", float64(st.Shed))
	c("admission_shed_total", "injections rejected by admission control (HTTP 429)", float64(st.AdmissionShed))
	c("trace_loops_total", "base-trace replays", float64(st.TraceLoops))
	g("kv_used_blocks", "KV-cache occupancy summed over live event engines", float64(st.UsedBlocks))
	g("kv_total_blocks", "KV-cache capacity summed over live event engines", float64(st.TotalBlocks))
	c("kv_preemptions_total", "decode sequences preempted under KV pressure", float64(st.Preemptions))
	c("kv_prefix_hits_total", "prompt-prefix cache hits", float64(st.PrefixHits))
	c("kv_rejected_total", "admissions rejected as oversize for an empty KV pool", float64(st.Rejected))
	c("kv_handoffs_total", "prefill-to-decode handoffs under disaggregation", float64(st.Handoffs))
	g("kv_tier_used_blocks", "spill-tier occupancy summed over live event engines", float64(st.TierUsedBlocks))
	g("kv_tier_total_blocks", "spill-tier capacity summed over live event engines", float64(st.TierTotalBlocks))
	c("kv_swap_outs_total", "sequences swapped out to the spill tier", float64(st.SwapOuts))
	c("kv_swap_ins_total", "sequences swapped back in from the spill tier", float64(st.SwapIns))
	c("kv_recomputes_total", "preempted sequences resolved by prefill recompute", float64(st.Recomputes))
	c("kv_tier_evictions_total", "spilled sequences evicted from a full tier to recompute", float64(st.TierEvictions))

	writeSummary(w, "ttft_seconds", "time to first token", "", res.TTFT)
	writeSummary(w, "tbt_seconds", "time between tokens", "", res.TBT)

	// Per-class token-level latencies exist under event fidelity only.
	if res.ClassTTFT[0] != nil {
		writeClassHeader(w, "class_ttft_seconds", "per-class time to first token (token-level, event fidelity)")
		for _, cls := range workload.AllClasses {
			writeSummaryRows(w, "class_ttft_seconds", fmt.Sprintf(`class=%q`, cls.String()), res.ClassTTFT[cls])
		}
		writeClassHeader(w, "class_tbt_seconds", "per-class time between tokens (token-level, event fidelity)")
		for _, cls := range workload.AllClasses {
			writeSummaryRows(w, "class_tbt_seconds", fmt.Sprintf(`class=%q`, cls.String()), res.ClassTBT[cls])
		}
	}
}

func writeClassHeader(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP dynamollm_%s %s\n# TYPE dynamollm_%s summary\n", name, help, name)
}

// writeSummary emits one full summary metric (header plus rows).
func writeSummary(w io.Writer, name, help, labels string, d *metrics.Dist) {
	writeClassHeader(w, name, help)
	writeSummaryRows(w, name, labels, d)
}

// writeSummaryRows emits the quantile/sum/count rows of one summary
// series, merging the optional extra labels with the quantile label.
func writeSummaryRows(w io.Writer, name string, labels string, d *metrics.Dist) {
	qlabels := `quantile`
	if labels != "" {
		qlabels = labels + ",quantile"
	}
	for _, q := range promQuantiles {
		fmt.Fprintf(w, "dynamollm_%s{%s=\"%g\"} %g\n", name, qlabels, q/100, d.Percentile(q))
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "dynamollm_%s_sum%s %g\n", name, suffix, d.Sum())
	fmt.Fprintf(w, "dynamollm_%s_count%s %d\n", name, suffix, d.N())
}
