package core

import (
	"fmt"
	"testing"

	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// kvFingerprint summarizes a Result down to the fields the KV tests
// compare byte-for-byte (floats via %x so NaN/rounding cannot hide).
func kvFingerprint(r *Result) string {
	return fmt.Sprintf("req=%d done=%d squash=%d shed=%d slo=%d swap=%d/%d recomp=%d evict=%d e=%x ttft50=%x ttft99=%x tbt99=%x",
		r.Requests, r.Completed, r.Squashed, r.Shed, r.SLOMet,
		r.KVSwapOuts, r.KVSwapIns, r.KVRecomputes, r.KVTierEvictions,
		r.EnergyJ, r.TTFT.Percentile(50), r.TTFT.Percentile(99), r.TBT.Percentile(99))
}

func kvRun(t *testing.T, mutate func(*Options), window simclock.Time) *Result {
	t.Helper()
	repo, _ := fixtures(t)
	tr := trace.OpenSourceHour(testPeakRPS, 11).Window(0, window)
	opts, _ := SystemByName("multipool")
	opts.Seed = 7
	opts.Fidelity = FidelityEvent
	opts.WarmLoad = warmConv
	if mutate != nil {
		mutate(&opts)
	}
	res := RunWithRepo(tr, opts, repo)
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return res
}

// TestKVUnboundedMatchesLegacy: turning on block-granular KV accounting
// with the full profile-derived capacity must be byte-identical to the
// legacy token-counting path — the block pool only changes behaviour when
// it actually runs out of blocks.
func TestKVUnboundedMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	legacy := kvRun(t, nil, 900)
	blocks := kvRun(t, func(o *Options) { o.KVBlockTokens = 16 }, 900)
	if a, b := kvFingerprint(legacy), kvFingerprint(blocks); a != b {
		t.Errorf("block accounting at full capacity diverged from legacy:\nlegacy %s\nblocks %s", a, b)
	}
	if blocks.KVPreemptions != 0 || blocks.KVRejected != 0 {
		t.Errorf("full-capacity run preempted %d / rejected %d sequences; want none",
			blocks.KVPreemptions, blocks.KVRejected)
	}
}

// TestKVPressurePreempts: shrinking the KV pool far below the working set
// must surface as preemptions (decode sequences evicted and re-prefilled)
// while the accounting identities keep holding — pressure degrades
// service, it must never lose requests.
func TestKVPressurePreempts(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	res := kvRun(t, func(o *Options) {
		o.KVBlockTokens = 16
		o.KVCapacityFactor = 0.002
	}, 900)
	if res.KVPreemptions == 0 {
		t.Error("no preemptions under a 0.2% KV capacity factor")
	}
	if res.Completed == 0 {
		t.Error("nothing completed under KV pressure")
	}
	full := kvRun(t, func(o *Options) { o.KVBlockTokens = 16 }, 900)
	if res.SLOAttainment() > full.SLOAttainment() {
		t.Errorf("KV pressure improved SLO attainment: %.3f squeezed vs %.3f full",
			res.SLOAttainment(), full.SLOAttainment())
	}
}

// TestKVTierSwapsUnderPressure: the spill tier at the same starved
// capacity must resolve pressure by swapping — swap-outs appear, and the
// recompute count drops against the recompute-only run because most
// victims take the tier path instead. The invariant checks inside kvRun
// cover the tier counter algebra.
func TestKVTierSwapsUnderPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	squeeze := func(o *Options) {
		o.KVBlockTokens = 16
		o.KVCapacityFactor = 0.002
	}
	none := kvRun(t, squeeze, 900)
	if none.KVSwapOuts != 0 || none.KVSwapIns != 0 || none.KVTierEvictions != 0 {
		t.Fatalf("tierless run recorded swap traffic: %d out, %d in, %d evicted",
			none.KVSwapOuts, none.KVSwapIns, none.KVTierEvictions)
	}
	tiered := kvRun(t, func(o *Options) {
		squeeze(o)
		o.KVTier = KVTierCPU
	}, 900)
	if tiered.KVSwapOuts == 0 {
		t.Fatal("tiered run under a 0.2% capacity factor never swapped")
	}
	if tiered.KVRecomputes >= none.KVRecomputes {
		t.Errorf("tier did not displace recomputes: %d tiered vs %d recompute-only",
			tiered.KVRecomputes, none.KVRecomputes)
	}
	if tiered.Completed == 0 {
		t.Error("nothing completed under tiered pressure")
	}
}

// TestKVTierNoneBitIdentical: KVTierNone is the default and must be a
// true no-op — explicitly setting it (and a swap policy, which is inert
// without a tier) leaves the pressured event stream byte-identical.
func TestKVTierNoneBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	squeeze := func(o *Options) {
		o.KVBlockTokens = 16
		o.KVCapacityFactor = 0.002
	}
	base := kvRun(t, squeeze, 900)
	explicit := kvRun(t, func(o *Options) {
		squeeze(o)
		o.KVTier = KVTierNone
		o.KVSwapPolicy = KVSwapAlways
	}, 900)
	if a, b := kvFingerprint(base), kvFingerprint(explicit); a != b {
		t.Errorf("explicit tier=none diverged from default:\nbase     %s\nexplicit %s", a, b)
	}
}

// TestPrefixCacheReducesTTFT: requests sharing a prompt group must hit
// the prefix cache, and skipping the shared prefill must show up as lower
// time to first token against the identical ungrouped trace.
func TestPrefixCacheReducesTTFT(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	repo, _ := fixtures(t)
	base := trace.OpenSourceHour(testPeakRPS, 11).Window(0, 900)
	grouped := trace.GroupPrompts(0, 900, 0.9, 2, 5)(base)
	opts, _ := SystemByName("multipool")
	opts.Seed = 7
	opts.Fidelity = FidelityEvent
	opts.WarmLoad = warmConv
	opts.KVBlockTokens = 16
	opts.KVPrefixCache = true

	plain := RunWithRepo(base, opts, repo)
	cached := RunWithRepo(grouped, opts, repo)
	for name, r := range map[string]*Result{"plain": plain, "cached": cached} {
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if plain.KVPrefixHits != 0 {
		t.Errorf("ungrouped trace recorded %d prefix hits", plain.KVPrefixHits)
	}
	if cached.KVPrefixHits == 0 {
		t.Fatal("grouped trace recorded no prefix hits")
	}
	if pm, cm := plain.TTFT.Mean(), cached.TTFT.Mean(); cm >= pm {
		t.Errorf("prefix cache did not reduce mean TTFT: %.4fs plain vs %.4fs cached (hits %d)",
			pm, cm, cached.KVPrefixHits)
	}
}

// TestDisaggServes: prefill/decode disaggregation completes requests via
// KV handoffs — every multi-token request crosses pools exactly once —
// with conservation intact, and the whole pipeline is deterministic and
// StepJobs-independent (prefill and decode twins share one group clock,
// so parallel stepping must not perturb the event order).
func TestDisaggServes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	run := func(jobs int) *Result {
		return kvRun(t, func(o *Options) {
			o.Disagg = true
			o.StepJobs = jobs
		}, 600)
	}
	res := run(1)
	if res.Handoffs == 0 {
		t.Fatal("disaggregated run recorded no KV handoffs")
	}
	if res.Completed == 0 {
		t.Fatal("disaggregated run completed nothing")
	}
	if res.Handoffs > res.Requests {
		t.Errorf("handoffs %d exceed routed requests %d (a request hands off at most once)",
			res.Handoffs, res.Requests)
	}
	par := run(4)
	if a, b := kvFingerprint(res), kvFingerprint(par); a != b {
		t.Errorf("disagg not StepJobs-independent:\njobs=1 %s\njobs=4 %s", a, b)
	}
	if res.Handoffs != par.Handoffs {
		t.Errorf("handoffs differ across StepJobs: %d vs %d", res.Handoffs, par.Handoffs)
	}
}

// TestLiveKVStats: the live session surface reports KV occupancy from the
// running engines and the run counters; fluid mode stays all-zero.
func TestLiveKVStats(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	repo, _ := fixtures(t)
	tr := trace.OpenSourceHour(testPeakRPS, 11).Window(0, 300)
	opts, _ := SystemByName("multipool")
	opts.Seed = 7
	opts.Fidelity = FidelityEvent
	opts.WarmLoad = warmConv
	opts.KVBlockTokens = 16

	l := NewLive(tr, opts, repo)
	l.AdvanceTo(120)
	st := l.KVStats()
	if st.TotalBlocks == 0 {
		t.Error("no KV capacity reported by live engines")
	}
	if st.UsedBlocks < 0 || st.UsedBlocks > st.TotalBlocks {
		t.Errorf("KV occupancy out of range: %d used of %d", st.UsedBlocks, st.TotalBlocks)
	}
	res := l.Finish()
	if err := res.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}

	opts.Fidelity = FidelityFluid
	opts.KVBlockTokens = 0
	fl := NewLive(tr, opts, repo)
	fl.AdvanceTo(120)
	if st := fl.KVStats(); st != (KVStats{}) {
		t.Errorf("fluid KVStats not zero: %+v", st)
	}
}

// TestLiveTierStats: a live event run with a spill tier under KV pressure
// reports in-range tier gauges mid-run, actually swaps, and finishes with
// the accounting identities intact.
func TestLiveTierStats(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation")
	}
	repo, _ := fixtures(t)
	tr := trace.OpenSourceHour(testPeakRPS, 11).Window(0, 600)
	opts, _ := SystemByName("multipool")
	opts.Seed = 7
	opts.Fidelity = FidelityEvent
	opts.WarmLoad = warmConv
	opts.KVBlockTokens = 16
	opts.KVCapacityFactor = 0.002
	opts.KVTier = KVTierCPU

	l := NewLive(tr, opts, repo)
	l.AdvanceTo(300)
	st := l.KVStats()
	if st.TierTotalBlocks == 0 {
		t.Error("no tier capacity reported by live engines")
	}
	if st.TierUsedBlocks < 0 || st.TierUsedBlocks > st.TierTotalBlocks {
		t.Errorf("tier occupancy out of range: %d used of %d", st.TierUsedBlocks, st.TierTotalBlocks)
	}
	l.AdvanceTo(600)
	res := l.Finish()
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if res.KVSwapOuts == 0 {
		t.Error("test exercised no swaps; shrink KVCapacityFactor")
	}
}
