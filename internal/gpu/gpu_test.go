package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLadder(t *testing.T) {
	fs := Ladder()
	if fs[0] != MinFreq {
		t.Errorf("ladder starts at %v, want %v", fs[0], MinFreq)
	}
	if fs[len(fs)-1] != MaxFreq {
		t.Errorf("ladder ends at %v, want %v", fs[len(fs)-1], MaxFreq)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatalf("ladder not increasing: %v", fs)
		}
	}
	if len(CoarseLadder()) != 4 {
		t.Errorf("coarse ladder size = %d, want 4", len(CoarseLadder()))
	}
}

func TestNearest(t *testing.T) {
	cases := []struct{ in, want Freq }{
		{790, 800}, {800, 800}, {899, 800}, {901, 1000},
		{1975, 1980}, {2500, 1980}, {100, 800},
	}
	for _, c := range cases {
		if got := Nearest(c.in); got != c.want {
			t.Errorf("Nearest(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPowerMonotonicInUtil(t *testing.T) {
	f := func(seed int64) bool {
		for _, fr := range Ladder() {
			prev := -1.0
			for u := 0.0; u <= 1.0; u += 0.1 {
				p := H100.Power(fr, u)
				if p < prev {
					return false
				}
				prev = p
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1}); err != nil {
		t.Error(err)
	}
}

func TestPowerMonotonicInFreq(t *testing.T) {
	for u := 0.1; u <= 1.0; u += 0.1 {
		prev := -1.0
		for _, fr := range Ladder() {
			p := H100.Power(fr, u)
			if p <= prev {
				t.Fatalf("power not increasing in frequency at util %v", u)
			}
			prev = p
		}
	}
}

func TestPowerEnvelope(t *testing.T) {
	idle := H100.Power(MinFreq, 0)
	if idle != H100.IdlePower {
		t.Errorf("idle power = %v, want %v", idle, H100.IdlePower)
	}
	tdp := H100.Power(MaxFreq, 1)
	if tdp < 650 || tdp > 720 {
		t.Errorf("peak power = %v W, want ~700 W (H100 board)", tdp)
	}
	// Power at clamped utilization equals power at the bound.
	if H100.Power(MaxFreq, 2) != H100.Power(MaxFreq, 1) {
		t.Error("utilization not clamped above 1")
	}
	if H100.Power(MaxFreq, -1) != H100.Power(MaxFreq, 0) {
		t.Error("utilization not clamped below 0")
	}
}

// TestFrequencyEnergyTradeoff captures the physics that makes DVFS worth it:
// halving the clock must cut busy power by much more than 2x (superlinear
// dynamic power), so that even with ~2x longer execution the energy drops.
func TestFrequencyEnergyTradeoff(t *testing.T) {
	pLow := H100.Power(800, 1) - H100.IdlePower
	pHigh := H100.Power(1980, 1) - H100.IdlePower
	ratio := pHigh / pLow
	slowdown := 1980.0 / 800.0
	if ratio <= slowdown {
		t.Errorf("busy power ratio %v must exceed slowdown %v for DVFS savings", ratio, slowdown)
	}
}

func TestTransferTime(t *testing.T) {
	// 1/8 of Llama2-70B FP16 weights: 70e9*2/8 = 17.5 GB at 300 GB/s
	// is ~58 ms — the paper's T ≈ 50 ms unit (§IV-C).
	tt := TransferTime(70e9 * 2 / 8)
	if tt < 0.04 || tt > 0.08 {
		t.Errorf("T = %v s, want ~0.05-0.06 s", tt)
	}
	if TransferTime(0) != 0 || TransferTime(-5) != 0 {
		t.Error("non-positive transfers must take zero time")
	}
}

func TestFreqControllerElidesNoOps(t *testing.T) {
	fc := NewFreqController(false)
	if d := fc.Set(MaxFreq); d != 0 {
		t.Errorf("setting current freq stalled %v, want 0", d)
	}
	if d := fc.Set(800); d != SlowSetOverhead {
		t.Errorf("slow set stall = %v, want %v", d, SlowSetOverhead)
	}
	if fc.Current() != 800 {
		t.Errorf("current = %v, want 800", fc.Current())
	}
	if fc.Sets() != 1 {
		t.Errorf("sets = %d, want 1", fc.Sets())
	}
}

func TestFreqControllerFastPath(t *testing.T) {
	fc := NewFreqController(true)
	if d := fc.Set(1200); d != FastSetOverhead {
		t.Errorf("fast set stall = %v, want %v", d, FastSetOverhead)
	}
	if FastSetOverhead >= SlowSetOverhead {
		t.Error("fast path must be faster than slow path")
	}
}

func TestForceSetAlwaysStalls(t *testing.T) {
	fc := NewFreqController(false)
	total := 0.0
	for i := 0; i < 10; i++ {
		total += fc.ForceSet(MaxFreq)
	}
	if fc.Sets() != 10 {
		t.Errorf("sets = %d, want 10", fc.Sets())
	}
	if math.Abs(total-10*SlowSetOverhead) > 1e-12 {
		t.Errorf("stall = %v, want %v", total, 10*SlowSetOverhead)
	}
}

func TestPowerShared(t *testing.T) {
	if got := H100.PowerShared(MaxFreq, 0, 1); got != H100.IdlePower {
		t.Errorf("idle shared power = %v, want %v", got, H100.IdlePower)
	}
	if got, want := H100.PowerShared(MaxFreq, 1, 1), H100.Power(MaxFreq, 1); got != want {
		t.Errorf("fully busy shared power = %v, want %v", got, want)
	}
	half := H100.PowerShared(MaxFreq, 0.5, 1)
	want := 0.5*H100.Power(MaxFreq, 1) + 0.5*H100.IdlePower
	if half != want {
		t.Errorf("half busy power = %v, want %v", half, want)
	}
	if got := H100.PowerShared(MaxFreq, 2, 1); got != H100.Power(MaxFreq, 1) {
		t.Error("busyFrac not clamped")
	}
}

func TestVoltageKnee(t *testing.T) {
	// Below the knee the voltage is pinned: busy power at 800 MHz and at
	// the knee frequency differ only by the dynamic fn term.
	knee := Freq(H100.VKnee * float64(MaxFreq))
	pLow := H100.Power(800, 0.001)
	pKnee := H100.Power(knee, 0.001)
	if math.Abs(pLow-pKnee) > 1.0 {
		t.Errorf("near-zero-util power below knee: %v vs %v, want ~equal", pLow, pKnee)
	}
}

// TestEnergyOptimalClockNearKnee pins the headline DVFS behaviour: for a
// fixed amount of compute-bound work (time ~ 1/fn at util 1), energy is
// minimized near the 1.2 GHz knee, not at the lowest or highest clock —
// the shape all of the paper's heatmap rows share.
func TestEnergyOptimalClockNearKnee(t *testing.T) {
	energyAt := func(f Freq) float64 {
		busy := H100.Power(f, 1) - H100.IdlePower
		return busy / FracOfMax(f) // power x (1/fn) time
	}
	e08, e12, e16, e20 := energyAt(800), energyAt(1200), energyAt(1600), energyAt(MaxFreq)
	if !(e12 < e08 && e12 < e16 && e16 < e20) {
		t.Errorf("energy curve not U-shaped with min at 1.2 GHz: 0.8=%v 1.2=%v 1.6=%v 2.0=%v",
			e08, e12, e16, e20)
	}
}

func TestSetSnapsToLadder(t *testing.T) {
	fc := NewFreqController(true)
	fc.Set(1234)
	if fc.Current() != 1200 {
		t.Errorf("current = %v, want snapped 1200", fc.Current())
	}
}
