// Package gpu models the hardware substrate of a DynamoLLM cluster: NVIDIA
// H100 GPUs with a DVFS frequency ladder, a calibrated power model, the
// nvidia-smi frequency-setting path (slow syscall path vs. the paper's
// resident-monitor fast path, §IV-C), and the intra-server NVLink fabric used
// for re-sharding transfers.
package gpu

import (
	"fmt"
	"math"
)

// Freq is a GPU core clock in MHz.
type Freq float64

// The H100 DVFS ladder the paper profiles: 800–1980 MHz with a 200 MHz step
// (§IV-A). 1980 MHz is the boost ceiling used by the baselines.
const (
	MinFreq  Freq = 800
	MaxFreq  Freq = 1980
	FreqStep Freq = 200
)

// ladder is the shared profiled grid; Ladder and Nearest sit on every
// controller's per-tick path, so neither may allocate.
var ladder = func() []Freq {
	var fs []Freq
	for f := MinFreq; f < MaxFreq; f += FreqStep {
		fs = append(fs, f)
	}
	return append(fs, MaxFreq)
}()

// Ladder returns the profiled frequency grid: 800, 1000, …, 1800, 1980 MHz.
// The slice is shared — callers must not modify it.
func Ladder() []Freq { return ladder }

// CoarseLadder returns the four frequencies the paper's characterization
// tables use: 0.8, 1.2, 1.6, 2.0 GHz (2.0 is the 1980 MHz boost bin).
func CoarseLadder() []Freq { return []Freq{800, 1200, 1600, MaxFreq} }

// Nearest snaps an arbitrary frequency onto the ladder. Ladder values
// (the common case on the hot path) return immediately.
func Nearest(f Freq) Freq {
	best, bestD := MinFreq, math.Inf(1)
	for _, g := range ladder {
		if g == f {
			return f
		}
		if d := math.Abs(float64(g - f)); d < bestD {
			best, bestD = g, d
		}
	}
	return best
}

func (f Freq) String() string {
	return fmt.Sprintf("%.1fGHz", float64(f)/1000)
}

// Spec describes one GPU SKU's power envelope. Power in watts. The model
// has a DVFS voltage curve with a Vmin floor, so both directions of the
// paper's energy-vs-frequency U-shape emerge (Tables I-III):
//
//	vn(fn)  = max(VBase + VSlope*VKnee, VBase + VSlope*fn)   (vn(1) = 1)
//	P       = Idle + busy*(Floor + Leak*vn^2 + Dyn*util*fn*vn^2)
//
// Above the knee, voltage scales with frequency and dynamic power grows
// ~f^3, so high clocks cost energy. Below the knee the voltage regulator
// hits Vmin: leakage power (Leak*vn^2) stops shrinking while execution
// keeps stretching, so energy per operation rises again. The energy-optimal
// clock therefore sits near the knee (~1.2 GHz on H100), exactly where the
// paper's heatmaps bottom out.
type Spec struct {
	// IdlePower is drawn whenever the GPU is powered on, independent of
	// frequency and load (HBM refresh, fans share, leakage at idle rail).
	IdlePower float64
	// BusyFloorPower is drawn while any kernel is resident, independent
	// of core clock and voltage: HBM access energy, memory controllers,
	// NVLink PHYs.
	BusyFloorPower float64
	// LeakPower is the voltage-dependent static power while busy (SM
	// leakage and clock tree), scaling with vn^2.
	LeakPower float64
	// MaxDynPower is the switching power at 100% SM utilization at max
	// clock and voltage, scaling with fn*vn^2. The sum of all four terms
	// is the board TDP.
	MaxDynPower float64
	// VBase and VSlope define the normalized voltage curve vn = VBase +
	// VSlope*fn (VBase+VSlope = 1 so vn(1) = 1).
	VBase, VSlope float64
	// VKnee is the normalized frequency below which voltage is pinned at
	// Vmin (the DVFS knee).
	VKnee float64
}

// H100 is the SKU used throughout the paper (DGX H100, 700 W boards).
var H100 = Spec{
	IdlePower:      85,
	BusyFloorPower: 25,
	LeakPower:      110,
	MaxDynPower:    480,
	VBase:          0.35,
	VSlope:         0.65,
	VKnee:          0.606,
}

// FracOfMax returns f normalized to the boost ceiling.
func FracOfMax(f Freq) float64 { return float64(f) / float64(MaxFreq) }

// voltage returns the normalized supply voltage at normalized frequency fn.
func (s Spec) voltage(fn float64) float64 {
	v := s.VBase + s.VSlope*fn
	vmin := s.VBase + s.VSlope*s.VKnee
	return math.Max(v, vmin)
}

// Power returns the instantaneous board power in watts at the given clock
// and utilization (0-1). util is the fraction of time SMs are executing;
// util == 0 means fully idle (no resident kernels).
func (s Spec) Power(f Freq, util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	fn := FracOfMax(f)
	p := s.IdlePower
	if util > 0 {
		v2 := s.voltage(fn)
		v2 *= v2
		p += s.BusyFloorPower
		p += s.LeakPower * v2
		p += s.MaxDynPower * util * fn * v2
	}
	return p
}

// PowerShared returns board power when the GPU is busy for busyFrac of the
// accounting interval with SM utilization util while busy. This is the form
// the fluid simulator integrates.
func (s Spec) PowerShared(f Freq, busyFrac, util float64) float64 {
	if busyFrac <= 0 {
		return s.IdlePower
	}
	if busyFrac > 1 {
		busyFrac = 1
	}
	busy := s.Power(f, util)
	return busyFrac*busy + (1-busyFrac)*s.IdlePower
}

// ServerGPUs is the GPU count of one DGX H100 server.
const ServerGPUs = 8

// NVLinkBandwidth is the per-direction inter-GPU bandwidth used for weight
// transfers during re-sharding, in bytes/second (§IV-C uses 300 GB/s).
const NVLinkBandwidth = 300e9

// TransferTime returns the time in seconds to move bytes between two GPUs
// over NVLink, assuming the transfer runs at full link bandwidth (transfers
// between distinct pairs proceed in parallel).
func TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / NVLinkBandwidth
}

// --- Frequency controller ---------------------------------------------------

// Overheads of applying a frequency change (§III-C): invoking nvidia-smi,
// driver syscalls, and firmware interaction cost 50–80 ms on the default
// path. The paper's optimization keeps the management interface resident and
// runs privileged, cutting the software portion.
const (
	// SlowSetOverhead is the default nvidia-smi invocation path, seconds.
	SlowSetOverhead = 0.065
	// FastSetOverhead is the resident-monitor privileged path, seconds.
	// Only the firmware interaction remains.
	FastSetOverhead = 0.004
)

// FreqController models per-GPU clock management. Setting a frequency stalls
// inference for the configured overhead; the paper shows this matters when
// done naively on every iteration (Fig. 3).
type FreqController struct {
	cur      Freq
	resident bool // resident monitor + privileged mode fast path
	sets     int
}

// NewFreqController returns a controller at MaxFreq. resident selects the
// optimized fast path from §IV-C.
func NewFreqController(resident bool) *FreqController {
	return &FreqController{cur: MaxFreq, resident: resident}
}

// Current returns the applied clock.
func (fc *FreqController) Current() Freq { return fc.cur }

// Sets returns how many frequency changes were applied.
func (fc *FreqController) Sets() int { return fc.sets }

// Set applies a new clock and returns the stall duration this change imposes
// on the colocated inference engine. Setting the current frequency is free:
// the controller elides the call.
func (fc *FreqController) Set(f Freq) float64 {
	f = Nearest(f)
	if f == fc.cur {
		return 0
	}
	fc.cur = f
	fc.sets++
	d := SlowSetOverhead
	if fc.resident {
		d = FastSetOverhead
	}
	return d
}

// ForceSet applies the clock even if unchanged, modeling naive managers that
// re-issue nvidia-smi every iteration (the SwitchFreq series of Fig. 3).
func (fc *FreqController) ForceSet(f Freq) float64 {
	fc.cur = Nearest(f)
	fc.sets++
	d := SlowSetOverhead
	if fc.resident {
		d = FastSetOverhead
	}
	return d
}
