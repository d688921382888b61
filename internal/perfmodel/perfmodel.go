// Package perfmodel is the analytic performance substrate of the DynamoLLM
// reproduction: a roofline-style model of one vLLM-like inference instance
// (continuous batching with chunked prefill) running an LLM at a given
// tensor parallelism and GPU frequency.
//
// The paper measures a real DGX H100; we replace it with this calibrated
// model. Everything the controllers observe — iteration latency (TBT),
// prefill latency (TTFT), throughput capacity, SM utilization, and power —
// derives from the functions here, so calibrating this package against the
// shapes of Tables I–III calibrates the whole system.
//
// Latency model for one engine iteration that prefills nPrefill prompt
// tokens and decodes one token for each of B resident sequences holding
// ctxTokens total KV context:
//
//	tIter = tComm(TP) + tLaunch(f) + max(tCompute, tMemory)
//	tCompute = 2·activeParams·(nPrefill + B) / (TP·eff(TP)·C·fn)
//	tMemory  = (touchedWeightBytes + ctxTokens·kvBytes) / (TP·Bw·memScale(fn))
//
// Prefill is compute-bound (scales with clock), decode is memory-bound
// (weights are re-read every iteration; bandwidth is only mildly
// clock-sensitive). Communication is two all-reduces per layer over NVLink
// and does not scale with GPU clock.
package perfmodel

import (
	"math"

	"dynamollm/internal/gpu"
	"dynamollm/internal/model"
	"dynamollm/internal/workload"
)

// Calibration constants. These are the "measured machine": achieved (not
// peak-datasheet) rates on H100, chosen so the model lands in the paper's
// reported ranges (decode iterations of 20–30 ms for Llama2-70B, TTFT SLOs
// at 5× isolated latency, ~19% energy savings from DVFS alone).
const (
	// CompPerGPU is achieved FP16 FLOP/s per GPU at max clock.
	CompPerGPU = 395e12
	// MemBwPerGPU is achieved HBM bandwidth per GPU in bytes/s.
	MemBwPerGPU = 1.4e12
	// MemFreqFloor is the fraction of bandwidth retained as the core
	// clock approaches zero: achieved bandwidth = floor + (1-floor)·fn.
	MemFreqFloor = 0.32
	// PrefillChunk is the max prompt tokens an iteration admits
	// (chunked prefill, SARATHI-style), bounding decode-latency impact.
	PrefillChunk = 512
	// LaunchPerLayer is the per-layer kernel launch/scheduling overhead
	// at max clock, in seconds; it scales partially with clock.
	LaunchPerLayer = 6e-6
	// StallUtilWeight is the effective SM utilization while the GPU is
	// stalled on memory: some warps still issue, so dynamic power is not
	// zero during the memory-bound portion.
	StallUtilWeight = 0.22
	// MoEBatchSaturation is the batch size at which a mixture-of-experts
	// model touches essentially all experts each iteration.
	MoEBatchSaturation = 16
)

// compEff is the tensor-parallel scaling efficiency of compute: all-reduce
// exposure and kernel-size shrinkage cost more at higher degrees.
func compEff(tp model.TP) float64 {
	switch tp {
	case model.TP1:
		return 1.0
	case model.TP2:
		return 0.94
	case model.TP4:
		return 0.86
	case model.TP8:
		return 0.74
	}
	return 1.0
}

// commPerLayer is the per-layer all-reduce latency (two all-reduces) in
// seconds, independent of GPU core clock (NVLink-bound).
func commPerLayer(tp model.TP) float64 {
	switch tp {
	case model.TP1:
		return 0
	case model.TP2:
		return 9e-6
	case model.TP4:
		return 14e-6
	case model.TP8:
		return 22e-6
	}
	return 0
}

// Config identifies one instance configuration: the knob settings the
// controllers manipulate.
type Config struct {
	Model *model.Model
	TP    model.TP
	Freq  gpu.Freq
}

// Feasible reports whether the model fits at this parallelism.
func (c Config) Feasible() bool { return c.Model.FeasibleTP(c.TP) }

// GPUs returns the GPU count of the configuration.
func (c Config) GPUs() int { return c.TP.GPUs() }

// fn returns the normalized clock.
func (c Config) fn() float64 { return gpu.FracOfMax(c.Freq) }

// memScale returns the achieved-bandwidth factor at this clock.
func (c Config) memScale() float64 {
	return MemFreqFloor + (1-MemFreqFloor)*c.fn()
}

// compRate returns the instance's achieved FLOP/s.
func (c Config) compRate() float64 {
	return float64(c.GPUs()) * compEff(c.TP) * CompPerGPU * c.fn()
}

// memRate returns the instance's achieved bytes/s.
func (c Config) memRate() float64 {
	return float64(c.GPUs()) * MemBwPerGPU * c.memScale()
}

// launchTime returns fixed per-iteration overhead (kernel launches and
// scheduling across all layers). Roughly 40% of it is host-side and clock
// independent; the rest follows the GPU clock.
func (c Config) launchTime() float64 {
	perLayer := LaunchPerLayer * (0.4 + 0.6/c.fn())
	return float64(c.Model.Layers) * perLayer
}

// commTime returns the per-iteration all-reduce time.
func (c Config) commTime() float64 {
	return float64(c.Model.Layers) * commPerLayer(c.TP)
}

// touchedWeights returns the weight bytes read per iteration. Dense models
// read the full shard set; MoE models read the active experts at small
// batch, approaching all experts as the batch grows.
func (c Config) touchedWeights(batch float64) float64 {
	s := c.Model.Sparsity()
	if s >= 1 {
		return c.Model.WeightBytes
	}
	frac := s + (1-s)*math.Min(1, batch/MoEBatchSaturation)
	return c.Model.WeightBytes * frac
}

// Batch describes the work admitted to one engine iteration.
type Batch struct {
	// PrefillTokens is the number of prompt tokens processed.
	PrefillTokens float64
	// DecodeSeqs is the number of sequences generating one token each.
	DecodeSeqs float64
	// ContextTokens is the total resident KV context across all
	// sequences in the batch (prefill and decode).
	ContextTokens float64
}

// IterResult reports the cost of one iteration.
type IterResult struct {
	// Time is the iteration latency in seconds.
	Time float64
	// Util is the effective SM utilization for the power model.
	Util float64
}

// Iter evaluates one engine iteration under the configuration.
func (c Config) Iter(b Batch) IterResult {
	tokens := b.PrefillTokens + b.DecodeSeqs
	if tokens <= 0 {
		return IterResult{}
	}
	flop := 2 * c.Model.ActiveParams * tokens
	tComp := flop / c.compRate()
	bytes := c.touchedWeights(b.DecodeSeqs+b.PrefillTokens/64) + b.ContextTokens*c.Model.KVBytesPerToken
	tMem := bytes / c.memRate()
	body := math.Max(tComp, tMem)
	t := c.commTime() + c.launchTime() + body
	// SMs are fully busy during the compute-bound portion; during memory
	// stalls they draw a reduced effective utilization.
	var util float64
	if body > 0 {
		busyComp := math.Min(tComp, body)
		util = (busyComp + StallUtilWeight*(body-busyComp)) / t
	}
	return IterResult{Time: t, Util: util}
}

// IsolatedPrefill returns the time to prefill n prompt tokens on an
// otherwise idle instance (chunked, one chunk per iteration).
//
//dynamolint:api Table IV reference latency the perfmodel and engine tests compare against
func (c Config) IsolatedPrefill(n int) float64 {
	if n <= 0 {
		return 0
	}
	total := 0.0
	remaining := n
	ctx := 0.0
	for remaining > 0 {
		chunk := remaining
		if chunk > PrefillChunk {
			chunk = PrefillChunk
		}
		ctx += float64(chunk)
		r := c.Iter(Batch{PrefillTokens: float64(chunk), ContextTokens: ctx})
		total += r.Time
		remaining -= chunk
	}
	return total
}

// IsolatedTBT returns the decode iteration time for a single resident
// sequence with the given context length.
//
//dynamolint:api Table IV reference latency the perfmodel and engine tests compare against
func (c Config) IsolatedTBT(ctx int) float64 {
	return c.Iter(Batch{DecodeSeqs: 1, ContextTokens: float64(ctx)}).Time
}

// ReferenceConfig is the configuration the paper derives SLOs from: the
// request runs isolated on a system at high performance. We use TP8 at max
// frequency, matching "maximum achievable performance" (§II).
//
//dynamolint:api Table IV reference configuration TestIsolatedLatencyWithinSLOHeadroom checks workload.SLOFor against
func ReferenceConfig(m *model.Model) Config {
	return Config{Model: m, TP: model.TP8, Freq: gpu.MaxFreq}
}

// --- Steady-state fluid solution -------------------------------------------

// Steady is the self-consistent operating point of an instance serving a
// homogeneous request stream at a fixed arrival rate. It is the fluid
// (discrete-time simulator) counterpart of the event-level engine and the
// basis of the profile tables.
type Steady struct {
	// IterTime is the equilibrium mean iteration latency (the mean TBT).
	IterTime float64
	// ChunkIterTime is the latency of an iteration carrying a full
	// prefill chunk; it governs the TBT tail.
	ChunkIterTime float64
	// TTFTMean and TTFTP99 are the modeled time-to-first-token.
	TTFTMean, TTFTP99 float64
	// TBTMean and TBTP99 are the modeled time-between-tokens.
	TBTMean, TBTP99 float64
	// PowerPerGPU is the average board power per GPU in watts.
	PowerPerGPU float64
	// Power is the average instance power in watts (all GPUs).
	Power float64
	// EnergyPerRequest is the average energy per request in joules,
	// attributing the instance's whole power (idle share included) to
	// the request stream.
	EnergyPerRequest float64
	// Feasible reports whether the operating point exists (utilization
	// below saturation and KV cache within capacity).
	Feasible bool
}

const (
	// maxRho is the utilization treated as saturation: beyond it queues
	// grow without bound and tail latency explodes.
	maxRho = 0.92
	// stretchedGapP99 is the fraction of inter-token gaps that must be
	// prefill-stretched before the stretched value becomes the P99.
	stretchedGapP99 = 0.01
	// wasteCoeff and wasteExp shape the recompute waste near saturation:
	// vLLM-style engines preempt and re-prefill requests under memory
	// pressure, so effective work inflates steeply as rho approaches 1.
	wasteCoeff = 0.8
	wasteExp   = 6
)

// SteadyState solves the fluid equilibrium for arrival rate lambda (req/s)
// of requests with the given mean input/output lengths. It does not depend
// on the SLO: MeetsSLO judges the result against a (scaled) class SLO.
//
// Derivation: in continuous batching each request decodes one token per
// iteration, so a request resides for ~out iterations and Little's law
// gives B = lambda*out*tIter resident sequences. Prompt tokens arrive at
// lambda*in tokens/s and are served in chunks of up to PrefillChunk per
// iteration, piggybacked on the decode batch. The mean iteration time is a
// fixed point that is linear in tIter on each roofline branch; the TBT tail
// is governed by iterations carrying a full chunk.
func SteadyState(cfg Config, lambda float64, inTokens, outTokens int) Steady {
	st := Steady{Feasible: true}
	if !cfg.Feasible() {
		st.Feasible = false
		return st
	}
	if lambda <= 0 {
		st.PowerPerGPU = gpu.H100.IdlePower
		st.Power = st.PowerPerGPU * float64(cfg.GPUs())
		return st
	}
	in, out := float64(inTokens), float64(outTokens)
	if out < 1 {
		out = 1
	}
	avgCtx := in + out/2 // mean resident context of a decoding sequence

	// Demand rates.
	tokRate := lambda * (in + out)
	alpha := 2 * cfg.Model.ActiveParams * tokRate / cfg.compRate()
	beta := lambda * out * avgCtx * cfg.Model.KVBytesPerToken / cfg.memRate()
	k := cfg.commTime() + cfg.launchTime()

	if alpha >= 1 || beta >= 1 {
		st.Feasible = false
		return st
	}

	// Mean-iteration fixed point: tIter = k + max(alpha*t, beta*t + mu(B)).
	// mu depends weakly on batch via MoE expert touching; iterate (dense
	// models converge immediately).
	tIter := 0.030
	for i := 0; i < 10; i++ {
		batch := lambda * out * tIter
		mu := cfg.touchedWeights(batch) / cfg.memRate()
		tIter = math.Max(k/(1-alpha), (k+mu)/(1-beta))
	}
	batch := lambda * out * tIter
	st.IterTime = tIter
	st.TBTMean = tIter

	// KV capacity: the resident context must fit.
	if batch*avgCtx > cfg.Model.KVCapacityTokens(cfg.TP) {
		st.Feasible = false
	}

	// A chunk-carrying iteration: the engine admits queued prompt tokens
	// up to PrefillChunk per iteration. The typical carried chunk is the
	// demand per iteration, but at least one whole prompt segment.
	chunk := math.Min(PrefillChunk, math.Max(lambda*in*tIter, math.Min(in, PrefillChunk)))
	pf := cfg.Iter(Batch{
		PrefillTokens: chunk,
		DecodeSeqs:    batch,
		ContextTokens: batch*avgCtx + chunk,
	})
	st.ChunkIterTime = pf.Time

	// TBT tail: each arrival stretches one inter-token gap of every
	// resident sequence per chunk; the stretched fraction of the pooled
	// gap stream is nChunks*B/out.
	nChunks := math.Ceil(in / PrefillChunk)
	phi := nChunks * batch / out
	if phi >= stretchedGapP99 {
		st.TBTP99 = math.Max(pf.Time, tIter)
	} else {
		st.TBTP99 = tIter * (1 + 0.25*math.Max(alpha, beta))
	}

	// TTFT: prompts are served by the prefill channel, whose capacity is
	// one chunk per carrying iteration. M/D/1-like waiting on top of the
	// chunk service time.
	rhoPf := lambda * in * pf.Time / PrefillChunk
	var wait float64
	if rhoPf < 1 {
		wait = 0.5 * pf.Time * rhoPf / (1 - rhoPf)
	} else {
		wait = math.Inf(1)
	}
	base := nChunks*pf.Time + 0.5*tIter
	st.TTFTMean = base + wait
	st.TTFTP99 = base*1.1 + 3*wait

	rho := math.Max(math.Max(alpha, beta), rhoPf)
	if rho > maxRho {
		st.Feasible = false
	}

	// Power: a continuous-batching engine runs iterations back-to-back
	// whenever any request is resident, so the GPU draws busy power the
	// whole time (SM utilization, not busy fraction, differentiates the
	// load levels). Only at vanishing load (expected batch below one)
	// does the engine actually idle between requests. Near saturation
	// the engine additionally wastes work on preemption recompute,
	// inflating utilization.
	busy := math.Min(1, batch)
	mean := cfg.Iter(Batch{
		PrefillTokens: math.Min(lambda*in*tIter, PrefillChunk),
		DecodeSeqs:    math.Max(batch, 1),
		ContextTokens: math.Max(batch, 1) * avgCtx,
	})
	waste := 1 + wasteCoeff*math.Pow(rho, wasteExp)
	// The power model clamps the inflated utilization to 1.
	st.PowerPerGPU = gpu.H100.PowerShared(cfg.Freq, busy, mean.Util*waste)
	st.Power = st.PowerPerGPU * float64(cfg.GPUs())
	st.EnergyPerRequest = st.Power / lambda
	return st
}

// MeetsSLO reports whether the steady state satisfies the class SLO
// (P99 against the Table IV targets, scaled by sloScale).
func (st Steady) MeetsSLO(class workload.Class, sloScale float64) bool {
	if !st.Feasible {
		return false
	}
	slo := workload.SLOFor(class)
	if sloScale > 1 {
		slo = slo.Scale(sloScale)
	}
	return st.TTFTP99 <= slo.TTFT && st.TBTP99 <= slo.TBT
}

// MaxLoadShape returns the highest request rate (req/s) of an arbitrary
// request shape the configuration can serve within explicit TTFT/TBT
// targets, found by bisection. Mixed pools use it with a smoothed SLO so
// capacity does not jump when the average mix crosses a class boundary.
func MaxLoadShape(cfg Config, in, out int, ttftSLO, tbtSLO float64) (float64, bool) {
	return maxRate(36, func(lambda float64) bool {
		st := SteadyState(cfg, lambda, in, out)
		return st.Feasible && st.TTFTP99 <= ttftSLO && st.TBTP99 <= tbtSLO
	})
}

// MaxLoad returns the highest request rate (req/s) of the given shape the
// configuration can serve within the class SLO, found by bisection. The
// second result is false when even a vanishing load violates the SLO.
func MaxLoad(cfg Config, class workload.Class, sloScale float64) (float64, bool) {
	in, out := workload.RepresentativeLengths(class)
	return maxRate(40, func(lambda float64) bool {
		return SteadyState(cfg, lambda, in, out).MeetsSLO(class, sloScale)
	})
}

// maxRate finds the highest rate that meets, by doubling from 1 req/s
// (capped at 1e4) and then bisecting iters times. It returns false when
// even 1e-4 req/s fails.
func maxRate(iters int, meets func(lambda float64) bool) (float64, bool) {
	if !meets(1e-4) {
		return 0, false
	}
	lo, hi := 1e-4, 1.0
	for meets(hi) {
		lo = hi
		hi *= 2
		if hi > 1e4 {
			return lo, true
		}
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}
