// Package model defines the catalog of LLM architectures used throughout the
// DynamoLLM reproduction: the models the paper characterizes in Table III
// (Llama2-13B/70B, Llama3-70B, Mixtral-8x7B/8x22B, Falcon-180B) plus the
// parameters the performance and re-sharding substrates need — weight
// footprint, layer counts, per-token compute/memory demand, and the minimum
// tensor parallelism that fits the weights in GPU memory.
package model

import (
	"fmt"
)

// TP is a tensor-parallelism degree: the number of GPUs a single model
// instance is sharded across. The paper considers TP2, TP4, and TP8 on a
// single DGX server (§II).
type TP int

// Supported tensor parallelism degrees.
const (
	TP1 TP = 1
	TP2 TP = 2
	TP4 TP = 4
	TP8 TP = 8
)

// AllTP lists the parallelism degrees the controllers consider, in increasing
// order. TP1 exists in the catalog (small models fit on one GPU) but the
// paper's knob space is {2, 4, 8}; the solver uses TPChoices.
var AllTP = []TP{TP1, TP2, TP4, TP8}

// TPChoices is the knob space used by the paper's controllers, in
// increasing order. A degree's index here is its Slot: per-TP state is an
// array of len(TPChoices) indexed by Slot, and slot order is ascending TP.
var TPChoices = [...]TP{TP2, TP4, TP8}

func (t TP) String() string { return fmt.Sprintf("TP%d", int(t)) }

// Slot returns the degree's index in TPChoices. A degree outside the
// controllers' knob space would silently corrupt per-TP state, so it
// panics instead.
func (t TP) Slot() int {
	for i, c := range TPChoices {
		if c == t {
			return i
		}
	}
	panic(fmt.Sprintf("model: %v outside TPChoices", t))
}

// GPUs returns the GPU count as an int.
func (t TP) GPUs() int { return int(t) }

// Model describes one LLM architecture.
type Model struct {
	// Name is the catalog key, e.g. "llama2-70b".
	Name string
	// Params is the total parameter count.
	Params float64
	// ActiveParams is the parameter count touched per token. For dense
	// models it equals Params; MoE models activate a subset of experts.
	ActiveParams float64
	// Layers is the number of transformer layers (pipeline/shard unit).
	Layers int
	// WeightBytes is the on-GPU weight footprint in bytes at FP16.
	WeightBytes float64
	// KVBytesPerToken is the KV-cache footprint of one token in bytes
	// across all layers at FP16.
	KVBytesPerToken float64
	// MinTP is the smallest tensor parallelism whose per-GPU share of the
	// weights (plus working space) fits in one H100's 80 GB.
	MinTP TP
}

const (
	bytesPerParam = 2.0 // FP16
	// h100MemBytes is the HBM per GPU (80 GB); we reserve ~12% for
	// activations, CUDA context, and fragmentation, as serving stacks do.
	// 0.88 reproduces the paper's feasibility boundary: Llama2-70B runs at
	// TP2 (70.0 GB/GPU, with a very small KV budget), while Mixtral-8x22B
	// does not fit at TP4 (70.5 GB/GPU) and needs TP8 (Table III).
	h100MemBytes   = 80e9
	usableFraction = 0.88
)

// define builds a model, deriving footprint and MinTP from the raw
// architecture numbers.
func define(name string, params, activeParams float64, layers, kvHeads, headDim int) *Model {
	m := &Model{
		Name:         name,
		Params:       params,
		ActiveParams: activeParams,
		Layers:       layers,
		WeightBytes:  params * bytesPerParam,
	}
	// KV cache: 2 (K and V) × layers × kvHeads × headDim × bytes.
	m.KVBytesPerToken = 2 * float64(layers) * float64(kvHeads) * float64(headDim) * bytesPerParam
	for _, tp := range AllTP {
		perGPU := m.WeightBytes / float64(tp.GPUs())
		if perGPU <= h100MemBytes*usableFraction {
			m.MinTP = tp
			break
		}
	}
	if m.MinTP == 0 {
		panic("model: " + name + " does not fit on 8 GPUs")
	}
	return m
}

// The catalog. Architecture numbers follow the public model cards; MoE
// models list total and active (top-2 experts) parameters.
var (
	Llama2_13B  = define("llama2-13b", 13e9, 13e9, 40, 40, 128)
	Llama2_70B  = define("llama2-70b", 68.5e9, 68.5e9, 80, 8, 128)
	Llama3_70B  = define("llama3-70b", 70e9, 70e9, 80, 8, 128)
	Mixtral8x7B = define("mixtral-8x7b", 47e9, 13e9, 32, 8, 128)
	Mixtral22B  = define("mixtral-8x22b", 141e9, 39e9, 56, 8, 128)
	Falcon180B  = define("falcon-180b", 180e9, 180e9, 80, 8, 64)
)

// catalog lists the known models, sorted by name.
var catalog = []*Model{Falcon180B, Llama2_13B, Llama2_70B, Llama3_70B, Mixtral22B, Mixtral8x7B}

// Lookup returns the model with the given name, or an error listing the
// known names.
func Lookup(name string) (*Model, error) {
	for _, m := range catalog {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("model: unknown model %q (known: %v)", name, Names())
}

// Names returns the catalog's model names, sorted.
func Names() []string {
	names := make([]string, len(catalog))
	for i, m := range catalog {
		names[i] = m.Name
	}
	return names
}

// FeasibleTP reports whether the model can run at the given parallelism:
// the per-GPU weight share must fit, and the degree must be at least MinTP.
func (m *Model) FeasibleTP(tp TP) bool {
	return tp >= m.MinTP
}

// ShardBytes returns the per-GPU weight footprint at the given parallelism.
func (m *Model) ShardBytes(tp TP) float64 {
	return m.WeightBytes / float64(tp.GPUs())
}

// KVCapacityTokens returns how many KV-cache tokens fit across the instance
// at the given parallelism, after weights are resident. This bounds the
// number of in-flight tokens the engine can batch.
func (m *Model) KVCapacityTokens(tp TP) float64 {
	free := float64(tp.GPUs())*h100MemBytes*usableFraction - m.WeightBytes
	if free < 0 {
		return 0
	}
	return free / m.KVBytesPerToken
}

// Sparsity returns ActiveParams/Params, the fraction of weights touched per
// token (1.0 for dense models).
func (m *Model) Sparsity() float64 { return m.ActiveParams / m.Params }

func (m *Model) String() string { return m.Name }
