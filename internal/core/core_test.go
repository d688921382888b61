package core

import (
	"reflect"
	"slices"
	"testing"

	"dynamollm/internal/model"
	"dynamollm/internal/workload"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Model != model.Llama2_70B {
		t.Error("default model should be llama2-70b")
	}
	if o.NumPools != workload.NumClasses {
		t.Errorf("default pools = %d, want 9", o.NumPools)
	}
	if o.Tick != 5 || o.PoolEpoch != 300 || o.ClusterEpoch != 1800 {
		t.Errorf("default tick/epochs = %v/%v/%v", o.Tick, o.PoolEpoch, o.ClusterEpoch)
	}
	if o.Servers != 12 {
		t.Errorf("default servers = %d, want 12", o.Servers)
	}
	if o.PredictorAccuracy != 1 {
		t.Errorf("default accuracy = %v, want 1", o.PredictorAccuracy)
	}
}

// preset resolves a system name that must exist.
func preset(name string) Options {
	o, ok := SystemByName(name)
	if !ok {
		panic("unknown system " + name)
	}
	return o
}

func TestSystemPresets(t *testing.T) {
	sp := preset("singlepool")
	if sp.NumPools != 1 || sp.ScaleInstances || sp.ScaleSharding || sp.ScaleFrequency {
		t.Errorf("singlepool = %+v", sp)
	}
	dl := DynamoLLM()
	if !dl.ScaleInstances || !dl.ScaleSharding || !dl.ScaleFrequency || !dl.ReducedOverheads {
		t.Errorf("DynamoLLM = %+v", dl)
	}
	if got := preset("dynamollm"); !reflect.DeepEqual(got, dl) {
		t.Errorf("SystemByName(dynamollm) = %+v, want DynamoLLM() %+v", got, dl)
	}
	want := []string{"singlepool", "multipool", "scaleinst", "scaleshard", "scalefreq", "dynamollm"}
	if !slices.Equal(SystemNames, want) {
		t.Errorf("SystemNames = %v, want %v", SystemNames, want)
	}
	if _, ok := SystemByName("nonsense"); ok {
		t.Error("unknown system resolved")
	}
	// Each Scale* preset enables exactly one knob beyond multipool.
	knobs := func(o Options) int {
		n := 0
		for _, b := range []bool{o.ScaleInstances, o.ScaleSharding, o.ScaleFrequency} {
			if b {
				n++
			}
		}
		return n
	}
	for _, name := range []string{"scaleinst", "scaleshard", "scalefreq"} {
		if o := preset(name); knobs(o) != 1 || o.NumPools != preset("multipool").NumPools {
			t.Errorf("%s should enable exactly one knob beyond multipool: %+v", name, o)
		}
	}
}

func TestSmoothTTFTSLO(t *testing.T) {
	// Anchored at the class representatives.
	cases := []struct{ in, want float64 }{
		{90, 0.25}, {512, 0.40}, {2896, 2.0},
		{10, 0.25}, {8192, 2.0},
	}
	for _, c := range cases {
		if got := SmoothTTFTSLO(c.in); got != c.want {
			t.Errorf("SmoothTTFTSLO(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Monotone in input length.
	prev := 0.0
	for in := 50.0; in < 8000; in *= 1.3 {
		v := SmoothTTFTSLO(in)
		if v < prev {
			t.Fatalf("SLO not monotone at %v", in)
		}
		prev = v
	}
}

func TestPoolingNine(t *testing.T) {
	p := NewPooling(9)
	// Nine pools: one class each.
	seen := map[int]bool{}
	for _, cls := range workload.AllClasses {
		pool := p.classPool[cls]
		if seen[pool] {
			t.Errorf("pool %d serves two classes at NumPools=9", pool)
		}
		seen[pool] = true
	}
}

func TestPoolingMergedPools(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6} {
		p := NewPooling(n)
		// Every class maps to a valid pool and all pools are non-empty.
		for _, cls := range workload.AllClasses {
			pool := p.classPool[cls]
			if pool < 0 || pool >= n {
				t.Fatalf("n=%d: class %v -> pool %d", n, cls, pool)
			}
		}
		for i := 0; i < n; i++ {
			if len(p.poolClasses[i]) == 0 {
				t.Fatalf("n=%d: pool %d empty", n, i)
			}
		}
	}
	// SinglePool: everything in pool 0.
	p1 := NewPooling(1)
	for _, cls := range workload.AllClasses {
		if p1.classPool[cls] != 0 {
			t.Error("NumPools=1 should map all classes to pool 0")
		}
	}
}

func TestPoolingDuplicates(t *testing.T) {
	p := NewPooling(12)
	if p.NumPools != 12 {
		t.Fatalf("NumPools = %d", p.NumPools)
	}
	dups := 0
	for pool, dup := range p.duplicateOf {
		if dup >= 0 {
			dups++
			if len(p.poolClasses[pool]) != 1 {
				t.Error("duplicate pool should serve one class")
			}
		}
	}
	if dups != 3 {
		t.Errorf("12 pools should add 3 duplicates, got %d", dups)
	}
	// PoolFor alternates between primary and duplicates.
	cls := p.poolClasses[9][0]
	a := p.PoolFor(cls, 0)
	b := p.PoolFor(cls, 1)
	if a == b {
		t.Error("PoolFor should alternate across duplicate pools")
	}
}

func TestPoolingNextLargerChain(t *testing.T) {
	p := NewPooling(9)
	// Following NextLarger from the smallest pool must terminate at the
	// LL pool without cycling.
	cur := p.classPool[workload.SS]
	steps := 0
	for {
		next := p.NextLarger(cur)
		if next < 0 {
			break
		}
		cur = next
		steps++
		if steps > 20 {
			t.Fatal("NextLarger cycles")
		}
	}
	if p.poolClasses[cur][0] != workload.LL {
		t.Errorf("chain ends at %v, want LL", p.poolClasses[cur])
	}
}

func TestPoolingLargest(t *testing.T) {
	p := NewPooling(2)
	// With 2 pools the first holds smaller classes; its largest member
	// must still rank below the second pool's largest (LL).
	if p.Largest(1) != workload.LL {
		t.Errorf("largest of big pool = %v, want LL", p.Largest(1))
	}
}
