package model

import "testing"

func TestCatalogComplete(t *testing.T) {
	want := []string{
		"falcon-180b", "llama2-13b", "llama2-70b",
		"llama3-70b", "mixtral-8x22b", "mixtral-8x7b",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	m, err := Lookup("llama2-70b")
	if err != nil {
		t.Fatal(err)
	}
	if m != Llama2_70B {
		t.Fatal("Lookup returned wrong model")
	}
	if _, err := Lookup("gpt-5"); err == nil {
		t.Fatal("Lookup of unknown model succeeded")
	}
}

// TestMinTP checks the feasibility boundaries that drive Table III's empty
// cells: small models fit anywhere, 70B-class models need at least 2 GPUs,
// and Mixtral-8x22B / Falcon-180B need more.
func TestMinTP(t *testing.T) {
	cases := []struct {
		m    *Model
		want TP
	}{
		{Llama2_13B, TP1},
		{Mixtral8x7B, TP2},
		{Llama2_70B, TP2},
		{Llama3_70B, TP2},
		{Mixtral22B, TP8},
		{Falcon180B, TP8},
	}
	for _, c := range cases {
		if c.m.MinTP != c.want {
			t.Errorf("%s MinTP = %v, want %v", c.m.Name, c.m.MinTP, c.want)
		}
	}
}

func TestMixtral22BNeedsTP8(t *testing.T) {
	// 141B params at FP16 is 282 GB; four 80 GB GPUs give 340 GB raw but
	// only 70.4 GB usable per GPU with headroom — the 70.5 GB/GPU share exceeds
	// it, so TP4 must be infeasible, while Llama2-70B (70.0) just fits at TP2.
	if Mixtral22B.FeasibleTP(TP4) {
		t.Error("mixtral-8x22b should not fit at TP4 with usable-memory headroom")
	}
	if !Mixtral22B.FeasibleTP(TP8) {
		t.Error("mixtral-8x22b should fit at TP8")
	}
}

func TestFeasibleTPMonotonic(t *testing.T) {
	// If a model fits at TPi it must fit at every larger degree.
	for _, m := range catalog {
		fits := false
		for _, tp := range AllTP {
			ok := m.FeasibleTP(tp)
			if fits && !ok {
				t.Errorf("%s: feasibility not monotonic at %v", m.Name, tp)
			}
			fits = fits || ok
		}
		if !fits {
			t.Errorf("%s fits nowhere", m.Name)
		}
	}
}

func TestKVCapacityPositiveAndIncreasing(t *testing.T) {
	for _, m := range catalog {
		prev := -1.0
		for _, tp := range AllTP {
			if !m.FeasibleTP(tp) {
				continue
			}
			got := m.KVCapacityTokens(tp)
			if got <= 0 {
				t.Errorf("%s@%v: KV capacity %v, want > 0", m.Name, tp, got)
			}
			if got <= prev {
				t.Errorf("%s: KV capacity not increasing with TP", m.Name)
			}
			prev = got
		}
	}
}

func TestShardBytesHalves(t *testing.T) {
	for _, m := range catalog {
		if got, want := m.ShardBytes(TP8), m.ShardBytes(TP4)/2; got != want {
			t.Errorf("%s: ShardBytes(TP8) = %v, want %v", m.Name, got, want)
		}
	}
}

func TestSparsity(t *testing.T) {
	if Llama2_70B.Sparsity() != 1.0 {
		t.Error("dense model sparsity != 1")
	}
	if s := Mixtral8x7B.Sparsity(); s <= 0 || s >= 1 {
		t.Errorf("mixtral sparsity = %v, want in (0,1)", s)
	}
}

func TestKVBytesPerTokenGQA(t *testing.T) {
	// Llama2-70B uses GQA with 8 KV heads: 2*80*8*128*2 bytes = 327680.
	if got := Llama2_70B.KVBytesPerToken; got != 327680 {
		t.Errorf("llama2-70b KV bytes/token = %v, want 327680", got)
	}
}

// TestTPSlot: Slot inverts TPChoices, so slot order is ascending TP, and a
// degree outside the knob space panics.
func TestTPSlot(t *testing.T) {
	for i, tp := range TPChoices {
		if got := tp.Slot(); got != i {
			t.Errorf("%v.Slot() = %d, want %d", tp, got, i)
		}
		if i > 0 && tp <= TPChoices[i-1] {
			t.Errorf("TPChoices not ascending at %d: %v", i, TPChoices)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TP1.Slot() did not panic")
		}
	}()
	TP1.Slot()
}
