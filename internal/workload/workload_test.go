package workload

import (
	"testing"
	"testing/quick"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		in   int
		f    func(int) LengthBucket
		want LengthBucket
	}{
		{0, BucketInput, Short},
		{255, BucketInput, Short},
		{256, BucketInput, Medium},
		{1023, BucketInput, Medium},
		{1024, BucketInput, Long},
		{8192, BucketInput, Long},
		{0, BucketOutput, Short},
		{99, BucketOutput, Short},
		{100, BucketOutput, Medium},
		{349, BucketOutput, Medium},
		{350, BucketOutput, Long},
	}
	for i, c := range cases {
		if got := c.f(c.in); got != c.want {
			t.Errorf("case %d: bucket(%d) = %v, want %v", i, c.in, got, c.want)
		}
	}
}

// TestClassifyPartition: every (in, out) pair maps to exactly one class and
// the class round-trips through its buckets.
func TestClassifyPartition(t *testing.T) {
	f := func(in, out uint16) bool {
		i, o := int(in%8192), int(out%1024)
		c := Classify(i, o)
		return c >= 0 && c < NumClasses &&
			c.Input() == BucketInput(i) && c.Output() == BucketOutput(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeClassRoundTrip(t *testing.T) {
	for _, c := range AllClasses {
		if MakeClass(c.Input(), c.Output()) != c {
			t.Errorf("%v does not round-trip", c)
		}
	}
}

func TestClassNamesAndParse(t *testing.T) {
	want := []string{"SS", "SM", "SL", "MS", "MM", "ML", "LS", "LM", "LL"}
	for i, c := range AllClasses {
		if c.String() != want[i] {
			t.Errorf("class %d = %q, want %q", i, c.String(), want[i])
		}
		got, err := ParseClass(want[i])
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", want[i], got, err)
		}
	}
	if _, err := ParseClass("XX"); err == nil {
		t.Error("ParseClass accepted invalid name")
	}
}

func TestSLOTableIV(t *testing.T) {
	// TTFT: 250 ms short input, 400 ms medium, 2000 ms long; TBT 100 ms.
	for _, c := range AllClasses {
		slo := SLOFor(c)
		if slo.TBT != 0.100 {
			t.Errorf("%v TBT = %v, want 0.1", c, slo.TBT)
		}
		var wantTTFT float64
		switch c.Input() {
		case Short:
			wantTTFT = 0.250
		case Medium:
			wantTTFT = 0.400
		case Long:
			wantTTFT = 2.000
		}
		if slo.TTFT != wantTTFT {
			t.Errorf("%v TTFT = %v, want %v", c, slo.TTFT, wantTTFT)
		}
	}
}

func TestSLOScale(t *testing.T) {
	s := SLOFor(SS).Scale(2)
	if s.TTFT != 0.5 || s.TBT != 0.2 {
		t.Errorf("scaled SLO = %+v", s)
	}
}

func TestRepresentativeLengthsInBucket(t *testing.T) {
	for _, c := range AllClasses {
		in, out := RepresentativeLengths(c)
		if BucketInput(in) != c.Input() || BucketOutput(out) != c.Output() {
			t.Errorf("%v representative (%d,%d) not in bucket", c, in, out)
		}
	}
}

func TestRequestLatencies(t *testing.T) {
	r := &Request{Arrival: 100, InputTokens: 128, OutputTokens: 51}
	if r.TTFT() != -1 {
		t.Error("TTFT before first token should be -1")
	}
	r.FirstToken = 100.2
	r.Finish = 105.2
	if got := r.TTFT(); got < 0.199 || got > 0.201 {
		t.Errorf("TTFT = %v, want 0.2", got)
	}
	if got := r.AvgTBT(); got < 0.099 || got > 0.101 {
		t.Errorf("AvgTBT = %v, want 0.1", got)
	}
}

func TestMeetsSLO(t *testing.T) {
	r := &Request{Arrival: 0, InputTokens: 128, OutputTokens: 51}
	r.FirstToken = 0.2
	r.Finish = 0.2 + 50*0.09
	if !r.MeetsSLO() {
		t.Error("request within SLO reported as violating")
	}
	r.FirstToken = 0.3 // over the 250 ms SS TTFT
	if r.MeetsSLO() {
		t.Error("TTFT violation not detected")
	}
	r.FirstToken = 0.2
	r.Finish = 0.2 + 50*0.2 // 200 ms TBT
	if r.MeetsSLO() {
		t.Error("TBT violation not detected")
	}
	r.SLOScale = 4
	if !r.MeetsSLO() {
		t.Error("relaxed SLO should pass")
	}
}

func TestSquashedFailsSLO(t *testing.T) {
	r := &Request{Arrival: 0, InputTokens: 10, OutputTokens: 10, Squashed: true}
	r.FirstToken = 0.01
	r.Finish = 0.02
	if r.MeetsSLO() {
		t.Error("squashed request must not meet SLO")
	}
}

func TestSingleTokenOutputSkipsTBT(t *testing.T) {
	r := &Request{Arrival: 0, InputTokens: 10, OutputTokens: 1}
	r.FirstToken = 0.1
	r.Finish = 0.1
	if !r.MeetsSLO() {
		t.Error("single-token request with good TTFT should meet SLO")
	}
}
