package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

func weekTrace(t *testing.T, s Service) Trace {
	t.Helper()
	return Generate(GenConfig{
		Service:  s,
		Duration: 7 * simclock.Day,
		PeakRPS:  2.0,
		Seed:     42,
	})
}

func TestGenerateReproducible(t *testing.T) {
	a := weekTrace(t, Coding)
	b := weekTrace(t, Coding)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestGenerateOrderedAndBounded(t *testing.T) {
	tr := weekTrace(t, Conversation)
	if len(tr) < 1000 {
		t.Fatalf("suspiciously small trace: %d requests", len(tr))
	}
	prev := simclock.Time(-1)
	for _, e := range tr {
		if e.At < prev {
			t.Fatal("trace not time-ordered")
		}
		prev = e.At
		if e.At < 0 || float64(e.At) > 7*24*3600 {
			t.Fatalf("timestamp out of window: %v", e.At)
		}
		if e.InputTokens < 1 || e.InputTokens > workload.InputLongMax {
			t.Fatalf("input tokens out of range: %d", e.InputTokens)
		}
		if e.OutputTokens < 1 || e.OutputTokens > workload.OutputLongMax {
			t.Fatalf("output tokens out of range: %d", e.OutputTokens)
		}
	}
}

// TestDiurnalDynamicRange pins the §III-B load statistics within tolerance.
func TestDiurnalDynamicRange(t *testing.T) {
	cases := []struct {
		svc                        Service
		wantPA, wantPV             float64
		tolPA, tolPVLow, tolPVHigh float64
	}{
		{Conversation, 1.7, 3.3, 0.4, 2.0, 6.0},
		{Coding, 2.8, 34.6, 0.7, 15, 80},
	}
	for _, c := range cases {
		st := weekTrace(t, c.svc).Summarize()
		if math.Abs(st.PeakOverAvg-c.wantPA) > c.tolPA {
			t.Errorf("%v peak/avg = %.2f, want ~%.1f", c.svc, st.PeakOverAvg, c.wantPA)
		}
		if st.PeakOverValley < c.tolPVLow || st.PeakOverValley > c.tolPVHigh {
			t.Errorf("%v peak/valley = %.1f, want ~%.1f", c.svc, st.PeakOverValley, c.wantPV)
		}
	}
}

// TestClassMixDirection pins Fig. 1: Conversation output-heavy (ML dominant
// among non-short), Coding input-heavy.
func TestClassMixDirection(t *testing.T) {
	conv := weekTrace(t, Conversation).Summarize()
	code := weekTrace(t, Coding).Summarize()

	longOut := func(s Stats) float64 {
		return s.ClassShare[workload.SL] + s.ClassShare[workload.ML] + s.ClassShare[workload.LL]
	}
	longIn := func(s Stats) float64 {
		return s.ClassShare[workload.LS] + s.ClassShare[workload.LM] + s.ClassShare[workload.LL]
	}
	if longOut(conv) <= longIn(conv) {
		t.Errorf("conversation should be output-heavy: longOut=%.2f longIn=%.2f", longOut(conv), longIn(conv))
	}
	if longIn(code) <= longOut(code) {
		t.Errorf("coding should be input-heavy: longIn=%.2f longOut=%.2f", longIn(code), longOut(code))
	}
	// Every class appears with a meaningful share (Fig. 1: "both services
	// have a significant fraction of each request type").
	for _, c := range workload.AllClasses {
		if conv.ClassShare[c] < 0.01 || code.ClassShare[c] < 0.01 {
			t.Errorf("class %v share too small: conv=%.3f code=%.3f", c, conv.ClassShare[c], code.ClassShare[c])
		}
	}
}

// TestClassMixDrifts pins the Fig. 1 time variation: the ML share changes
// substantially across the week.
func TestClassMixDrifts(t *testing.T) {
	tr := weekTrace(t, Conversation)
	shareIn := func(from, to float64) float64 {
		w := tr.Window(simclock.Time(from*3600), simclock.Time(to*3600))
		if len(w) == 0 {
			return 0
		}
		n := 0
		for _, e := range w {
			if e.Class().Output() == workload.Long {
				n++
			}
		}
		return float64(n) / float64(len(w))
	}
	lo, hi := math.Inf(1), 0.0
	for h := 0.0; h < 7*24; h += 12 {
		s := shareIn(h, h+12)
		if s == 0 {
			continue
		}
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if hi-lo < 0.08 {
		t.Errorf("long-output share barely drifts: [%.2f, %.2f]", lo, hi)
	}
}

func TestSampleLengthsInBucket(t *testing.T) {
	r := simclock.NewRNG(7)
	for _, cls := range workload.AllClasses {
		for i := 0; i < 200; i++ {
			in, out := SampleLengths(r, cls)
			if workload.Classify(in, out) != cls {
				t.Fatalf("sampled (%d,%d) classifies as %v, want %v",
					in, out, workload.Classify(in, out), cls)
			}
		}
	}
}

func TestLoadShapeBounds(t *testing.T) {
	for _, svc := range []Service{Conversation, Coding} {
		p := ProfileFor(svc)
		for h := 0.0; h < 7*24; h += 0.25 {
			v := p.LoadShape(simclock.Time(h * 3600))
			if v <= 0 || v > 1 {
				t.Fatalf("%v shape at %vh = %v, want (0,1]", svc, h, v)
			}
		}
	}
}

func TestWindowShiftsTime(t *testing.T) {
	tr := Trace{{At: 100}, {At: 150}, {At: 250}}
	w := tr.Window(100, 200)
	if len(w) != 2 || w[0].At != 0 || w[1].At != 50 {
		t.Fatalf("window = %+v", w)
	}
}

func TestScale(t *testing.T) {
	tr := weekTrace(t, Conversation)
	half := tr.Scale(0.5, 1)
	ratio := float64(len(half)) / float64(len(tr))
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("thinned ratio = %.3f, want ~0.5", ratio)
	}
	if got := tr.Scale(1.0, 1); len(got) != len(tr) {
		t.Error("Scale(1) should be identity")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := weekTrace(t, Coding)[:500]
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip lost entries: %d vs %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i].InputTokens != tr[i].InputTokens || got[i].OutputTokens != tr[i].OutputTokens {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], tr[i])
		}
		if math.Abs(float64(got[i].At-tr[i].At)) > 0.0011 {
			t.Fatalf("entry %d time drift: %v vs %v", i, got[i].At, tr[i].At)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1.0,2\n",
		"x,2,3\n",
		"1.0,x,3\n",
		"1.0,2,x\n",
		// Values that parse but no trace can carry.
		"NaN,2,3\n",
		"+Inf,2,3\n",
		"-Inf,2,3\n",
		"-0.5,2,3\n",
		"1.0,0,3\n",
		"1.0,2,0\n",
		"1.0,-4,3\n",
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", c)
		}
	}
	// The error names the offending line (header and blank lines count).
	_, err := ReadCSV(strings.NewReader("timestamp_s,input_tokens,output_tokens\n\n1.5,10,20\nNaN,1,1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4:") {
		t.Errorf("NaN on line 4: got %v, want a line 4 error", err)
	}
	tr, err := ReadCSV(strings.NewReader("timestamp_s,input_tokens,output_tokens\n\n1.5,10,20\n0,1,1\n"))
	if err != nil || len(tr) != 2 || tr[0].At != 0 {
		t.Errorf("header+blank handling: %v, %v", tr, err)
	}
}

func TestOpenSourceHour(t *testing.T) {
	tr := OpenSourceHour(2.0, 9)
	if len(tr) < 500 {
		t.Fatalf("1-hour trace too small: %d", len(tr))
	}
	for _, e := range tr {
		if e.At < 0 || float64(e.At) > 3600 {
			t.Fatalf("timestamp outside hour: %v", e.At)
		}
	}
	// Near the weekly peak the hour's rate should approach PeakRPS.
	rps := float64(len(tr)) / 3600
	if rps < 1.0 || rps > 2.2 {
		t.Errorf("hourly rate = %.2f req/s, want near peak 2.0", rps)
	}
}

func TestTokenRate(t *testing.T) {
	tr := Trace{
		{At: 10, InputTokens: 100, OutputTokens: 50},
		{At: 20, InputTokens: 200, OutputTokens: 50},
		{At: 70, InputTokens: 300, OutputTokens: 0},
	}
	pts := tr.TokenRate(60)
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if math.Abs(pts[0].TPS-400.0/60) > 1e-9 {
		t.Errorf("bucket 0 TPS = %v", pts[0].TPS)
	}
}

func TestGeneratePanicsWithoutRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(GenConfig{Service: Coding, Duration: 10})
}

// FuzzReadCSV: any input either decodes or errors — never panics — and
// every accepted entry has a finite arrival time >= 0 and at least one
// input and one output token, with entries sorted by arrival.
func FuzzReadCSV(f *testing.F) {
	f.Add("timestamp_s,input_tokens,output_tokens\n0.000,512,200\n1.250,64,8\n")
	f.Add("3,1,1\n1,1,1\n2,1,1\n")
	f.Add("NaN,1,1\n")
	f.Add("-Inf,1,1\n")
	f.Add("1e308,1,1\n")
	f.Add("1,0,1\n")
	f.Add("1,2\n")
	f.Add("\n\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range tr {
			if at := float64(e.At); math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
				t.Fatalf("entry %d: accepted timestamp %v", i, e.At)
			}
			if e.InputTokens < 1 || e.OutputTokens < 1 {
				t.Fatalf("entry %d: accepted token counts %d,%d", i, e.InputTokens, e.OutputTokens)
			}
			if i > 0 && e.At < tr[i-1].At {
				t.Fatalf("entry %d: %v sorts before %v", i, e.At, tr[i-1].At)
			}
		}
	})
}
