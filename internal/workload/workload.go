// Package workload defines LLM inference requests and the paper's nine
// input/output length classes (SS…LL, Table IV) with their TTFT/TBT SLOs.
// Arrival processes live in package trace; this package only describes
// individual requests and how they are classified and judged.
package workload

import (
	"fmt"

	"dynamollm/internal/simclock"
)

// LengthBucket grades a token count as short, medium, or long against the
// Table IV thresholds.
type LengthBucket int

// Buckets in increasing order.
const (
	Short LengthBucket = iota
	Medium
	Long
)

// String returns the bucket's single-letter name ("S", "M", "L").
func (b LengthBucket) String() string {
	switch b {
	case Short:
		return "S"
	case Medium:
		return "M"
	case Long:
		return "L"
	}
	return "?"
}

// Table IV thresholds: the 33rd/66th/100th percentiles of the Conversation
// trace lengths. Inputs: short <256, medium <1024, long ≤8192 tokens.
// Outputs: short <100, medium <350, long ≥350.
const (
	InputShortMax   = 256
	InputMediumMax  = 1024
	InputLongMax    = 8192
	OutputShortMax  = 100
	OutputMediumMax = 350
	OutputLongMax   = 4096 // generation cap; Table IV only lower-bounds long
)

// BucketInput classifies an input length.
func BucketInput(tokens int) LengthBucket {
	switch {
	case tokens < InputShortMax:
		return Short
	case tokens < InputMediumMax:
		return Medium
	default:
		return Long
	}
}

// BucketOutput classifies an output length.
func BucketOutput(tokens int) LengthBucket {
	switch {
	case tokens < OutputShortMax:
		return Short
	case tokens < OutputMediumMax:
		return Medium
	default:
		return Long
	}
}

// Class is one of the nine request types: input bucket × output bucket.
type Class int

// The nine classes in the paper's presentation order (input major).
const (
	SS Class = iota
	SM
	SL
	MS
	MM
	ML
	LS
	LM
	LL
	NumClasses = 9
)

var classNames = [NumClasses]string{"SS", "SM", "SL", "MS", "MM", "ML", "LS", "LM", "LL"}

// String returns the class's two-letter name ("SS".."LL"), input bucket
// first.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// AllClasses lists the nine classes in order.
var AllClasses = []Class{SS, SM, SL, MS, MM, ML, LS, LM, LL}

// ParseClass returns the class with the given name ("SS".."LL").
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if n == s {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown class %q", s)
}

// MakeClass combines input and output buckets into a class.
func MakeClass(in, out LengthBucket) Class {
	return Class(int(in)*3 + int(out))
}

// Input returns the class's input bucket.
func (c Class) Input() LengthBucket { return LengthBucket(int(c) / 3) }

// Output returns the class's output bucket.
func (c Class) Output() LengthBucket { return LengthBucket(int(c) % 3) }

// Classify assigns a request to its class from true input/output lengths.
func Classify(inputTokens, outputTokens int) Class {
	return MakeClass(BucketInput(inputTokens), BucketOutput(outputTokens))
}

// SLO holds the latency targets for one class: time to first token and time
// between tokens, in seconds. The paper sets SLOs at 5× the latency of an
// isolated request on an unloaded system (Table IV); looser services use
// 10× or 20× (§III-A).
type SLO struct {
	TTFT float64
	TBT  float64
}

// Scale returns the SLO relaxed by factor k (k=2 turns a 5× SLO into 10×).
func (s SLO) Scale(k float64) SLO {
	return SLO{TTFT: s.TTFT * k, TBT: s.TBT * k}
}

// Table IV SLOs: TTFT 250 ms (short input), 400 ms (medium), 2000 ms (long);
// TBT 100 ms for all classes.
var tableIVSLO = [NumClasses]SLO{
	SS: {0.250, 0.100}, SM: {0.250, 0.100}, SL: {0.250, 0.100},
	MS: {0.400, 0.100}, MM: {0.400, 0.100}, ML: {0.400, 0.100},
	LS: {2.000, 0.100}, LM: {2.000, 0.100}, LL: {2.000, 0.100},
}

// SLOFor returns the Table IV SLO for a class.
func SLOFor(c Class) SLO { return tableIVSLO[c] }

// RepresentativeLengths returns nominal input/output token counts for a
// class, used for profiling and for the per-class characterization tables.
// They are the geometric middles of the Table IV buckets, matching the
// mean of the log-normal length distributions the trace generator draws.
func RepresentativeLengths(c Class) (in, out int) {
	inputs := [3]int{90, 512, 2896}
	outputs := [3]int{28, 187, 1197}
	return inputs[c.Input()], outputs[c.Output()]
}

// Request is one inference query.
type Request struct {
	Arrival      simclock.Time
	InputTokens  int
	OutputTokens int // true output length (unknown to the system on arrival)

	// Tag is the opaque caller identifier carried over from the trace
	// entry (trace.Entry.Tag); non-zero only for live-injected requests,
	// which the serving session matches to completion waiters by it.
	Tag uint64

	// PromptGroup identifies requests sharing a prompt prefix (system
	// prompt, few-shot template): non-zero values let the engine's
	// prefix cache skip prefill work for later members of the group
	// (engine.KVConfig.PrefixCache). Zero means no shared prefix.
	PromptGroup uint64

	// PredictedClass is the router's classification from the known input
	// length and the *predicted* output bucket (§IV-D).
	PredictedClass Class

	// SLOScale relaxes the Table IV SLO for loose-SLO services (1, 2, 4).
	SLOScale float64

	// SteerPenalty is extra TTFT incurred when a mispredicted request is
	// detected and re-steered to the correct pool (§IV-D).
	SteerPenalty float64

	// Retries counts frontend retry attempts consumed so far (§IV-D): a
	// request whose instance died or whose pool had no capacity re-enters
	// the router after a backoff, up to the run's retry budget. Zero for
	// first-attempt requests.
	Retries int

	// RetryDelay is the virtual time already spent between the original
	// arrival and the latest re-admission (queue waits plus backoff). The
	// fluid backend adds it to the sampled TTFT so retry-aware SLO
	// accounting measures from the original arrival; the event backend
	// needs no correction because Arrival itself is preserved across
	// retries.
	RetryDelay float64

	// Lifecycle timestamps, filled by the engine.
	FirstToken simclock.Time // when the first output token was produced
	Finish     simclock.Time // when the last output token was produced
	Squashed   bool          // terminally dropped: retry budget exhausted, retry queue overflow, or undrainable at run end
}

// Class returns the true class from actual lengths.
func (r *Request) Class() Class {
	return Classify(r.InputTokens, r.OutputTokens)
}

// SLO returns the latency targets this request must meet — keyed by the
// true class (the system is judged on real behaviour, not predictions).
// SLOScale values above 1 relax the Table IV targets (loose-SLO services);
// values in (0, 1) tighten them (scenario-injected SLO-crunch windows);
// zero or one leaves them nominal.
func (r *Request) SLO() SLO {
	s := SLOFor(r.Class())
	if r.SLOScale > 0 && r.SLOScale != 1 {
		s = s.Scale(r.SLOScale)
	}
	return s
}

// TTFT returns the achieved time to first token in seconds, or -1 if the
// request has not produced a token.
func (r *Request) TTFT() float64 {
	if r.FirstToken < r.Arrival {
		return -1
	}
	return float64(r.FirstToken - r.Arrival)
}

// AvgTBT returns the achieved mean time between output tokens in seconds,
// or -1 if unavailable.
func (r *Request) AvgTBT() float64 {
	if r.Finish < r.FirstToken || r.OutputTokens <= 1 {
		return -1
	}
	return float64(r.Finish-r.FirstToken) / float64(r.OutputTokens-1)
}

// MeetsSLO reports whether both achieved latencies are within the SLO.
func (r *Request) MeetsSLO() bool {
	if r.Squashed {
		return false
	}
	slo := r.SLO()
	if ttft := r.TTFT(); ttft < 0 || ttft > slo.TTFT {
		return false
	}
	if r.OutputTokens > 1 {
		if tbt := r.AvgTBT(); tbt < 0 || tbt > slo.TBT {
			return false
		}
	}
	return true
}
