package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spSetup spanKind = iota
	spTraceGen
	spProfileBuild
	spNewLive
	spSim
	spTick
	spFinish
	spProbe
	spRequest
	spHandler
	spAdvance
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.setup", "trace.gen", "profile.build", "core.newlive", "bench.sim",
	"core.tick", "core.finish", "bench.probe", "http.request", "serve.handler", "serve.advance",
}

// asyncKinds overlap on one lane, so the Chrome trace writes them as
// async begin/end pairs instead of nested complete events.
var asyncKinds = [numSpanKinds]bool{spRequest: true, spHandler: true}

// Tick classes carried in a core.tick span's a field.
const (
	tickSteady = iota
	tickPoolEpoch
	tickClusterEpoch
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started; parent is the index of the span that caused it (-1
// for none). a and b are kind-specific: the tick class and the heap
// objects allocated for core.tick; b = ticks run for serve.advance; a =
// request index for http.request (b = HTTP status) and serve.handler; a =
// probe and b = calls for bench.probe; a = ns spent in speed-kernel
// samples and b = requests for bench.sim.
type span struct {
	kind       spanKind
	lane       int32
	parent     int32
	start, dur int64
	a, b       int64
}

// recorder keeps the spans of a traced run in memory. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	lanes map[int32]string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), lanes: map[int32]string{}}
}

// now returns the recorder clock; on a nil recorder it is 0.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// begin opens a span and returns its index, which end closes and
// children name as their parent.
func (r *recorder) begin(kind spanKind, lane, parent int32) int32 {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{kind: kind, lane: lane, parent: parent, start: start})
	return int32(len(r.spans) - 1)
}

// end closes span i, storing its kind-specific fields; i < 0 (no span
// begun) is ignored.
func (r *recorder) end(i int32, a, b int64) {
	if r == nil || i < 0 {
		return
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.dur, s.a, s.b = now-s.start, a, b
}

// nameLane labels a lane (a Chrome-trace thread).
func (r *recorder) nameLane(lane int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lanes[lane] = name
}

// collect returns f(s) for every span s of a kind for which f reports
// true.
func (r *recorder) collect(kind spanKind, f func(span) (float64, bool)) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.kind != kind {
			continue
		}
		if v, ok := f(s); ok {
			out = append(out, v)
		}
	}
	return out
}

// durations returns the durations in ns of every span of a kind.
func (r *recorder) durations(kind spanKind) []float64 {
	return r.collect(kind, func(s span) (float64, bool) { return float64(s.dur), true })
}

// values returns the b field of every span of a kind.
func (r *recorder) values(kind spanKind) []float64 {
	return r.collect(kind, func(s span) (float64, bool) { return float64(s.b), true })
}

// sumsByParent returns, for each parent span, the summed duration in ns
// of its children of a kind, in order of first appearance.
func (r *recorder) sumsByParent(kind spanKind) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	slot := map[int32]int{}
	for _, s := range r.spans {
		if s.kind != kind {
			continue
		}
		i, ok := slot[s.parent]
		if !ok {
			i = len(out)
			slot[s.parent] = i
			out = append(out, 0)
		}
		out[i] += float64(s.dur)
	}
	return out
}

// maxSpansPerKind bounds the Chrome trace file: a fluid-week pass records
// ~415k ticks, more than a trace viewer opens comfortably. Metrics are
// always computed from every span in memory.
const maxSpansPerKind = 100_000

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open. It returns how many spans
// were left out of the file by the per-kind cap.
func (r *recorder) writeChrome(path string) (dropped int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	r.mu.Lock()
	defer r.mu.Unlock()

	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"dynamollm bench"}}`)
	lanes := make([]int32, 0, len(r.lanes))
	for l := range r.lanes {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
	for _, l := range lanes {
		fmt.Fprintf(w, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, l, r.lanes[l])
	}
	var written [numSpanKinds]int
	for i, s := range r.spans {
		if written[s.kind] >= maxSpansPerKind {
			dropped++
			continue
		}
		written[s.kind]++
		name := spanNames[s.kind]
		args := fmt.Sprintf(`{"span":%d,"parent":%d,"a":%d,"b":%d}`, i, s.parent, s.a, s.b)
		if asyncKinds[s.kind] {
			fmt.Fprintf(w, `,{"name":%q,"cat":%q,"ph":"b","id":%d,"ts":%.3f,"pid":1,"tid":%d,"args":%s}`,
				name, name, s.a, us(s.start), s.lane, args)
			fmt.Fprintf(w, `,{"name":%q,"cat":%q,"ph":"e","id":%d,"ts":%.3f,"pid":1,"tid":%d}`,
				name, name, s.a, us(s.start+s.dur), s.lane)
			continue
		}
		fmt.Fprintf(w, `,{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":%s}`,
			name, us(s.start), us(s.dur), s.lane, args)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return dropped, err
	}
	return dropped, f.Close()
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, 0 for an empty sample. xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := p / 100 * float64(len(xs)-1)
	lo := int(rank)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := rank - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
