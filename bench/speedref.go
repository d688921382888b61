package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by up to 2x
// over seconds to minutes, as other tenants load the host's cores and
// shared caches, and that drift swamps the changes the benchmark
// must detect. speedRef is a fixed CPU kernel — sorting, map updates and
// pointer chasing, the simulator's own mix — timed next to the measured
// work. Its time says how fast the host runs at that moment, so every
// timing the benchmark gates on is rescaled to a reference speed,
//
//	t × refNominal / (the kernel's mean time around t),
//
// the time the work would have taken had the host run the kernel at
// refNominal. Over ten seeds per batch workload on the reference host,
// while it ran at about half its nominal speed, the rescaled throughput
// of the same runs spread 2.5-11 % where the raw wall-clock throughput
// spread 17-36 %.
//
// The kernel allocates nothing, so the collector, which the program under
// test drives, does not reach its time; and each sample runs it twice and
// times the second run, so the time does not depend on how much of the
// caches the measured work had taken.
type speedRef struct {
	x    uint64
	keys []float64
	m    map[int]int
	ring []refNode
	at   *refNode
	sink int
}

type refNode struct {
	next *refNode
	v    int
}

// refNominal is the kernel's time per sample on the reference host (2
// vCPU Intel Xeon) when nothing else loads it. It sets only the scale of
// the rescaled times: the ratio of two commits' times does not depend on
// it.
const refNominal = 40 * time.Microsecond

func newSpeedRef() *speedRef {
	const ringLen = 4096 // 64 KB of nodes: cache resident, like a tick's working set
	r := &speedRef{x: 1, keys: make([]float64, 512), m: make(map[int]int, 8192), ring: make([]refNode, ringLen)}
	perm := make([]int, ringLen)
	for i := range perm {
		perm[i] = i
	}
	for i := ringLen - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		r.ring[p] = refNode{next: &r.ring[perm[(i+1)%ringLen]], v: i}
	}
	r.at = &r.ring[0]
	r.run() // fill the map to its steady size
	return r
}

func (r *speedRef) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x
}

func (r *speedRef) run() {
	for i := range r.keys {
		r.keys[i] = float64(r.next() >> 11)
	}
	sort.Float64s(r.keys)
	base := int(r.x >> 52)
	for i := range 256 {
		r.m[base+i] += i
	}
	n := r.at
	for range 1024 {
		r.sink += n.v
		n = n.next
	}
	r.at = n
}

// sample runs the kernel twice and returns the time of the second run.
func (r *speedRef) sample() time.Duration {
	r.run()
	t0 := time.Now()
	r.run()
	return time.Since(t0)
}

// speedMeter accumulates kernel samples taken around a stretch of work.
type speedMeter struct {
	ref     *speedRef
	total   time.Duration // the samples' kernel times
	samples int
	// spent is the wall time sampling took, warm-up runs included, which
	// the measured work must not be charged for.
	spent time.Duration
	// due is when the next sample is taken, in measured-work time.
	due time.Duration
}

// refEvery is how much measured work passes between two kernel samples:
// the kernel then adds 2-4 % to the run's wall time.
const refEvery = 4 * time.Millisecond

// tick records that work has run for elapsed in total and samples the
// kernel when a sample is due.
func (s *speedMeter) tick(elapsed time.Duration) {
	if elapsed >= s.due {
		s.add(1)
		s.due = elapsed + refEvery
	}
}

// add takes n samples.
func (s *speedMeter) add(n int) {
	t0 := time.Now()
	for range n {
		s.total += s.ref.sample()
		s.samples++
	}
	s.spent += time.Since(t0)
}

// factor is refNominal over the mean sample: multiply a time measured
// while the samples were taken by it to rescale it to the reference speed.
func (s *speedMeter) factor() float64 {
	if s.samples == 0 {
		return 1
	}
	return float64(refNominal) * float64(s.samples) / float64(s.total)
}
