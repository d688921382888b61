//dynamolint:wallclock Pacer is the one sanctioned bridge from wall-clock to virtual time

// Package simclock provides a discrete-event simulation kernel: a virtual
// clock, a priority event queue, and deterministic random-number streams.
//
// All DynamoLLM experiments run against simulated time so that week-long
// cluster traces execute in seconds of wall time. The kernel is intentionally
// small: events are closures scheduled at absolute virtual times, executed in
// time order (FIFO among equal times), and may schedule further events.
package simclock

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured in seconds from the start of the
// simulation. A float64 keeps the arithmetic simple and is precise enough for
// week-long horizons at sub-millisecond resolution.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Common durations, in seconds.
const (
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
	Hour        Duration = 3600
	Day         Duration = 24 * Hour
	Week        Duration = 7 * Day
)

// event is a scheduled callback, stored by value in the agenda.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	fn  func()
}

// before orders events by (at, seq). seq is unique, so this is a strict
// total order and the firing sequence does not depend on heap layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Clock is a discrete-event simulation clock. The zero value is not usable;
// construct with New.
type Clock struct {
	now Time
	seq uint64
	// events is the agenda: a binary min-heap under event.before. Events
	// live in it by value, so once the backing array has grown to the
	// peak agenda size scheduling allocates nothing.
	events []event
	steps  uint64
}

// New returns a clock positioned at virtual time zero with an empty agenda.
func New() *Clock {
	return &Clock{}
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Steps reports the number of events executed so far.
func (c *Clock) Steps() uint64 { return c.steps }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event program.
//
//dynamolint:steadystate
func (c *Clock) At(t Time, fn func()) {
	if t < c.now {
		//dynamolint:alloc-ok cold path: the panic message for a logic error
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", t, c.now))
	}
	c.seq++
	ev := event{at: t, seq: c.seq, fn: fn}
	c.events = append(c.events, ev)
	// Sift up: move parents down into the hole until ev fits.
	h, i := c.events, len(c.events)-1
	for p := (i - 1) / 2; i > 0 && ev.before(&h[p]); p = (i - 1) / 2 {
		h[i], i = h[p], p
	}
	h[i] = ev
}

// After schedules fn to run d seconds from now.
func (c *Clock) After(d Duration, fn func()) {
	c.At(c.now+Time(d), fn)
}

// Every schedules fn to run now+d, then repeatedly every d seconds, until the
// returned cancel function is called. fn observes the clock at each firing.
func (c *Clock) Every(d Duration, fn func()) (cancel func()) {
	if d <= 0 {
		panic("simclock: Every with non-positive period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			c.After(d, tick)
		}
	}
	c.After(d, tick)
	return func() { stopped = true }
}

// Step executes the next event, advancing the clock. It reports false when
// the agenda is empty.
//
//dynamolint:steadystate
func (c *Clock) Step() bool {
	n := len(c.events) - 1
	if n < 0 {
		return false
	}
	ev, last := c.events[0], c.events[n]
	c.events[n] = event{} // drop the callback reference
	c.events = c.events[:n]
	// Sift down: move the smaller child up into the hole until the
	// displaced last event fits.
	h, i := c.events, 0
	for m := 1; m < n; m = 2*i + 1 {
		if m+1 < n && h[m+1].before(&h[m]) {
			m++
		}
		if !h[m].before(&last) {
			break
		}
		h[i], i = h[m], m
	}
	if n > 0 {
		h[i] = last
	}
	c.now = ev.at
	c.steps++
	ev.fn()
	return true
}

// RunUntil executes events until the agenda is exhausted or the next event
// lies strictly beyond t; the clock finishes positioned at t (or at the last
// event time if that is later than t, which cannot happen by construction).
func (c *Clock) RunUntil(t Time) {
	for len(c.events) > 0 && c.events[0].at <= t {
		c.Step()
	}
	if c.now < t {
		c.now = t
	}
}

// --- Wall-clock pacing ------------------------------------------------------

// Pacer maps monotonic wall-clock time onto virtual time at a fixed speed
// (virtual seconds per wall second), anchored at the instant it was
// created. The live serving session uses one to decide how far the
// simulation may advance: virtual time is derived from the wall clock on
// every query, never accumulated, so it cannot drift or go stale between
// queries.
type Pacer struct {
	start  time.Time
	speed  float64
	offset Time
	now    func() time.Time
}

// NewPacer anchors a pacer at now() running at the given speed. A nil now
// uses time.Now; tests inject a fake clock. Non-positive speeds default
// to 1.
func NewPacer(speed float64, now func() time.Time) *Pacer {
	if now == nil {
		now = time.Now
	}
	if speed <= 0 {
		speed = 1
	}
	return &Pacer{start: now(), speed: speed, now: now}
}

// NewPacerAt anchors a pacer whose virtual clock starts at offset instead
// of zero: Now() reads offset at the anchoring instant and advances at
// speed from there. A restored serving session uses this to resume
// virtual time where the checkpoint left it.
func NewPacerAt(speed float64, offset Time, now func() time.Time) *Pacer {
	p := NewPacer(speed, now)
	p.offset = offset
	return p
}

// Now returns the current virtual time: elapsed wall time times speed,
// plus any resume offset.
func (p *Pacer) Now() Time {
	return p.offset + Time(p.now().Sub(p.start).Seconds()*p.speed)
}

// Speed returns the pacer's virtual-seconds-per-wall-second factor.
func (p *Pacer) Speed() float64 { return p.speed }

// Wall converts a virtual duration to the wall duration it spans at the
// pacer's speed.
func (p *Pacer) Wall(d Duration) time.Duration {
	return time.Duration(d / p.speed * float64(time.Second))
}

// --- Deterministic random streams -----------------------------------------

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+ variant, splittable by seed) used for reproducible workload
// generation. It deliberately avoids math/rand global state so concurrent
// experiments never interfere.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	// SplitMix64 to spread the seed bits.
	r := &RNG{}
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	r.s0 = z ^ (z >> 31)
	z = r.s0 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	r.s1 = z ^ (z >> 31)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// Split derives an independent stream from this one, keyed by label.
func (r *RNG) Split(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simclock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). Used for Poisson inter-arrival times.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("simclock: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Norm returns a normally distributed value with the given mean and stddev
// (Box–Muller).
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// LogNorm returns a log-normally distributed value where the underlying
// normal has parameters mu and sigma.
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i]. All weights must be non-negative with a positive sum.
func (r *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("simclock: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("simclock: weights sum to zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
