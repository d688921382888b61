package expt

import (
	"runtime"
	"sync"

	"dynamollm/internal/order"
	"dynamollm/internal/trace"
)

// Runner fans independent simulations out across a bounded pool of worker
// goroutines. Every experiment in this package is embarrassingly parallel —
// the six-system cluster hour, the accuracy/load/pool-count sweeps, the
// week-long service runs — and each simulation is internally deterministic
// given its seed, so the only thing parallelism could perturb is result
// order. The Runner removes that hazard by construction: job i writes only
// slot i of the output, never a completion-ordered position, so rendered
// tables are byte-identical for any Jobs value.
type Runner struct {
	// Jobs bounds the number of simulations in flight at once.
	// Values <= 0 mean runtime.NumCPU().
	Jobs int
}

// limit resolves the effective worker count.
func (r Runner) limit() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.NumCPU()
}

// Do invokes fn(0) .. fn(n-1), each exactly once, with at most r.Jobs
// invocations running concurrently, and returns once all have finished.
// fn must confine its writes to per-index state (e.g. out[i]).
func (r Runner) Do(n int, fn func(i int)) {
	order.Parallel(n, r.limit(), fn)
}

// Collect runs fn for every index and returns the results in index order,
// regardless of which worker finished first.
func Collect[T any](r Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	r.Do(n, func(i int) { out[i] = fn(i) })
	return out
}

// memoKey names a value in a Config's run memo by everything that
// determines it: the Config without the knobs that cannot change output
// (Parallelism and StepJobs; Repo only caches profiles), plus the
// experiment, service and system.
type memoKey struct {
	cfg         Config
	exp, system string
	svc         trace.Service
}

func (c Config) key(exp string, svc trace.Service, system string) memoKey {
	c.Parallelism, c.StepJobs, c.Repo, c.runs = 0, 0, nil, nil
	return memoKey{cfg: c, exp: exp, system: system, svc: svc}
}

// memoized returns k's value in m, computing it with fn on first use.
// Each entry is a per-key sync.Once (the profile.Repository pattern), so
// concurrent callers of one key share one fn call while other keys fill
// in parallel.
func memoized[T any](m *sync.Map, k memoKey, fn func() T) T {
	get, _ := m.LoadOrStore(k, sync.OnceValue(func() any { return fn() }))
	return get.(func() any)().(T)
}
