package expt

import (
	"runtime"

	"dynamollm/internal/order"
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
