// Package order provides deterministic map-iteration helpers and one
// bounded worker pool for the sim-deterministic packages. Go randomizes
// map iteration order per run; any map range whose effect can reach
// simulation output must instead walk Keys(m), which is stable across
// runs and processes. The detrand analyzer (internal/lint) enforces
// this: a bare map range in a deterministic package is a lint error
// unless waived as provably order-independent. Parallel hands indexes to
// workers in no fixed order, so callers write per-index state only and
// merge it in index order, which keeps output identical at any worker
// count.
package order

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Keys returns m's keys sorted ascending.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	//dynamolint:order-independent collecting keys into a slice that is sorted before use
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Parallel calls fn(0) .. fn(n-1), each exactly once, with at most
// workers calls running concurrently, and returns once all have finished.
// workers <= 1 (or n <= 1) runs every call serially on the caller's
// goroutine. fn must confine its writes to per-index state.
func Parallel(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
