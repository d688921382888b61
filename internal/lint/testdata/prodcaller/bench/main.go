// Command bench stands in for the benchmark module, whose uses count.
package main

import "example.com/internal/a"

// speedRef's sink is written and never read: bench/ fields keep the
// any-reference rule.
type speedRef struct{ sink int }

var ref speedRef

func main() {
	a.BenchOnly()
	ref.sink++
}
