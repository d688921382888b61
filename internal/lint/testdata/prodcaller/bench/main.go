// Command bench stands in for the benchmark module, whose uses count.
package main

import "example.com/internal/a"

func main() { a.BenchOnly() }
