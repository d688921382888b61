package lint

import "strings"

// Waiver and annotation directives. Every waiver must carry a
// justification after the marker; a bare marker is itself a finding.
// DESIGN.md ("Static analysis") documents the grammar.
const (
	// DirWallclock is a file-level annotation declaring that a file in a
	// wall-clock package intentionally reads real time.
	DirWallclock = "dynamolint:wallclock"
	// DirOrderIndependent waives one map-range (or one shared-write
	// goroutine capture) whose effect provably cannot reach output.
	DirOrderIndependent = "dynamolint:order-independent"
	// DirSteadyState marks a function as part of the zero-alloc steady
	// path; its body is checked against the allocation blacklist.
	DirSteadyState = "dynamolint:steadystate"
	// DirAllocOK waives one blacklisted allocation inside a steady-state
	// function (e.g. a cold error path).
	DirAllocOK = "dynamolint:alloc-ok"
	// DirConserveIgnore waives one counter field from the conservation
	// invariant suite.
	DirConserveIgnore = "conserve:ignore"
	// DirAPI waives one name from prodcaller: it is kept without a
	// non-test use on purpose.
	DirAPI = "dynamolint:api"
)

// A ConserveTarget names one counter struct and the invariant function
// that must reference every one of its integer fields.
type ConserveTarget struct {
	// Pkg is the import path holding both the struct and the invariant.
	Pkg string
	// Struct is the counter-carrying struct's type name.
	Struct string
	// Invariant is the name of the method on Struct (preferred) or the
	// package-level function that asserts the conservation laws.
	Invariant string
}

// Config classifies the module's packages for the analyzers. It is the
// single shared source of truth ("package-classification config") that
// cmd/dynamolint and the analyzer tests both consume.
type Config struct {
	// ModulePath is the module's import-path prefix ("dynamollm").
	ModulePath string

	// Deterministic lists import paths (exact or prefix/... patterns)
	// whose code must be bit-reproducible: no wall clocks, no global
	// math/rand, no unordered map iteration, no shared-write goroutine
	// captures.
	Deterministic []string

	// Wallclock lists import paths that legitimately touch real time
	// (the serving pacer and the sim clock's wall adapter). Files in
	// these packages that use wall-clock APIs must carry a
	// //dynamolint:wallclock annotation naming why.
	Wallclock []string

	// Conserve lists the counter structs the conserve analyzer audits.
	Conserve []ConserveTarget
}

// DefaultConfig returns the classification for this repository.
func DefaultConfig() *Config {
	return &Config{
		ModulePath: "dynamollm",
		Deterministic: []string{
			"dynamollm/internal/core",
			"dynamollm/internal/engine",
			"dynamollm/internal/scenario",
			"dynamollm/internal/expt",
			"dynamollm/internal/trace",
			"dynamollm/internal/workload",
			"dynamollm/internal/metrics",
			"dynamollm/internal/predict",
			"dynamollm/internal/solver",
			"dynamollm/internal/reshard",
			"dynamollm/internal/order",
		},
		Wallclock: []string{
			"dynamollm/internal/serve",
			"dynamollm/internal/simclock",
		},
		Conserve: []ConserveTarget{
			{Pkg: "dynamollm/internal/core", Struct: "Result", Invariant: "CheckInvariants"},
			{Pkg: "dynamollm/internal/engine", Struct: "Counters", Invariant: "CheckLaws"},
			{Pkg: "dynamollm/internal/engine", Struct: "KVCounters", Invariant: "CheckLaws"},
		},
	}
}

// matchPath reports whether path matches pattern: exact, or a
// "prefix/..." subtree pattern.
func matchPath(path, pattern string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == sub || strings.HasPrefix(path, sub+"/")
	}
	return path == pattern
}

// IsDeterministic reports whether the import path is classified
// sim-deterministic.
func (c *Config) IsDeterministic(path string) bool {
	for _, p := range c.Deterministic {
		if matchPath(path, p) {
			return true
		}
	}
	return false
}

// IsWallclock reports whether the import path is a declared wall-clock
// package.
func (c *Config) IsWallclock(path string) bool {
	for _, p := range c.Wallclock {
		if matchPath(path, p) {
			return true
		}
	}
	return false
}
