// Package facade is the fixture module's root package: its exported
// names are the public surface and need no caller.
package facade

import "example.com/internal/a"

// Exported is public API nothing calls.
func Exported() int { return a.Used() }

func unusedHelper() {} // want `func unusedHelper has no non-test use`
