// Package a holds the prodcaller cases.
package a

import "fmt"

// Used has a production caller: the root package.
func Used() int {
	var o Outer
	fmt.Fprint(Sink{}, o.Promoted)
	return total(Thing{}) + total(wrapped{}) + helper() + derived
}

// base is used only by its neighbour in the same var group.
var (
	base    = 1
	derived = base + 1
)

func helper() int { return 1 }

// BenchOnly is called only from bench/.
func BenchOnly() {}

// OnlyTested is called only from a_test.go.
func OnlyTested() {} // want `func OnlyTested has no non-test use`

func testHelper() {} // want `func testHelper has no non-test use`

//dynamolint:api kept for a caller outside the module
func Waived() {}

//dynamolint:api
func BareWaiver() {} // want `waiver on BareWaiver needs a justification`

// Sizer is an interface non-test code uses.
type Sizer interface{ Size() int }

func total(s Sizer) int { return s.Size() }

// Thing satisfies Sizer.
type Thing struct {
	Unused int // want `field Thing.Unused has no non-test use`
}

// Size is reached only through Sizer.
func (Thing) Size() int { return 0 }

// OnlyTested is called only from a_test.go.
func (Thing) OnlyTested() {} // want `method Thing.OnlyTested has no non-test use`

// String satisfies fmt.Stringer, which fmt calls on the values it prints.
func (Thing) String() string { return "thing" }

// Sink satisfies io.Writer, the parameter type of fmt.Fprint.
type Sink struct{}

func (Sink) Write(p []byte) (int, error) { return len(p), nil }

// quiet satisfies Sizer with no state.
type quiet struct{}

func (quiet) Size() int { return 0 }

// wrapped meets Sizer only through the Size its embedded quiet promotes:
// that embedding is a use of the field.
type wrapped struct{ quiet }

// Outer reaches Promoted only through its embedded Inner.
type Outer struct{ Inner }

// Inner's field is used only through promotion.
type Inner struct{ Promoted int }

// countdown calls only itself.
func countdown(n int) int { // want `func countdown has no non-test use`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// orphan is named only by its own method's receiver.
type orphan struct{} // want `type orphan has no non-test use`

func (orphan) m() {} // want `method orphan.m has no non-test use`
