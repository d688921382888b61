package a

import (
	"fmt"
	"sync"
)

// Writes holds fields that production code only writes: a field counts
// as used only where it is read.
type Writes struct {
	Assigned    int         // want `field Writes.Assigned has no non-test use`
	OpAssigned  int         // want `field Writes.OpAssigned has no non-test use`
	Indexed     map[int]int // want `field Writes.Indexed has no non-test use`
	Parened     int         // want `field Writes.Parened has no non-test use`
	Starred     *int        // want `field Writes.Starred has no non-test use`
	Incremented int         // want `field Writes.Incremented has no non-test use`
	Decremented int         // want `field Writes.Decremented has no non-test use`
	Keyed       int         // want `field Writes.Keyed has no non-test use`
	Appended    []int       // want `field Writes.Appended has no non-test use`
	Observed    *Counter    // want `field Writes.Observed has no non-test use`
}

// pair is built only by an unkeyed literal, which writes every field.
type pair struct {
	x, y int // want `field pair.x has no non-test use` `field pair.y has no non-test use`
}

// Counter is a module type with a pointer-receiver method.
type Counter struct{ n int }

// Observe reads and writes c.n.
func (c *Counter) Observe(v int) { c.n = max(c.n, v) }

func write(w *Writes, c *Counter) {
	w.Assigned = 1
	w.OpAssigned += 2
	w.Indexed[3] = 4
	(w.Parened) = 5
	*w.Starred = 6
	w.Incremented++
	w.Decremented--
	*w = Writes{Keyed: 7, Observed: c}
	w.Appended = append(w.Appended, 8)
	w.Observed.Observe(9)
	_ = pair{1, 2}
}

// Each of these fields is written by a keyed literal and read only as
// part of its whole struct (nested struct and array fields included), or
// by reflection, or by an outside method.
type (
	compared struct {
		a  int
		in inner
	}
	switched struct{ e int }
	mapKey   struct{ b [1]cell }
	boxed    struct{ c int }
	tagged   struct {
		D int `json:"d"`
	}
	locked  struct{ mu sync.Mutex }
	stamped struct{ s stamp }
)

type (
	inner struct{ i int }
	cell  struct{ c int }
)

// stamp's value-receiver method reads the value it is called on.
type stamp struct{ at int }

func (s stamp) Show() { fmt.Print(s.at) }

func read() {
	_ = compared{a: 1, in: inner{i: 1}} == compared{}
	switch (switched{e: 6}) {
	case switched{}:
	}
	_ = map[mapKey]int{{b: [1]cell{{c: 2}}}: 3}
	fmt.Sprint(boxed{c: 4})
	_ = tagged{D: 5}
	var l locked
	l.mu.Lock()
	l.mu.Unlock()
	fmt.Errorf("universe").Error() // a method with no package
	var st stamped
	st.s.Show()
}
