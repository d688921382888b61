package engine

import "math/bits"

// fifo is a head-indexed FIFO queue: pop advances the head instead of
// reslicing the backing array away, and the array rewinds for reuse the
// moment the queue empties, so a queue that keeps draining never grows
// past its peak depth.
type fifo[T any] struct {
	buf  []T
	head int
}

//dynamolint:steadystate
func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

//dynamolint:steadystate
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// peek returns the head entry; the queue must be non-empty.
//
//dynamolint:steadystate
func (q *fifo[T]) peek() T { return q.buf[q.head] }

// pop removes and returns the head entry; the queue must be non-empty.
//
//dynamolint:steadystate
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// items is a read-only view of the live entries, oldest first.
//
//dynamolint:steadystate
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

// reset empties the queue, dropping every entry's reference.
//
//dynamolint:steadystate
func (q *fifo[T]) reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// pool is a free list of records: get reuses a returned record or
// allocates a fresh one, and put zeroes a record and keeps it for reuse,
// so steady-state traffic recycles records instead of making garbage.
type pool[T any] struct{ free []*T }

//dynamolint:steadystate
func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	return new(T) //dynamolint:alloc-ok pool miss: the pool grows once, to the peak live count
}

//dynamolint:steadystate
func (p *pool[T]) put(v *T) {
	var zero T
	*v = zero
	p.free = append(p.free, v)
}

// exitHeap is the active batch as a container/heap min-heap keyed by
// (exitIter, joinNo): the head is the next sequence to complete or hand
// off, and sequences leaving at the same iteration pop in join order,
// which is active-batch order. Each sequence keeps its index in exitIdx,
// so one that leaves early (preemption, rejection) is deleted by index
// (heap.Remove) and the heap never holds stale entries.
type exitHeap []*seqState

func (h exitHeap) Len() int { return len(h) }

func (h exitHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.exitIter < b.exitIter || a.exitIter == b.exitIter && a.joinNo < b.joinNo
}

func (h exitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].exitIdx = i
	h[j].exitIdx = j
}

func (h *exitHeap) Push(x any) {
	st := x.(*seqState)
	st.exitIdx = len(*h)
	*h = append(*h, st)
}

func (h *exitHeap) Pop() any {
	old := *h
	st := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return st
}

// needRing is the block-KV reserve calendar: slot i&(len(ring)-1) heads a
// list, linked through needNext in join order, of the active sequences
// whose token at iteration i is the first their blocks cannot hold. A
// key is never below the current iteration nor more than BlockTokens
// above it (a sequence holds whole blocks for everything but its next
// tokens), so a power-of-two ring of more than BlockTokens slots never
// mixes two iterations. The lists live in the sequences themselves, so
// the ring allocates nothing after its slot array.
type needRing []*seqState

// newNeedRing sizes a ring for blocks of blockTokens tokens.
func newNeedRing(blockTokens int) needRing {
	return make(needRing, 1<<bits.Len(uint(blockTokens)))
}

// add files st under st.needIter, behind every earlier join.
//
//dynamolint:steadystate
func (r needRing) add(st *seqState) {
	p := &r[st.needIter&(len(r)-1)]
	for *p != nil && (*p).joinNo < st.joinNo {
		p = &(*p).needNext
	}
	st.needNext = *p
	*p = st
}

// drop unlinks st from its slot.
//
//dynamolint:steadystate
func (r needRing) drop(st *seqState) {
	for p := &r[st.needIter&(len(r)-1)]; *p != nil; p = &(*p).needNext {
		if *p == st {
			*p = st.needNext
			st.needNext = nil
			return
		}
	}
}

// due returns the first sequence filed under iter, or nil.
//
//dynamolint:steadystate
func (r needRing) due(iter int) *seqState { return r[iter&(len(r)-1)] }
