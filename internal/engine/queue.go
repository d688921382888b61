package engine

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
