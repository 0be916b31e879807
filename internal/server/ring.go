package server

// ring is a bounded FIFO that evicts its oldest entries in O(1): a circular
// buffer that grows by doubling up to max entries, so a ring that never
// fills never pays for its full capacity. With maxBytes > 0 it also bounds
// the entries' summed size as measured by size; whichever cap binds first
// evicts. The newest entry is always kept, even one that alone exceeds
// maxBytes, so a replay always has an anchor.
type ring[T any] struct {
	buf      []T
	head     int // index of the oldest entry in buf
	n        int
	max      int
	maxBytes int
	bytes    int
	size     func(T) int
}

// newRing returns an empty ring holding at most max (≥ 1) entries and, when
// maxBytes > 0, at most maxBytes summed by size.
func newRing[T any](max, maxBytes int, size func(T) int) *ring[T] {
	if max < 1 {
		max = 1
	}
	return &ring[T]{max: max, maxBytes: maxBytes, size: size}
}

// push appends v, evicting the oldest entries the caps require, and returns
// how many it evicted.
func (r *ring[T]) push(v T) (evicted int) {
	sz := 0
	if r.maxBytes > 0 {
		sz = r.size(v)
	}
	for r.n > 0 && (r.n >= r.max || (r.maxBytes > 0 && r.bytes+sz > r.maxBytes)) {
		r.pop()
		evicted++
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	r.bytes += sz
	return evicted
}

// pop drops the oldest entry, releasing its slot's references.
func (r *ring[T]) pop() {
	var zero T
	if r.maxBytes > 0 {
		r.bytes -= r.size(r.buf[r.head])
	}
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// grow doubles the buffer (capped at max), unrolling it oldest-first.
func (r *ring[T]) grow() {
	c := min(max(2*len(r.buf), 4), r.max)
	r.buf, r.head = r.appendTo(make([]T, 0, c))[:c], 0
}

// len returns the number of entries held.
func (r *ring[T]) len() int { return r.n }

// at returns the i-th entry, oldest first.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// appendTo appends the entries to dst, oldest first.
func (r *ring[T]) appendTo(dst []T) []T {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.at(i))
	}
	return dst
}
