package obs

// ring is a bounded FIFO holding the last cap values pushed: the statement
// store's recent policy and the metrics history are both one. It grows by
// append until full, then overwrites the oldest value, so a push never
// allocates once the ring is full. A ring has no lock; its owner's mutex
// guards it.
type ring[T any] struct {
	buf   []T
	cap   int
	total int64 // values pushed over the ring's lifetime
}

func newRing[T any](capacity int) ring[T] { return ring[T]{cap: capacity} }

// push appends v, evicting the oldest value when the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%int64(r.cap)] = v
	}
	r.total++
}

// at returns the i-th value ever pushed (0-based), if the ring still holds it.
func (r *ring[T]) at(i int64) (T, bool) {
	if i < 0 || i >= r.total || i < r.total-int64(len(r.buf)) {
		var zero T
		return zero, false
	}
	return r.buf[i%int64(r.cap)], true
}

// snapshot copies the held values, oldest first (nil when empty). The oldest
// value sits just past the most recent write; until the ring is full that
// index is len(buf), so the copy starts at 0.
func (r *ring[T]) snapshot() []T {
	if len(r.buf) == 0 {
		return nil
	}
	start := int(r.total % int64(r.cap))
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}
