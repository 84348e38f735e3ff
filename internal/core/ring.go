package core

// ring is a bounded FIFO of values: once full, each add overwrites the
// oldest. A controller's decision journal and its event ring are both
// rings. Like the controller that owns it, a ring is loop-confined.
type ring[T any] struct {
	buf  []T // capacity is the ring's size
	next int // the slot the next add overwrites once the ring is full
}

func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, 0, n)} }

// add appends v, evicting the oldest value when the ring is full.
//
//dynamo:serial
func (r *ring[T]) add(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// ordered returns the retained values oldest-first as the ring's two
// runs, without copying them: older then newer (empty until the ring
// wraps).
func (r *ring[T]) ordered() (older, newer []T) {
	return r.buf[r.next:], r.buf[:r.next]
}

// newest copies out up to n of the newest values, oldest-first; n <= 0
// means every retained value.
func (r *ring[T]) newest(n int) []T {
	older, newer := r.ordered()
	out := make([]T, 0, len(r.buf))
	out = append(append(out, older...), newer...)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
