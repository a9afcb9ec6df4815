package telemetry

// ring is the bounded FIFO behind FlightRecorder, EventLog and
// TraceStore's trace order: push appends, evicting the oldest element
// once full; items returns the retained window oldest-first; total
// counts every push ever made. It is not safe for concurrent use — the
// owning type guards it with its own mutex.
type ring[T any] struct {
	buf   []T
	start int // index of the oldest element
	n     int // retained elements
	total int64
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// push appends v. When the ring was already full it overwrites the
// oldest element and returns it with evicted true.
func (r *ring[T]) push(v T) (old T, evicted bool) {
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return old, false
	}
	old, r.buf[r.start] = r.buf[r.start], v
	r.start = (r.start + 1) % len(r.buf)
	return old, true
}

// items returns a copy of the retained elements, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}
