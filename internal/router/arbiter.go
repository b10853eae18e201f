package router

import "math/bits"

// rrArbiter is a round-robin arbiter over n requesters. It is the
// allocation primitive behind the SA stage; keeping explicit rotation
// state makes every simulation replay deterministically.
type rrArbiter struct {
	n    int
	next int
}

func newRRArbiter(n int) *rrArbiter {
	return &rrArbiter{n: n}
}

// grant returns the first requester set in the request mask m, scanning
// round-robin from the last grant, and advances the rotation past the
// winner. It returns -1 when nothing is requesting.
func (a *rrArbiter) grant(m uint64) int {
	if m == 0 {
		return -1
	}
	i := bits.TrailingZeros64(m)
	if hi := m &^ lowBits(a.next); hi != 0 {
		i = bits.TrailingZeros64(hi)
	}
	a.advance(i)
	return i
}

// advance moves the rotation just past requester i.
func (a *rrArbiter) advance(i int) {
	a.next = i + 1
	if a.next == a.n {
		a.next = 0
	}
}

// lowBits returns a mask of bits [0, n).
func lowBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
