package sim

// PopFront removes q's head in place and returns the shortened queue. It
// pops by copy-down, not reslice: sliding the head would walk the backing
// array forward and force a reallocation on a later append, so a FIFO that
// fills and drains keeps reusing its storage. The queues it serves are
// short, so the copy is cheaper than the allocation.
//
//voyager:noalloc
func PopFront[T any](q []T) []T {
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n]
}
