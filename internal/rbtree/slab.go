package rbtree

// Slab hands out zeroed records of type T from chunks, as a Tree does its
// nodes: a chunk holds as many records as the slab has made so far, at
// least 4 and at most 256. A record is never handed out twice until
// Rewind, so one held past its use never describes another. The machine's
// segments and the runtime's allocation records come from slabs. The zero
// value is ready to use.
type Slab[T any] struct {
	chunks [][]T
	next   int // chunks[next-1] is the one tail is the unused part of
	tail   []T
	made   int
}

// New returns the next unused record.
func (s *Slab[T]) New() *T {
	if len(s.tail) == 0 {
		if s.next == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, min(max(4, s.made), 256)))
		}
		s.tail = s.chunks[s.next]
		s.next++
	}
	p := &s.tail[0]
	s.tail = s.tail[1:]
	s.made++
	return p
}

// Rewind zeroes every record handed out and hands them out again, in the
// same order, keeping the chunks. The caller must hold no pointer into the
// slab any more.
func (s *Slab[T]) Rewind() {
	for _, c := range s.chunks[:s.next] {
		clear(c)
	}
	s.next, s.tail = 0, nil
}
