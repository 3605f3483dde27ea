package stream

// SlabChunk is the number of values a Slab cuts its rows from at a time
// (2.5 KiB of values). A row wider than a quarter of it is allocated on
// its own, so a chunk wastes at most a quarter of itself on the tail it
// cannot fit.
const SlabChunk = 64

// Slab cuts fresh rows of values for one producer on the data path: the
// rows a gapped projection, a plan's emission or a frame decode builds.
// Rows are cut from a chunk of SlabChunk values, so a chunk costs one
// allocation where its rows would each cost one.
//
// A Slab never hands a slot out twice and never takes a row back: a row
// is the producer's to fill and, once handed on, read-only like every
// published tuple's Values (see Tuple). Nothing tracks a row's lifetime;
// a chunk is garbage once its last row is. A row a consumer keeps keeps
// its chunk alive with it, which is at most one chunk per row.
//
// A Slab is not safe for concurrent use: whatever serialises its
// producer serialises Take. The zero Slab is ready; a nil *Slab
// allocates every row alone.
type Slab struct {
	free []Value // the current chunk's uncut tail
}

// Take returns a fresh, zeroed row of n values whose capacity is n, so
// an append to it reallocates instead of reaching the next row.
//
//cosmos:hotpath
func (s *Slab) Take(n int) []Value {
	if s == nil || n > SlabChunk/4 {
		return make([]Value, n)
	}
	if n > len(s.free) {
		s.free = make([]Value, SlabChunk)
	}
	row := s.free[:n:n]
	s.free = s.free[n:]
	return row
}
