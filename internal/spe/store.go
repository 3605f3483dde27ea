package spe

import (
	"cosmos/internal/stream"
)

// This file is a plan input's window state: one typed row store per
// input. Publish and Submit fix every input column's kind before a plan
// compiles, so a window commits to a layout — a timestamp slab and one
// slab per projected column, typed by the column's kind — instead of
// holding a stream.Tuple (schema pointer, timestamp, slice header over
// 40-byte tagged values) per row. A stream.Tuple is materialised only
// for an emitted result and for Snapshot.

// rowStore is a power-of-two ring addressed by absolute row ordinal: the
// live rows are the ordinals [head, tail) in arrival order, row ord sits
// at slot ord&mask of every slab. Ordinals start at 1, so 0 is "no row"
// for the chains threaded through next. The ring grows by doubling from
// empty and never shrinks (a window's steady state is its peak);
// eviction advances head.
type rowStore struct {
	head, tail uint64
	mask       uint64
	ts         []stream.Timestamp
	cols       []column
	// next links a row to the following row of its chain — an equi-join
	// bucket or an aggregate group's members — by ordinal. Rows expire
	// in arrival order and chains append in arrival order, so an evictee
	// is always the first of its chain. nil when the input has no chains.
	next []uint64
}

// column is one projected attribute's slab, typed by its schema kind.
type column struct {
	kind   stream.Kind
	ints   []int64 // int, bool, time
	floats []float64
	strs   []string
	// off holds, by ordinal, the values whose kind is not the column's:
	// stream.NewTuple admits an Int into a Float or Time field and a
	// struct-literal tuple is unchecked. They leave the window exactly
	// as they entered it. nil until the first such value.
	off map[uint64]stream.Value
}

// chain is the first and last ordinal of a list threaded through
// rowStore.next; the zero chain is empty.
type chain struct {
	first, last uint64
}

func newRowStore(schema *stream.Schema, linked bool) rowStore {
	s := rowStore{head: 1, tail: 1, cols: make([]column, len(schema.Fields))}
	for i, f := range schema.Fields {
		s.cols[i].kind = f.Kind
	}
	if linked {
		s.next = []uint64{}
	}
	return s
}

// minRing is the first capacity a ring grows to.
const minRing = 8

func (s *rowStore) len() int { return int(s.tail - s.head) }

func (s *rowStore) full() bool { return s.len() == len(s.ts) }

// grow doubles the ring, moving every live row to its slot under the
// new mask. Ordinals are absolute, so chains stay valid.
func (s *rowStore) grow() {
	n := 2 * len(s.ts)
	if n == 0 {
		n = minRing
	}
	ts := regrow(s, s.ts, n)
	for c := range s.cols {
		col := &s.cols[c]
		switch col.kind {
		case stream.KindFloat:
			col.floats = regrow(s, col.floats, n)
		case stream.KindString:
			col.strs = regrow(s, col.strs, n)
		default:
			col.ints = regrow(s, col.ints, n)
		}
	}
	if s.next != nil {
		s.next = regrow(s, s.next, n)
	}
	s.ts, s.mask = ts, uint64(n-1)
}

// regrow copies one slab's live cells into a slab of n cells.
func regrow[T any](s *rowStore, old []T, n int) []T {
	slab := make([]T, n)
	mask := uint64(n - 1)
	for ord := s.head; ord < s.tail; ord++ {
		slab[ord&mask] = old[ord&s.mask]
	}
	return slab
}

// append writes one row at the tail and returns its ordinal. The caller
// grows a full ring first.
func (s *rowStore) append(vals []stream.Value, ts stream.Timestamp) uint64 {
	ord := s.tail
	s.tail++
	i := ord & s.mask
	s.ts[i] = ts
	for c := range s.cols {
		s.cols[c].set(i, ord, vals[c])
	}
	if s.next != nil {
		s.next[i] = 0
	}
	return ord
}

func (c *column) set(i, ord uint64, v stream.Value) {
	if v.Kind() != c.kind {
		if c.off == nil {
			c.off = map[uint64]stream.Value{}
		}
		c.off[ord] = v
		return
	}
	switch c.kind {
	case stream.KindFloat:
		c.floats[i] = v.AsFloat()
	case stream.KindString:
		c.strs[i] = v.AsString()
	default:
		c.ints[i] = v.AsInt()
	}
}

// popFront evicts the oldest live row.
func (s *rowStore) popFront() {
	i := s.head & s.mask
	for c := range s.cols {
		col := &s.cols[c]
		if col.strs != nil {
			col.strs[i] = "" // release the payload
		}
		if len(col.off) > 0 {
			delete(col.off, s.head)
		}
	}
	s.head++
}

// reset empties the store, keeping its slabs.
func (s *rowStore) reset() {
	for s.head < s.tail {
		s.popFront()
	}
	s.head, s.tail = 1, 1
}

func (s *rowStore) tsAt(ord uint64) stream.Timestamp { return s.ts[ord&s.mask] }

// value reads one column of a live row.
func (s *rowStore) value(col int, ord uint64) stream.Value {
	c := &s.cols[col]
	if len(c.off) > 0 {
		if v, ok := c.off[ord]; ok {
			return v
		}
	}
	i := ord & s.mask
	switch c.kind {
	case stream.KindFloat:
		return stream.Float(c.floats[i])
	case stream.KindString:
		return stream.String_(c.strs[i])
	case stream.KindBool:
		return stream.Bool(c.ints[i] != 0)
	case stream.KindTime:
		return stream.Time(stream.Timestamp(c.ints[i]))
	default:
		return stream.Int(c.ints[i])
	}
}

// read fills dst (one slot per column) with a live row's values.
func (s *rowStore) read(ord uint64, dst []stream.Value) {
	for c := range s.cols {
		dst[c] = s.value(c, ord)
	}
}

// link appends a live row to a chain.
func (s *rowStore) link(c *chain, ord uint64) {
	if c.first == 0 {
		c.first = ord
	} else {
		s.next[c.last&s.mask] = ord
	}
	c.last = ord
}

// unlinkFirst drops a chain's first row — the evictee.
func (s *rowStore) unlinkFirst(c *chain) {
	c.first = s.next[c.first&s.mask]
	if c.first == 0 {
		c.last = 0
	}
}

// sumFloat adds up one column over a chain's rows in chain order, each
// value widened as Value.AsFloat widens it. A float slab with no off-kind
// entry is summed in place.
func (s *rowStore) sumFloat(col int, ch chain) (sum float64) {
	c := &s.cols[col]
	if c.kind == stream.KindFloat && len(c.off) == 0 {
		for ord := ch.first; ord != 0; ord = s.next[ord&s.mask] {
			sum += c.floats[ord&s.mask]
		}
		return sum
	}
	for ord := ch.first; ord != 0; ord = s.next[ord&s.mask] {
		sum += s.value(col, ord).AsFloat()
	}
	return sum
}

// tuples materialises the live rows in arrival order, nil when empty.
func (s *rowStore) tuples(schema *stream.Schema) []stream.Tuple {
	if s.len() == 0 {
		return nil
	}
	out := make([]stream.Tuple, 0, s.len())
	arena := make([]stream.Value, s.len()*len(s.cols))
	for ord := s.head; ord < s.tail; ord++ {
		vals := arena[:len(s.cols):len(s.cols)]
		arena = arena[len(s.cols):]
		s.read(ord, vals)
		out = append(out, stream.Tuple{Schema: schema, Ts: s.tsAt(ord), Values: vals})
	}
	return out
}

// bytes is the store's slab footprint: ring capacity × row width (8 per
// timestamp, numeric cell and chain link, a 16-byte header per string
// cell — the payload belongs to whoever published it) plus the off-kind
// side tables' entries.
func (s *rowStore) bytes() int64 {
	width := 8
	if s.next != nil {
		width += 8
	}
	var off int
	for c := range s.cols {
		if s.cols[c].kind == stream.KindString {
			width += 16
		} else {
			width += 8
		}
		off += len(s.cols[c].off)
	}
	return int64(len(s.ts)*width + off*48)
}
