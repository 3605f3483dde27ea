package spe

import (
	"math"

	"cosmos/internal/stream"
)

// This file is a plan input's window state: one typed row store per
// input. Publish and Submit fix every input column's kind before a plan
// compiles, so a window commits to a layout — per row a timestamp word,
// a chain link word when the input has chains, one word per numeric
// column (an int, bool or time as its int64, a float as its bits) and
// one string per string column — instead of holding a stream.Tuple
// (schema pointer, timestamp, slice header over 40-byte tagged values)
// per row. Rows live in fixed-size pages that come and go with the
// window, so a store holds about its live rows, not its peak. A
// stream.Tuple is materialised only for an emitted result and for
// Snapshot.

// rowStore is a paged deque addressed by absolute row ordinal: the live
// rows are the ordinals [head, tail) in arrival order, row ord sits in
// page ord>>shift at slot ord&slots, and that page is found in a
// power-of-two ring of pages under its page number. Ordinals start at 1,
// so 0 is "no row" for the chains threaded through the link word. A page
// is taken when the tail enters it and given up when the head leaves
// it; one given-up page is kept as the spare the next page is taken
// from, so a window in steady state allocates nothing.
type rowStore struct {
	head, tail uint64
	shift      uint
	slots      uint64 // rows per page − 1
	// pages[n&(len−1)] is page n for the held page numbers
	// [head>>shift, head>>shift+held); the other entries are empty.
	pages []page
	held  int
	spare page
	// width and nstr are a row's words and strings; a linked store's
	// word 1 is the chain link.
	width, nstr int
	cols        []column
}

// page is one page's rows: words row-major, width per row, and strings
// row-major, nstr per row (nil when the input has no string column).
type page struct {
	words []uint64
	strs  []string
}

// column is one projected attribute, typed by its schema kind.
type column struct {
	kind stream.Kind
	at   int // the column's word in a row, or its string for a string column
	// off holds, by ordinal, the values whose kind is not the column's:
	// stream.NewTuple admits an Int into a Float or Time field and a
	// struct-literal tuple is unchecked. They leave the window exactly
	// as they entered it. nil until the first such value.
	off map[uint64]stream.Value
}

// chain is the first and last ordinal of a list threaded through the
// rows' link words; the zero chain is empty.
type chain struct {
	first, last uint64
}

// Page sizes, as shifts: a [Now] input holds the rows of one instant,
// so a page of 8 keeps its store as small as one row's page can be,
// while a windowed input's 64-row pages turn over rarely enough that the
// one spare absorbs the churn.
const (
	nowPageShift    = 3
	windowPageShift = 6
	minPages        = 2 // the smallest page ring
)

const (
	tsWord   = 0
	linkWord = 1
)

// newRowStore lays out a store for rows of schema. linked gives every
// row a chain link; win picks the page size.
func newRowStore(schema *stream.Schema, linked bool, win stream.Duration) rowStore {
	shift := uint(windowPageShift)
	if win == stream.Now {
		shift = nowPageShift
	}
	s := rowStore{head: 1, tail: 1, shift: shift, slots: 1<<shift - 1, width: 1,
		cols: make([]column, len(schema.Fields))}
	if linked {
		s.width++
	}
	for i, f := range schema.Fields {
		c := &s.cols[i]
		c.kind = f.Kind
		if f.Kind == stream.KindString {
			c.at, s.nstr = s.nstr, s.nstr+1
		} else {
			c.at, s.width = s.width, s.width+1
		}
	}
	return s
}

func (s *rowStore) len() int { return int(s.tail - s.head) }

// at locates row ord: its page and its slot there.
func (s *rowStore) at(ord uint64) (*page, int) {
	return &s.pages[(ord>>s.shift)&uint64(len(s.pages)-1)], int(ord & s.slots)
}

// append writes one row at the tail and returns its ordinal.
func (s *rowStore) append(vals []stream.Value, ts stream.Timestamp) uint64 {
	ord := s.tail
	if ord>>s.shift == s.head>>s.shift+uint64(s.held) {
		s.takePage()
	}
	s.tail++
	pg, i := s.at(ord)
	w := pg.words[i*s.width : (i+1)*s.width]
	w[tsWord] = uint64(ts)
	for c := range s.cols {
		col := &s.cols[c]
		v := vals[c]
		switch {
		case v.Kind() != col.kind:
			if col.off == nil {
				col.off = map[uint64]stream.Value{}
			}
			col.off[ord] = v
		case col.kind == stream.KindFloat:
			w[col.at] = math.Float64bits(v.AsFloat())
		case col.kind == stream.KindString:
			pg.strs[i*s.nstr+col.at] = v.AsString()
		default:
			w[col.at] = uint64(v.AsInt())
		}
	}
	return ord
}

// takePage holds the page the tail enters: the spare, or a new one.
func (s *rowStore) takePage() {
	if s.held == len(s.pages) {
		s.repage(max(minPages, 2*len(s.pages)))
	}
	pg := s.spare
	s.spare = page{}
	if pg.words == nil {
		pg.words = make([]uint64, (s.slots+1)*uint64(s.width))
		if s.nstr > 0 {
			pg.strs = make([]string, (s.slots+1)*uint64(s.nstr))
		}
	}
	n := s.head>>s.shift + uint64(s.held)
	s.pages[n&uint64(len(s.pages)-1)] = pg
	s.held++
}

// dropPage gives up the held page the head just left (page n): it
// becomes the spare, its strings released, unless a spare is already
// kept. The ring halves once an eighth of it is held, so a store whose
// held pages swing between one and three keeps its four-entry ring.
func (s *rowStore) dropPage(n uint64) {
	p := &s.pages[n&uint64(len(s.pages)-1)]
	if s.spare.words == nil {
		clear(p.strs)
		s.spare = *p
	}
	*p = page{}
	s.held--
	if len(s.pages) > minPages && 8*s.held <= len(s.pages) {
		s.repage(len(s.pages) / 2)
	}
}

// repage moves the held pages into a ring of n entries.
func (s *rowStore) repage(n int) {
	pages := make([]page, n)
	first := s.head >> s.shift
	for k := first; k < first+uint64(s.held); k++ {
		pages[k&uint64(n-1)] = s.pages[k&uint64(len(s.pages)-1)]
	}
	s.pages = pages
}

// popFront evicts the oldest live row.
func (s *rowStore) popFront() {
	for c := range s.cols {
		if col := &s.cols[c]; len(col.off) > 0 {
			delete(col.off, s.head)
		}
	}
	s.head++
	if s.head&s.slots == 0 {
		s.dropPage((s.head - 1) >> s.shift)
	}
}

// reset empties the store, keeping a spare page.
func (s *rowStore) reset() {
	for s.head < s.tail {
		s.popFront()
	}
	if s.held > 0 {
		s.dropPage(s.head >> s.shift)
	}
	s.head, s.tail = 1, 1
}

// tsAt is the timestamp of the row at pg, i.
func (s *rowStore) tsAt(pg *page, i int) stream.Timestamp {
	return stream.Timestamp(pg.words[i*s.width+tsWord])
}

// nextAt is the ordinal after the row at pg, i in its chain.
func (s *rowStore) nextAt(pg *page, i int) uint64 { return pg.words[i*s.width+linkWord] }

// valueAt reads one column of the live row ord, located at pg, i.
func (s *rowStore) valueAt(pg *page, i, col int, ord uint64) stream.Value {
	c := &s.cols[col]
	if len(c.off) > 0 {
		if v, ok := c.off[ord]; ok {
			return v
		}
	}
	if c.kind == stream.KindString {
		return stream.String_(pg.strs[i*s.nstr+c.at])
	}
	w := pg.words[i*s.width+c.at]
	switch c.kind {
	case stream.KindFloat:
		return stream.Float(math.Float64frombits(w))
	case stream.KindBool:
		return stream.Bool(w != 0)
	case stream.KindTime:
		return stream.Time(stream.Timestamp(w))
	default:
		return stream.Int(int64(w))
	}
}

// readAt fills dst (one slot per column) with the values of the live
// row ord, located at pg, i.
func (s *rowStore) readAt(pg *page, i int, ord uint64, dst []stream.Value) {
	for c := range s.cols {
		dst[c] = s.valueAt(pg, i, c, ord)
	}
}

// link appends a live row to a chain.
func (s *rowStore) link(c *chain, ord uint64) {
	s.setLink(ord, 0)
	if c.first == 0 {
		c.first = ord
	} else {
		s.setLink(c.last, ord)
	}
	c.last = ord
}

func (s *rowStore) setLink(ord, next uint64) {
	pg, i := s.at(ord)
	pg.words[i*s.width+linkWord] = next
}

// unlinkFirst drops a chain's first row — the evictee.
func (s *rowStore) unlinkFirst(c *chain) {
	pg, i := s.at(c.first)
	if c.first = s.nextAt(pg, i); c.first == 0 {
		c.last = 0
	}
}

// sumFloat adds up one column over a chain's rows in chain order, each
// value widened as Value.AsFloat widens it. A float column with no
// off-kind entry is summed in place.
func (s *rowStore) sumFloat(col int, ch chain) (sum float64) {
	c := &s.cols[col]
	fast := c.kind == stream.KindFloat && len(c.off) == 0
	for ord := ch.first; ord != 0; {
		pg, i := s.at(ord)
		if fast {
			sum += math.Float64frombits(pg.words[i*s.width+c.at])
		} else {
			sum += s.valueAt(pg, i, col, ord).AsFloat()
		}
		ord = s.nextAt(pg, i)
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
		pg, i := s.at(ord)
		s.readAt(pg, i, ord, vals)
		out = append(out, stream.Tuple{Schema: schema, Ts: s.tsAt(pg, i), Values: vals})
	}
	return out
}

// pageBytes is one page's footprint: 8 bytes per word, a 16-byte header
// per string (the payload belongs to whoever published it).
func (s *rowStore) pageBytes() int64 {
	return int64(s.slots+1) * int64(8*s.width+16*s.nstr)
}

// bytes is the store's footprint: the pages it holds and its spare, plus
// the off-kind side tables' entries. The page ring's headers, 48 bytes
// per entry, are left out.
func (s *rowStore) bytes() int64 {
	pages := s.held
	if s.spare.words != nil {
		pages++
	}
	var off int
	for c := range s.cols {
		off += len(s.cols[c].off)
	}
	return int64(pages)*s.pageBytes() + int64(off*48)
}
