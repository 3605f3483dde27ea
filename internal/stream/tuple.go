package stream

import (
	"fmt"
	"slices"
	"strings"
)

// Tuple is one element of a stream: a timestamped row conforming to a
// schema. Tuples are treated as immutable once published; operators build
// new tuples rather than mutating inputs. A published tuple's Values are
// shared downstream and never written again: a broker forwards the
// tuple itself when a route wants every column, and a capped subslice
// of its Values when the route keeps one contiguous run of them; a
// plan's selection whose select list is such a run emits that capped
// subslice as its result's Values, and a subscriber whose columns are
// such a run of the delivered result receives that capped subslice.
// Code handed a tuple reads it; to write, it writes a Clone. A fresh
// row the data plane builds is cut from its producer's Slab, so a tuple
// a consumer keeps may keep that row's chunk alive with it, at most one
// chunk (2.5 KiB); Clone what is kept long-term.
type Tuple struct {
	Schema *Schema
	Ts     Timestamp
	Values []Value
}

// NewTuple builds a tuple after checking arity against the schema.
func NewTuple(s *Schema, ts Timestamp, values ...Value) (Tuple, error) {
	if len(values) != s.Arity() {
		return Tuple{}, fmt.Errorf("stream %s: tuple arity %d, schema arity %d",
			s.Stream, len(values), s.Arity())
	}
	for i, v := range values {
		if !compatible(s.Fields[i].Kind, v.Kind()) {
			return Tuple{}, fmt.Errorf("stream %s: attribute %s expects %s, got %s",
				s.Stream, s.Fields[i].Name, s.Fields[i].Kind, v.Kind())
		}
	}
	return Tuple{Schema: s, Ts: ts, Values: values}, nil
}

// Clone returns the tuple with Values of its own, for a caller that
// wants to write them: a delivered result's Values are shared and
// read-only.
func (t Tuple) Clone() Tuple {
	t.Values = slices.Clone(t.Values)
	return t
}

// MustTuple is NewTuple that panics on error.
func MustTuple(s *Schema, ts Timestamp, values ...Value) Tuple {
	t, err := NewTuple(s, ts, values...)
	if err != nil {
		panic(err)
	}
	return t
}

// compatible reports whether a value kind may populate a field kind.
// Ints widen into floats and times; everything else must match exactly.
func compatible(field, val Kind) bool {
	if field == val {
		return true
	}
	if val == KindInt && (field == KindFloat || field == KindTime) {
		return true
	}
	return false
}

// Get returns the value of the named attribute.
func (t Tuple) Get(name string) (Value, bool) {
	i := t.Schema.ColIndex(name)
	if i < 0 {
		return Value{}, false
	}
	return t.Values[i], true
}

// MustGet is Get that panics on unknown attributes; for internal plan code
// that has already validated attribute references.
func (t Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("stream %s: no attribute %s", t.Schema.Stream, name))
	}
	return v
}

// Project returns a new tuple containing only the given attributes, bound
// to the provided projected schema (which callers typically obtain from
// Schema.Project once and reuse).
func (t Tuple) Project(proj *Schema) (Tuple, error) {
	vals := make([]Value, proj.Arity())
	for i, f := range proj.Fields {
		v, ok := t.Get(f.Name)
		if !ok {
			return Tuple{}, fmt.Errorf("stream %s: projection needs missing attribute %s",
				t.Schema.Stream, f.Name)
		}
		vals[i] = v
	}
	return Tuple{Schema: proj, Ts: t.Ts, Values: vals}, nil
}

// ColumnRun returns the columns [lo, hi) that cols lists when they are
// one contiguous run, in order; 0, 0 when they leave a gap or cols is
// empty.
func ColumnRun(cols []int) (lo, hi int) {
	if len(cols) == 0 {
		return 0, 0
	}
	for k, c := range cols {
		if c != cols[0]+k {
			return 0, 0
		}
	}
	return cols[0], cols[0] + len(cols)
}

// ProjectIdx is the compiled-path counterpart of Project: it builds the
// projected tuple from pre-resolved column indices, so the per-tuple cost
// is a single value-slice copy with no name lookups, into a row cut from
// slab (nil: a row of its own). The data plane calls it only for a
// projection that leaves a gap between the columns it keeps (see
// profile.CompiledStream.Apply). Callers obtain idx and proj once (e.g.
// via Schema.ProjectIdx) and must ensure every index is in range for the
// tuple's value slice.
//
//cosmos:hotpath
func (t Tuple) ProjectIdx(idx []int, proj *Schema, slab *Slab) Tuple {
	vals := slab.Take(len(idx))
	for i, j := range idx {
		vals[i] = t.Values[j]
	}
	return Tuple{Schema: proj, Ts: t.Ts, Values: vals}
}

// WireSize returns the assumed wire size of the tuple payload in bytes:
// the sum of per-value sizes plus the timestamp.
//
//cosmos:hotpath
func (t Tuple) WireSize() int {
	n := 8 // timestamp
	for _, v := range t.Values {
		n += v.WireSize()
	}
	return n
}

// Concat builds a join output tuple from two inputs under the join result
// schema (see JoinSchema). The result timestamp is the later of the two
// input timestamps, following the standard interpretation for window joins
// over application time.
func Concat(result *Schema, left, right Tuple) Tuple {
	vals := make([]Value, 0, len(left.Values)+len(right.Values))
	vals = append(vals, left.Values...)
	vals = append(vals, right.Values...)
	ts := left.Ts
	if right.Ts > ts {
		ts = right.Ts
	}
	return Tuple{Schema: result, Ts: ts, Values: vals}
}

// Equal reports whether two tuples have the same timestamp and values.
// Schemas are compared by stream name and arity only.
func (t Tuple) Equal(u Tuple) bool {
	if t.Ts != u.Ts || len(t.Values) != len(u.Values) {
		return false
	}
	if t.Schema != nil && u.Schema != nil && t.Schema.Stream != u.Schema.Stream {
		return false
	}
	for i := range t.Values {
		if !t.Values[i].Equal(u.Values[i]) {
			return false
		}
	}
	return true
}

// Key renders the tuple's values as a canonical comparable string; used by
// tests and by duplicate-elimination in result splitting.
func (t Tuple) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", t.Ts)
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// String implements fmt.Stringer for debugging output.
func (t Tuple) String() string {
	var b strings.Builder
	name := "?"
	if t.Schema != nil {
		name = t.Schema.Stream
	}
	fmt.Fprintf(&b, "%s@%d(", name, t.Ts)
	for i, v := range t.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
