package stream

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Field describes one attribute of a stream schema.
type Field struct {
	Name string
	Kind Kind
	// AvgLen is the assumed average wire length in bytes for string
	// attributes; zero means DefaultStringWidth. Ignored for other kinds.
	AvgLen int
}

// Width returns the assumed wire width of the field in bytes.
func (f Field) Width() int {
	if f.Kind == KindString && f.AvgLen > 0 {
		return f.AvgLen
	}
	return f.Kind.Width()
}

// Schema is the ordered attribute list of a stream. Each stream in COSMOS
// is assigned a unique name (paper §3); the schema is disseminated by
// flooding the catalogue (see Registry).
type Schema struct {
	// Stream is the unique stream name the schema belongs to.
	Stream string
	Fields []Field

	index map[string]int // lazily built name → position
}

// NewSchema builds a schema after validating that field names are unique
// and non-empty.
func NewSchema(streamName string, fields ...Field) (*Schema, error) {
	if streamName == "" {
		return nil, fmt.Errorf("stream: empty stream name")
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("stream %s: empty field name", streamName)
		}
		if f.Kind == KindInvalid {
			return nil, fmt.Errorf("stream %s: field %s has invalid kind", streamName, f.Name)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("stream %s: duplicate field %s", streamName, f.Name)
		}
		seen[f.Name] = true
	}
	s := &Schema{Stream: streamName, Fields: fields}
	s.buildIndex()
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// statically known schemas.
func MustSchema(streamName string, fields ...Field) *Schema {
	s, err := NewSchema(streamName, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// buildIndex populates the name→column map, once per schema.
//
//cosmos:hotpath-ok — amortized lazy init: runs once per schema lifetime, never per tuple
func (s *Schema) buildIndex() {
	s.index = make(map[string]int, len(s.Fields))
	for i, f := range s.Fields {
		s.index[f.Name] = i
	}
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Fields) }

// ColIndex returns the position of the named attribute, or -1.
//
//cosmos:hotpath
func (s *Schema) ColIndex(name string) int {
	if s.index == nil {
		s.buildIndex()
	}
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool { return s.ColIndex(name) >= 0 }

// FieldByName returns the named field.
func (s *Schema) FieldByName(name string) (Field, bool) {
	i := s.ColIndex(name)
	if i < 0 {
		return Field{}, false
	}
	return s.Fields[i], true
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Project returns a new schema retaining only the named attributes, in the
// order given. It errors on unknown attributes.
func (s *Schema) Project(names []string) (*Schema, error) {
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		f, ok := s.FieldByName(n)
		if !ok {
			return nil, fmt.Errorf("stream %s: no attribute %s", s.Stream, n)
		}
		fields = append(fields, f)
	}
	return NewSchema(s.Stream, fields...)
}

// InLayoutOrder returns a copy of names ordered by their column in s.
// That is the one order every projection the data plane derives keeps,
// so each is a subsequence of the layout it arrived in. A name s lacks
// sorts first, so Project and ProjectIdx still report it.
func (s *Schema) InLayoutOrder(names []string) []string {
	out := slices.Clone(names)
	slices.SortFunc(out, func(a, b string) int { return s.ColIndex(a) - s.ColIndex(b) })
	return out
}

// ProjectIdx resolves a projection to its compiled form: the projected
// schema plus the source column index of each projected attribute, for
// use with Tuple.ProjectIdx. It errors on unknown attributes.
func (s *Schema) ProjectIdx(names []string) (*Schema, []int, error) {
	fields := make([]Field, len(names))
	idx := make([]int, len(names))
	for i, n := range names {
		j := s.ColIndex(n)
		if j < 0 {
			return nil, nil, fmt.Errorf("stream %s: no attribute %s", s.Stream, n)
		}
		fields[i], idx[i] = s.Fields[j], j
	}
	proj, err := NewSchema(s.Stream, fields...)
	if err != nil {
		return nil, nil, err
	}
	return proj, idx, nil
}

// TupleWidth returns the assumed wire width in bytes of a full tuple of
// this schema (payload only; framing overhead is accounted separately by
// the cost model).
func (s *Schema) TupleWidth() int {
	w := 0
	for _, f := range s.Fields {
		w += f.Width()
	}
	return w
}

// Rename returns a copy of the schema carrying a different stream name.
// Used when a processor advertises a result stream under a fresh unique
// name (paper §4).
func (s *Schema) Rename(streamName string) *Schema {
	fields := make([]Field, len(s.Fields))
	copy(fields, s.Fields)
	out := &Schema{Stream: streamName, Fields: fields}
	out.buildIndex()
	return out
}

// Equal reports deep equality of stream name and fields.
//
//cosmos:hotpath
func (s *Schema) Equal(t *Schema) bool {
	if s == nil || t == nil {
		return s == t
	}
	if s.Stream != t.Stream || len(s.Fields) != len(t.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != t.Fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "Name(field kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Stream)
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// JoinSchema builds the schema of a join result stream. Attribute names are
// qualified with the given aliases ("O.itemID") to keep them unambiguous in
// representative-query result streams, matching the profiles in the paper
// (p2 projects O.itemID, O.timestamp, C.buyerID, C.timestamp).
func JoinSchema(resultName string, aliases []string, schemas []*Schema) (*Schema, error) {
	if len(aliases) != len(schemas) {
		return nil, fmt.Errorf("stream: %d aliases for %d schemas", len(aliases), len(schemas))
	}
	var fields []Field
	for i, sc := range schemas {
		for _, f := range sc.Fields {
			fields = append(fields, Field{
				Name:   aliases[i] + "." + f.Name,
				Kind:   f.Kind,
				AvgLen: f.AvgLen,
			})
		}
	}
	return NewSchema(resultName, fields...)
}

// SortedAttrSet returns a defensive sorted copy of a set of attribute
// names; used to build canonical signatures.
func SortedAttrSet(attrs []string) []string {
	out := make([]string, len(attrs))
	copy(out, attrs)
	sort.Strings(out)
	return out
}
