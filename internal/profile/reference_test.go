package profile

import (
	"slices"

	"cosmos/internal/stream"
)

// The name-resolved matcher and projector of a profile: the semantic
// reference the compiled views (CompileFor) are tested against. They
// live in a test file because production routes and re-tightens through
// CompiledStream only.

// Covers reports whether the profile covers a datagram: the datagram's
// stream must be in S and satisfy that stream's filter (paper §3.1).
func (p *Profile) Covers(t stream.Tuple) (bool, error) {
	if t.Schema == nil || !p.HasStream(t.Schema.Stream) {
		return false, nil
	}
	f, ok := p.Filters[t.Schema.Stream]
	if !ok || f.IsTrue() {
		return true, nil
	}
	return f.Eval(t)
}

// Project applies the early projection of the profile to a covered
// datagram, returning the tuple restricted to the interest attributes in
// the order the datagram's schema lays them out.
func (p *Profile) Project(t stream.Tuple) (stream.Tuple, error) {
	attrs, ok := p.Attrs[t.Schema.Stream]
	if !ok {
		return t, nil
	}
	var names []string
	for _, f := range t.Schema.Fields {
		if slices.Contains(attrs, f.Name) {
			names = append(names, f.Name)
		}
	}
	for _, a := range attrs {
		if !t.Schema.Has(a) {
			names = append(names, a) // Schema.Project reports it
		}
	}
	ps, err := t.Schema.Project(names)
	if err != nil {
		return stream.Tuple{}, err
	}
	return t.Project(ps)
}
