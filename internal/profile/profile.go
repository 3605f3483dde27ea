// Package profile implements COSMOS data-interest profiles (paper §3.1).
//
// A profile π is a triple ⟨S, P, F⟩ where S is a set of stream names, P
// specifies the attributes of streams in S that are of interest (the
// projection the network applies early, the paper's extension over
// traditional CBN), and F is a set of filters. Each filter is defined on
// one stream and is a disjunction of conjunctions of constraints on that
// stream's attributes; a datagram is covered by the profile if it is
// covered by any filter of its stream.
package profile

import (
	"fmt"
	"slices"
	"strings"

	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// Profile is the data-interest profile ⟨S, P, F⟩.
type Profile struct {
	// Streams is S: the requested stream names, sorted.
	Streams []string
	// Attrs is P: per stream, the attribute names of interest, sorted.
	// Sorted is the canonical form covering and merging compare, not the
	// layout order: a projection keeps the columns in the order the
	// arriving schema has them (CompileFor). A nil entry for a stream
	// means "all attributes".
	Attrs map[string][]string
	// Filters is F: per stream, the filter DNF. A missing entry means the
	// stream is requested unconditionally (TRUE).
	Filters map[string]predicate.DNF
}

// New builds an empty profile.
func New() *Profile {
	return &Profile{
		Attrs:   map[string][]string{},
		Filters: map[string]predicate.DNF{},
	}
}

// AddStream registers interest in a stream with a projection set (nil for
// all attributes) and a filter (nil for TRUE).
func (p *Profile) AddStream(name string, attrs []string, filter predicate.DNF) {
	if i, found := slices.BinarySearch(p.Streams, name); !found {
		p.Streams = slices.Insert(p.Streams, i, name)
	}
	if attrs != nil {
		p.Attrs[name] = stream.SortedAttrSet(attrs)
	} else {
		delete(p.Attrs, name)
	}
	if filter != nil {
		p.Filters[name] = filter
	} else {
		delete(p.Filters, name)
	}
}

// HasStream reports whether p requests the stream at all.
func (p *Profile) HasStream(name string) bool {
	_, found := slices.BinarySearch(p.Streams, name)
	return found
}

// AttrsFor returns the projection set for a stream; nil means all.
func (p *Profile) AttrsFor(name string) []string { return p.Attrs[name] }

// RemoveStream drops all interest in a stream, reporting whether the
// profile becomes empty. Brokers use it to garbage-collect state for
// retired result streams.
func (p *Profile) RemoveStream(name string) (empty bool) {
	if i, found := slices.BinarySearch(p.Streams, name); found {
		p.Streams = slices.Delete(p.Streams, i, i+1)
	}
	delete(p.Attrs, name)
	delete(p.Filters, name)
	return len(p.Streams) == 0
}

// FilterFor returns the filter for a stream; a TRUE DNF when absent.
func (p *Profile) FilterFor(name string) predicate.DNF {
	if f, ok := p.Filters[name]; ok {
		return f
	}
	return predicate.True()
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	out := New()
	out.Streams = append([]string(nil), p.Streams...)
	for k, v := range p.Attrs {
		out.Attrs[k] = append([]string(nil), v...)
	}
	for k, v := range p.Filters {
		out.Filters[k] = v.Clone()
	}
	return out
}

// Merge unions another profile into this one, in place: streams union,
// projection sets union (nil/all dominates), filters OR-ed. This is the
// aggregation a CBN broker applies to the profiles of one interface.
func (p *Profile) Merge(other *Profile) {
	for _, s := range other.Streams {
		p.MergeStream(other, s)
	}
}

// MergeStream unions src's part for one stream into p, as Merge does for
// every stream; a nil src, or one without the stream, adds nothing.
func (p *Profile) MergeStream(src *Profile, s string) {
	if src == nil || !src.HasStream(s) {
		return
	}
	attrs, filter := src.Attrs[s], src.Filters[s]
	if p.HasStream(s) {
		attrs, filter = unionAttrs(p.Attrs[s], attrs), orFilters(p.Filters[s], filter)
	}
	p.AddStream(s, attrs, trueAsNil(filter))
}

// CopyStream sets p's part for one stream to src's, dropping it when src
// is nil or lacks the stream. The parts share their filter, which no
// Profile method mutates in place.
func (p *Profile) CopyStream(src *Profile, s string) {
	if src == nil || !src.HasStream(s) {
		p.RemoveStream(s)
		return
	}
	p.AddStream(s, src.Attrs[s], src.Filters[s])
}

// UnionOn returns a profile requesting what any of ps requests of one
// stream (a nil entry requests nothing). It merges halves pairwise, which
// keeps filter simplification quadratic in the disjuncts where merging
// one profile at a time is cubic. The halves are unioned as the parts'
// own projection sets and filters, with no profile of their own, so an
// entry without the stream costs nothing and a union one side dominates
// — a TRUE filter, a projection set covering the other's — allocates
// nothing either.
func UnionOn(s string, ps []*Profile) *Profile {
	out := New()
	if attrs, filter, ok := unionOn(s, ps); ok {
		out.AddStream(s, attrs, trueAsNil(filter))
	}
	return out
}

// unionOn is UnionOn's pairwise fold over the parts themselves; ok is
// false when no entry requests the stream. A nil filter is TRUE.
func unionOn(s string, ps []*Profile) (attrs []string, filter predicate.DNF, ok bool) {
	if len(ps) > 1 {
		aAttrs, aFilter, aOK := unionOn(s, ps[:len(ps)/2])
		bAttrs, bFilter, bOK := unionOn(s, ps[len(ps)/2:])
		switch {
		case !aOK:
			return bAttrs, bFilter, bOK
		case !bOK:
			return aAttrs, aFilter, true
		}
		return unionAttrs(aAttrs, bAttrs), orFilters(aFilter, bFilter), true
	}
	if len(ps) == 0 || ps[0] == nil || !ps[0].HasStream(s) {
		return nil, nil, false
	}
	return ps[0].Attrs[s], ps[0].Filters[s], true
}

// unionAttrs unions two projection sets of one stream, where nil means
// "all attributes" and therefore dominates, and an empty set (an
// aggregate needing no column) adds nothing. A strictly sorted set that
// contains the other is the union itself, shared, not copied.
func unionAttrs(a, b []string) []string {
	switch {
	case a == nil || b == nil:
		return nil
	case containsAll(a, b):
		return a
	case containsAll(b, a):
		return b
	}
	out := append(append(make([]string, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// containsAll reports whether the strictly sorted set holds every name
// of sub; false when set is not strictly sorted.
func containsAll(set, sub []string) bool {
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			return false
		}
	}
	for _, x := range sub {
		if _, found := slices.BinarySearch(set, x); !found {
			return false
		}
	}
	return true
}

// orFilters unions two filters of one stream, where nil means TRUE.
func orFilters(a, b predicate.DNF) predicate.DNF {
	if a == nil || b == nil || a.IsTrue() || b.IsTrue() {
		return nil
	}
	return a.Or(b)
}

// trueAsNil stores a trivially true filter as no filter.
func trueAsNil(f predicate.DNF) predicate.DNF {
	if f.IsTrue() {
		return nil
	}
	return f
}

// CoversProfile reports whether p covers q: every datagram covered by q
// is covered by p AND p requests at least q's attributes. A processor
// uses this to tell an input that only widens its demand.
func (p *Profile) CoversProfile(q *Profile) bool {
	for _, s := range q.Streams {
		if !p.HasStream(s) {
			return false
		}
		// Projection: p's attrs must be a superset (nil = all).
		pAttrs, qAttrs := p.Attrs[s], q.Attrs[s]
		if pAttrs != nil {
			if qAttrs == nil {
				return false
			}
			set := map[string]bool{}
			for _, x := range pAttrs {
				set[x] = true
			}
			for _, x := range qAttrs {
				if !set[x] {
					return false
				}
			}
		}
		// Filter: q's filter must imply p's.
		if !predicate.ImpliesDNF(q.FilterFor(s), p.FilterFor(s)) {
			return false
		}
	}
	return true
}

// SameOn reports whether p and q request the same of one stream: both
// lack it, or their parts are identical. A nil profile requests nothing.
// Merge simplifies filters, so a union that only adds demand an existing
// filter covers stays identical; brokers rely on that for covering-based
// suppression.
func SameOn(p, q *Profile, s string) bool {
	ph, qh := p != nil && p.HasStream(s), q != nil && q.HasStream(s)
	if !ph || !qh {
		return ph == qh
	}
	pa, qa := p.Attrs[s], q.Attrs[s]
	return slices.Equal(pa, qa) && (pa == nil) == (qa == nil) &&
		slices.EqualFunc(p.Filters[s], q.Filters[s], slices.Equal[predicate.Conj])
}

// String renders the profile compactly for logs and tests.
func (p *Profile) String() string {
	var b strings.Builder
	b.WriteString("π⟨S={")
	b.WriteString(strings.Join(p.Streams, ","))
	b.WriteString("}")
	for _, s := range p.Streams {
		if attrs, ok := p.Attrs[s]; ok {
			fmt.Fprintf(&b, " P(%s)={%s}", s, strings.Join(attrs, ","))
		}
		if f, ok := p.Filters[s]; ok && !f.IsTrue() {
			fmt.Fprintf(&b, " F(%s)=%s", s, f)
		}
	}
	b.WriteString("⟩")
	return b.String()
}
