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
	mergedAttrs := unionAttrs(p, src, s)
	var mergedFilter predicate.DNF
	switch {
	case !p.HasStream(s):
		mergedFilter = src.FilterFor(s)
	default:
		a, b := p.FilterFor(s), src.FilterFor(s)
		if a.IsTrue() || b.IsTrue() {
			mergedFilter = nil // TRUE
		} else {
			mergedFilter = a.Or(b)
		}
	}
	if mergedFilter != nil && mergedFilter.IsTrue() {
		mergedFilter = nil
	}
	p.AddStream(s, mergedAttrs, mergedFilter)
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
// one profile at a time is cubic.
func UnionOn(s string, ps []*Profile) *Profile {
	if len(ps) > 1 {
		out := UnionOn(s, ps[:len(ps)/2])
		out.MergeStream(UnionOn(s, ps[len(ps)/2:]), s)
		return out
	}
	out := New()
	for _, p := range ps {
		out.CopyStream(p, s)
	}
	return out
}

// unionAttrs unions the projection sets of a stream across two profiles,
// where nil means "all attributes" and therefore dominates.
func unionAttrs(a, b *Profile, s string) []string {
	aAttrs, aHas := a.Attrs[s], a.HasStream(s)
	bAttrs := b.Attrs[s]
	if (aHas && aAttrs == nil) || bAttrs == nil {
		return nil
	}
	if !aHas {
		return bAttrs
	}
	out := slices.Concat(aAttrs, bAttrs)
	slices.Sort(out)
	return slices.Compact(out)
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
