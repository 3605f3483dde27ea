package profile

import (
	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// CompiledStream is the compiled per-stream view of a profile against one
// schema: the filter with attribute references pre-resolved to column
// indices, and the projection as an index list. It is immutable and safe
// for concurrent use; CBN brokers install these in their lock-free
// routing tables.
type CompiledStream struct {
	// Match is the compiled filter; nil means TRUE (no filter, or a
	// trivially true one).
	Match *predicate.Compiled
	// ProjIdx lists the source column of each projected attribute; nil
	// means identity (all attributes).
	ProjIdx []int
	// ProjSchema is the schema of projected tuples; nil when ProjIdx is.
	ProjSchema *stream.Schema
}

// Covers evaluates the compiled filter against a tuple's values; the
// values must conform to the schema the view was compiled for.
//
//cosmos:hotpath
func (cs *CompiledStream) Covers(vals []stream.Value, ts stream.Timestamp) bool {
	return cs.Match == nil || cs.Match.EvalValues(vals, ts)
}

// Apply projects a covered tuple per the compiled projection.
//
//cosmos:hotpath
func (cs *CompiledStream) Apply(t stream.Tuple) stream.Tuple {
	if cs.ProjIdx == nil {
		return t
	}
	return t.ProjectIdx(cs.ProjIdx, cs.ProjSchema)
}

// CompileFor compiles the profile's interest in one stream against that
// stream's schema. It returns (nil, nil) when the profile does not
// request the stream — a compiled router then simply has no route — and
// an error whenever name-resolved evaluation could error at runtime for
// tuples of this schema (missing attribute, incomparable kinds): callers
// refuse such demand, there is no other evaluator to fall back to.
func (p *Profile) CompileFor(s *stream.Schema) (*CompiledStream, error) {
	if s == nil || !p.HasStream(s.Stream) {
		return nil, nil
	}
	cs := &CompiledStream{}
	if f, ok := p.Filters[s.Stream]; ok && !f.IsTrue() {
		m, err := predicate.Compile(f, s)
		if err != nil {
			return nil, err
		}
		cs.Match = m
	}
	if attrs, ok := p.Attrs[s.Stream]; ok && attrs != nil {
		proj, idx, err := s.ProjectIdx(attrs)
		if err != nil {
			return nil, err
		}
		// A projection selecting every column in source order is the
		// identity: leave ProjIdx nil so Apply forwards tuples without
		// copying. Downstream hops of an already-narrowed stream hit
		// this on every tuple.
		if !identityIdx(idx, s.Arity()) {
			cs.ProjSchema, cs.ProjIdx = proj, idx
		}
	}
	return cs, nil
}

// identityIdx reports whether idx is exactly [0, 1, ..., arity-1].
//
//cosmos:hotpath
func identityIdx(idx []int, arity int) bool {
	if len(idx) != arity {
		return false
	}
	for i, j := range idx {
		if i != j {
			return false
		}
	}
	return true
}
