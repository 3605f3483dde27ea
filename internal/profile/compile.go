package profile

import (
	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// CompiledStream is the compiled per-stream view of a profile against one
// schema: the filter with attribute references pre-resolved to column
// indices, and the projection in one of three forms. The projection
// keeps its columns in the order the schema lays them out, so every
// layout the data plane derives is a subsequence of the one tuples
// arrive in: a projection keeping every column is the identity, one
// keeping a contiguous run of columns shares the tuple's values, and
// only one that leaves a gap copies them. It is immutable and safe for
// concurrent use; CBN brokers install these in their lock-free routing
// tables, a link's as compiled and a client endpoint's with Match alone,
// which hands covered tuples over whole: only links project, and a
// client binds the columns it wants by name in whatever layout arrives.
type CompiledStream struct {
	// Match is the compiled filter; nil means TRUE (no filter, or a
	// trivially true one).
	Match *predicate.Compiled
	// ProjIdx lists the source column of each projected attribute when
	// the projection leaves a gap; nil otherwise.
	ProjIdx []int
	// ProjSchema is the schema of projected tuples; nil for the
	// identity.
	ProjSchema *stream.Schema
	// runLo and runHi bound the source columns [runLo, runHi) a gap-free
	// projection keeps, when ProjSchema is set and ProjIdx is nil.
	runLo, runHi int
}

// Covers evaluates the compiled filter against a tuple's values; the
// values must conform to the schema the view was compiled for.
//
//cosmos:hotpath
func (cs *CompiledStream) Covers(vals []stream.Value, ts stream.Timestamp) bool {
	return cs.Match == nil || cs.Match.EvalValues(vals, ts)
}

// Apply projects a covered tuple per the compiled projection. A
// contiguous run is the tuple's own values, capped so that appending to
// the projected tuple cannot reach the columns past the run; a gapped
// projection copies into a row of its own.
//
//cosmos:hotpath
func (cs *CompiledStream) Apply(t stream.Tuple) stream.Tuple {
	return cs.ApplyFrom(t, nil)
}

// ApplyFrom is Apply for a producer that owns a slab: a gapped
// projection's row is cut from it.
//
//cosmos:hotpath
func (cs *CompiledStream) ApplyFrom(t stream.Tuple, slab *stream.Slab) stream.Tuple {
	switch {
	case cs.ProjSchema == nil:
		return t
	case cs.ProjIdx == nil:
		return stream.Tuple{Schema: cs.ProjSchema, Ts: t.Ts, Values: t.Values[cs.runLo:cs.runHi:cs.runHi]}
	}
	return t.ProjectIdx(cs.ProjIdx, cs.ProjSchema, slab)
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
		proj, idx, err := s.ProjectIdx(s.InLayoutOrder(attrs))
		if err != nil {
			return nil, err
		}
		// idx ascends, so it is one run exactly when it spans len(idx)
		// columns. A run of every column is the identity: leave the
		// projection nil so Apply forwards tuples without copying.
		// Downstream hops of an already-narrowed stream hit this on
		// every tuple.
		lo, hi := 0, 0
		if n := len(idx); n > 0 {
			lo, hi = idx[0], idx[n-1]+1
		}
		switch {
		case hi-lo != len(idx):
			cs.ProjSchema, cs.ProjIdx = proj, idx
		case len(idx) < s.Arity():
			cs.ProjSchema, cs.runLo, cs.runHi = proj, lo, hi
		}
	}
	return cs, nil
}
