package predicate

import (
	"slices"
	"strings"

	"cosmos/internal/stream"
)

// Summary is the per-term normal form of a conjunction, built once by
// Summarize. It is the one place that decides how the constraints on a
// term combine: satisfiability, implication, the hull and the cost
// model's selectivity estimate all read it.
type Summary struct {
	terms []TermSummary // first-appearance order
	unsat bool          // some term admits no value
}

// TermSummary condenses the constraints a conjunction places on one term:
// a numeric interval plus excluded points for numeric constants, an
// equality/exclusion view for strings, and the opaque constraints (string
// range comparisons, constants of no known kind) that are only reasoned
// about syntactically. The sets are small slices, nil when empty, as they
// almost always are.
type TermSummary struct {
	Term        Term
	Constraints Conj // the term's constraints, in conjunction order
	// last is the index in the conjunction of the last constraint while
	// Constraints is a view of it, else -1.
	last      int
	iv        Interval
	ne        []float64 // numeric points excluded via NE
	strEq     string    // exact string equality, when hasStrEq
	hasStrEq  bool
	strNe     []string
	opaque    []Constraint
	conflict  bool // two different string equalities
	rangeOnly bool // every constraint is a numeric range comparison
}

// Summarize normalises a conjunction into one summary per constrained
// term.
func Summarize(cj Conj) Summary {
	s := Summary{terms: make([]TermSummary, 0, len(cj))}
	for k, c := range cj {
		t := s.find(c.Term)
		switch {
		case t == nil:
			s.terms = append(s.terms, TermSummary{Term: c.Term, Constraints: cj[k : k+1 : k+1], last: k, rangeOnly: true})
			t = &s.terms[len(s.terms)-1]
		case t.last == k-1:
			// The term's constraints so far end just before c: widen the
			// view of cj, as for the usual "x >= a AND x <= b".
			t.Constraints, t.last = cj[k-len(t.Constraints):k+1:k+1], k
		default:
			// The view's capacity is its length, so this copies it.
			t.Constraints, t.last = append(t.Constraints, c), -1
		}
		t.add(c)
	}
	for i := range s.terms {
		if !s.terms[i].satisfiable() {
			s.unsat = true
		}
	}
	return s
}

// find returns the summary of a term, or nil when it is unconstrained.
func (s Summary) find(term Term) *TermSummary {
	for i := range s.terms {
		if s.terms[i].Term == term {
			return &s.terms[i]
		}
	}
	return nil
}

// Terms returns the per-term summaries in order of the terms' first
// appearance in the conjunction. The slice is the summary's own.
func (s Summary) Terms() []TermSummary { return s.terms }

// Satisfiable reports whether the conjunction admits at least one tuple,
// considering each term independently (sound for the attribute/constant
// constraint language of CBN filters; attribute-difference terms are
// treated as independent variables, which is conservative).
func (s Summary) Satisfiable() bool { return !s.unsat }

// Implies reports whether every tuple satisfying s's conjunction also
// satisfies o's. Sound but not complete — it may answer false for
// implications that hold through cross-term reasoning. An unsatisfiable
// s implies anything.
func (s Summary) Implies(o Summary) bool {
	if s.unsat {
		return true
	}
	for i := range o.terms {
		tb := &o.terms[i]
		ta := s.find(tb.Term)
		if ta == nil {
			ta = &unconstrained
		}
		if !tb.impliedBy(ta) {
			return false
		}
	}
	return true
}

// unconstrained is the summary of a term a conjunction does not mention.
var unconstrained = TermSummary{iv: Universal()}

// RangeInterval returns the interval the term's constraints intersect to
// when every one of them is a numeric range comparison (<, <=, >, >=);
// the boolean is false otherwise.
func (t *TermSummary) RangeInterval() (Interval, bool) { return t.iv, t.rangeOnly }

// add folds one constraint into the summary.
func (t *TermSummary) add(c Constraint) {
	switch c.Const.Kind() {
	case stream.KindInt, stream.KindFloat, stream.KindTime, stream.KindBool:
		v := c.Const.AsFloat()
		if c.Op == NE {
			t.rangeOnly = false
			if !slices.Contains(t.ne, v) {
				t.ne = append(t.ne, v)
			}
			return
		}
		iv, ok := FromOp(c.Op, v)
		if ok {
			t.iv = t.iv.Intersect(iv)
		}
		if !ok || c.Op == EQ {
			t.rangeOnly = false
		}
	case stream.KindString:
		t.rangeOnly = false
		str := c.Const.AsString()
		switch c.Op {
		case EQ:
			if t.hasStrEq && t.strEq != str {
				t.conflict = true
				return
			}
			t.strEq, t.hasStrEq = str, true
		case NE:
			if !slices.Contains(t.strNe, str) {
				t.strNe = append(t.strNe, str)
			}
		default:
			// String range comparison: keep opaquely.
			t.opaque = append(t.opaque, c)
		}
	default:
		t.rangeOnly = false
		t.opaque = append(t.opaque, c)
	}
}

// satisfiable reports whether the summary admits any value. For numeric
// terms an NE exclusion only empties a point interval.
func (t *TermSummary) satisfiable() bool {
	if t.conflict || t.iv.Empty() {
		return false
	}
	if p, ok := t.iv.IsPoint(); ok && slices.Contains(t.ne, p) {
		return false
	}
	return !t.hasStrEq || !slices.Contains(t.strNe, t.strEq)
}

// excludes reports whether the summary provably rejects the numeric point p.
func (t *TermSummary) excludes(p float64) bool {
	return slices.Contains(t.ne, p) || !t.iv.Contains(p)
}

// impliedBy reports whether any value satisfying other also satisfies t
// (i.e. other ⟹ t for this term). The test is sound but not complete.
func (t *TermSummary) impliedBy(other *TermSummary) bool {
	// Numeric part: other's admissible region must sit inside t's. t's
	// interval may exclude only points other excludes via NE; that
	// completeness hole is not chased.
	if !t.iv.ContainsInterval(other.iv) {
		return false
	}
	for _, p := range t.ne {
		if !other.excludes(p) {
			return false
		}
	}
	// String part.
	if t.hasStrEq && (!other.hasStrEq || other.strEq != t.strEq) {
		return false
	}
	for _, str := range t.strNe {
		if other.hasStrEq && other.strEq != str {
			continue // equality to a different string excludes str
		}
		if !slices.Contains(other.strNe, str) {
			return false
		}
	}
	// Opaque constraints must appear verbatim on the other side: the same
	// operator spelling and constant.
	for _, o := range t.opaque {
		if !slices.ContainsFunc(other.opaque, func(p Constraint) bool {
			return p.Op.String() == o.Op.String() && p.Const == o.Const
		}) {
			return false
		}
	}
	return true
}

// Satisfiable reports whether the conjunction admits at least one tuple;
// see Summary.Satisfiable.
func (cj Conj) Satisfiable() bool {
	return Summarize(cj).Satisfiable()
}

// Implies reports whether a ⟹ b: every tuple satisfying a also satisfies
// b; see Summary.Implies.
func Implies(a, b Conj) bool {
	return Summarize(a).Implies(Summarize(b))
}

// Hull returns a conjunction that is implied by both inputs: the per-term
// convex hull. Terms constrained on only one side are dropped (the other
// side is unconstrained there, so any shared constraint would be wrong).
// This is the predicate-loosening step of representative-query
// composition; exactness is recovered downstream by re-tightening profiles.
func Hull(a, b Conj) Conj {
	sa, sb := Summarize(a), Summarize(b)
	// Terms in the order of their renderings, for reproducible output.
	slices.SortFunc(sa.terms, func(x, y TermSummary) int {
		return strings.Compare(x.Term.String(), y.Term.String())
	})
	var out Conj
	for i := range sa.terms {
		ta := &sa.terms[i]
		term, tb := ta.Term, sb.find(ta.Term)
		if tb == nil {
			continue
		}
		// Numeric hull.
		hull := ta.iv.Hull(tb.iv)
		out = append(out, intervalConstraints(term, hull)...)
		// Shared NE exclusions that both sides provably exclude.
		for _, p := range ta.ne {
			if tb.excludes(p) && hull.Contains(p) {
				out = append(out, Constraint{Term: term, Op: NE, Const: stream.Float(p)})
			}
		}
		// String equality survives only if identical on both sides.
		if ta.hasStrEq && tb.hasStrEq && ta.strEq == tb.strEq {
			out = append(out, Constraint{Term: term, Op: EQ, Const: stream.String_(ta.strEq)})
		}
		// Shared string exclusions, sorted.
		slices.Sort(ta.strNe)
		for _, s := range ta.strNe {
			if slices.Contains(tb.strNe, s) || (tb.hasStrEq && tb.strEq != s) {
				out = append(out, Constraint{Term: term, Op: NE, Const: stream.String_(s)})
			}
		}
	}
	return out
}

// intervalConstraints renders an interval back into constraints on a term.
func intervalConstraints(term Term, iv Interval) Conj {
	var out Conj
	if p, ok := iv.IsPoint(); ok {
		return Conj{{Term: term, Op: EQ, Const: stream.Float(p)}}
	}
	if iv.HasLo {
		op := GE
		if iv.LoOpen {
			op = GT
		}
		out = append(out, Constraint{Term: term, Op: op, Const: stream.Float(iv.Lo)})
	}
	if iv.HasHi {
		op := LE
		if iv.HiOpen {
			op = LT
		}
		out = append(out, Constraint{Term: term, Op: op, Const: stream.Float(iv.Hi)})
	}
	return out
}
