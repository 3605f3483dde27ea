// Package predicate implements the constraint algebra used throughout
// COSMOS: the per-stream datagram filters of data-interest profiles
// (paper §3.1), the selection predicates of continuous queries, and the
// implication/hull machinery that powers query containment (§4, Theorems
// 1–2) and representative-query composition.
//
// A filter is a conjunction (Conj) of constraints on the values of a set
// of attributes; a profile carries a disjunction of filters, modelled here
// as a DNF. A constraint compares a term — a single attribute or the
// difference of two attributes — against a constant. The attribute
// difference form is what lets result-splitting profiles re-tighten window
// predicates (e.g. −3h ≤ O.timestamp − C.timestamp ≤ 0 in the paper).
//
// Evaluation has one production form: Compile and CompileAttrCmps
// resolve a predicate against a schema on the control plane and the data
// plane walks column indices. The name-resolved Eval methods (Term.Resolve,
// Constraint/Conj/DNF.Eval, AttrCmp.Eval) define the semantics the
// compiled forms must reproduce; they stay in this package, rather than
// in its test files, only because the differential tests of profile, cbn
// and spe need to reach them — no non-test code calls them (pinned by
// TestOnePathStructure at the module root).
package predicate

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cosmos/internal/stream"
)

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Holds reports whether the operator is satisfied by a three-way
// comparison result (negative, zero, positive).
//
//cosmos:hotpath
func (o Op) Holds(cmp int) bool {
	switch o {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	default:
		return false
	}
}

// Negate returns the complementary operator (¬(a < b) ≡ a >= b).
func (o Op) Negate() Op {
	switch o {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	default:
		return o
	}
}

// Flip returns the operator with its operands swapped (a < b ≡ b > a).
func (o Op) Flip() Op {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return o
	}
}

// Term is the left-hand side of a constraint: a single attribute A, or the
// difference A − B of two attributes when B is non-empty.
type Term struct {
	A string
	B string
}

// Attr builds a single-attribute term.
func Attr(name string) Term { return Term{A: name} }

// Diff builds an attribute-difference term A − B.
func Diff(a, b string) Term { return Term{A: a, B: b} }

// IsDiff reports whether the term is an attribute difference.
func (t Term) IsDiff() bool { return t.B != "" }

// Attrs returns the attribute names referenced by the term.
func (t Term) Attrs() []string {
	if t.B == "" {
		return []string{t.A}
	}
	return []string{t.A, t.B}
}

// IntrinsicTs is the reserved attribute name resolving to a tuple's own
// timestamp. Result-splitting profiles use it to re-tighten windows of
// [Now]-windowed join inputs, whose contribution timestamp equals the
// result timestamp (Lemma 1 with T = 0), without shipping a redundant
// hidden column.
const IntrinsicTs = "__ts"

// Resolve evaluates the term against a tuple. The reserved name
// IntrinsicTs resolves to the tuple's timestamp when no attribute of
// that name exists.
func (t Term) Resolve(tp stream.Tuple) (stream.Value, error) {
	a, err := resolveAttr(tp, t.A)
	if err != nil {
		return stream.Value{}, err
	}
	if t.B == "" {
		return a, nil
	}
	b, err := resolveAttr(tp, t.B)
	if err != nil {
		return stream.Value{}, err
	}
	return a.Sub(b)
}

func resolveAttr(tp stream.Tuple, name string) (stream.Value, error) {
	if v, ok := tp.Get(name); ok {
		return v, nil
	}
	if name == IntrinsicTs {
		return stream.Time(tp.Ts), nil
	}
	return stream.Value{}, fmt.Errorf("predicate: tuple of %s lacks attribute %s",
		tp.Schema.Stream, name)
}

// String implements fmt.Stringer.
func (t Term) String() string {
	if t.B == "" {
		return t.A
	}
	return t.A + "-" + t.B
}

// Constraint compares a term against a constant value.
type Constraint struct {
	Term  Term
	Op    Op
	Const stream.Value
}

// C is shorthand for building a single-attribute constraint.
func C(attr string, op Op, v stream.Value) Constraint {
	return Constraint{Term: Attr(attr), Op: op, Const: v}
}

// Eval evaluates the constraint against a tuple. Missing attributes and
// incomparable kinds surface as errors so callers can distinguish schema
// mismatch from a plain false.
func (c Constraint) Eval(tp stream.Tuple) (bool, error) {
	v, err := c.Term.Resolve(tp)
	if err != nil {
		return false, err
	}
	cmp, err := v.Compare(c.Const)
	if err != nil {
		return false, err
	}
	return c.Op.Holds(cmp), nil
}

// String implements fmt.Stringer.
func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %s", c.Term, c.Op, c.Const)
}

// Conj is a conjunction of constraints: the datagram filter of the paper.
// The empty conjunction is TRUE.
type Conj []Constraint

// Eval evaluates the conjunction against a tuple.
func (cj Conj) Eval(tp stream.Tuple) (bool, error) {
	for _, c := range cj {
		ok, err := c.Eval(tp)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Clone returns a deep copy of the conjunction.
func (cj Conj) Clone() Conj {
	if cj == nil {
		return nil
	}
	out := make(Conj, len(cj))
	copy(out, cj)
	return out
}

// And returns the conjunction of two filters.
func (cj Conj) And(other Conj) Conj {
	out := make(Conj, 0, len(cj)+len(other))
	out = append(out, cj...)
	out = append(out, other...)
	return out
}

// Attrs returns the sorted set of attribute names referenced.
func (cj Conj) Attrs() []string {
	set := map[string]bool{}
	for _, c := range cj {
		for _, a := range c.Term.Attrs() {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders the conjunction in canonical (sorted) order so that equal
// conjunctions print identically; used for grouping signatures.
func (cj Conj) String() string {
	if len(cj) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(cj))
	for i, c := range cj {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

// DNF is a disjunction of conjunctions: a profile's filter set for one
// stream. The empty DNF is FALSE; use True() for the always-true DNF.
type DNF []Conj

// True returns a DNF that accepts everything.
func True() DNF { return DNF{Conj{}} }

// IsTrue reports whether the DNF trivially accepts everything.
func (d DNF) IsTrue() bool {
	for _, cj := range d {
		if len(cj) == 0 {
			return true
		}
	}
	return false
}

// Eval evaluates the disjunction against a tuple.
func (d DNF) Eval(tp stream.Tuple) (bool, error) {
	var firstErr error
	for _, cj := range d {
		ok, err := cj.Eval(tp)
		if err != nil {
			// Remember the error but keep trying other disjuncts: a
			// disjunct referencing a missing attribute must not mask a
			// disjunct that genuinely matches.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			return true, nil
		}
	}
	return false, firstErr
}

// Or returns the disjunction of two DNFs, simplified.
func (d DNF) Or(other DNF) DNF {
	out := make(DNF, 0, len(d)+len(other))
	out = append(out, d...)
	out = append(out, other...)
	return out.Simplify()
}

// And distributes a conjunction over every disjunct.
func (d DNF) And(cj Conj) DNF {
	out := make(DNF, len(d))
	for i, existing := range d {
		out[i] = existing.And(cj)
	}
	return out
}

// AndDNF returns the conjunction of two DNFs by distribution (cross
// product of disjuncts), simplified.
func (d DNF) AndDNF(other DNF) DNF {
	out := make(DNF, 0, len(d)*len(other))
	for _, a := range d {
		for _, b := range other {
			out = append(out, a.And(b))
		}
	}
	return out.Simplify()
}

// Clone returns a deep copy.
func (d DNF) Clone() DNF {
	out := make(DNF, len(d))
	for i, cj := range d {
		out[i] = cj.Clone()
	}
	return out
}

// Attrs returns the sorted set of attribute names referenced anywhere.
func (d DNF) Attrs() []string {
	set := map[string]bool{}
	for _, cj := range d {
		for _, a := range cj.Attrs() {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Simplify removes unsatisfiable disjuncts and disjuncts covered by
// (implying) another disjunct. This is the covering optimisation CBN
// routing tables rely on to stay compact. Each disjunct is summarised
// once; the pairwise covering tests compare summaries.
func (d DNF) Simplify() DNF {
	kept := make(DNF, 0, len(d))
	sums := make([]Summary, 0, len(d))
	for _, cj := range d {
		s := Summarize(cj)
		if !s.Satisfiable() {
			continue
		}
		kept = append(kept, cj)
		sums = append(sums, s)
	}
	// Compact kept in place: the covering tests read only sums.
	out := kept[:0]
	for i := range sums {
		covered := false
		for j := range sums {
			if i == j {
				continue
			}
			// Drop disjunct i if some other disjunct covers it. Break ties
			// by index so that two identical disjuncts keep exactly one.
			if sums[i].Implies(sums[j]) && (j < i || !sums[j].Implies(sums[i])) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, kept[i])
		}
	}
	return out
}

// Satisfiable reports whether any disjunct is satisfiable.
func (d DNF) Satisfiable() bool {
	for _, cj := range d {
		if cj.Satisfiable() {
			return true
		}
	}
	return false
}

// String renders the DNF with canonical ordering of disjuncts.
func (d DNF) String() string {
	if len(d) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(d))
	for i, cj := range d {
		parts[i] = "(" + cj.String() + ")"
	}
	sort.Strings(parts)
	return strings.Join(parts, " OR ")
}

// ImpliesDNF reports whether a ⟹ b holds for DNFs, using the sound (but
// incomplete) disjunct-wise test: every disjunct of a must imply some
// disjunct of b. Each disjunct is summarised once.
func ImpliesDNF(a, b DNF) bool {
	sb := make([]Summary, len(b))
	for i, cj := range b {
		sb[i] = Summarize(cj)
	}
	for _, cja := range a {
		if sa := Summarize(cja); sa.Satisfiable() && !slices.ContainsFunc(sb, sa.Implies) {
			return false
		}
	}
	return true
}

// AttrCmp is an attribute-to-attribute comparison — the form join
// predicates take (O.itemID = C.itemID). These never appear in CBN filters
// (which compare against constants) but are part of query predicates.
type AttrCmp struct {
	Left  string
	Op    Op
	Right string
}

// Eval evaluates the comparison against a (joined) tuple carrying both
// attributes.
func (a AttrCmp) Eval(tp stream.Tuple) (bool, error) {
	l, ok := tp.Get(a.Left)
	if !ok {
		return false, fmt.Errorf("predicate: tuple lacks attribute %s", a.Left)
	}
	r, ok := tp.Get(a.Right)
	if !ok {
		return false, fmt.Errorf("predicate: tuple lacks attribute %s", a.Right)
	}
	cmp, err := l.Compare(r)
	if err != nil {
		return false, err
	}
	return a.Op.Holds(cmp), nil
}

// Canonical returns the comparison with operands ordered lexically, so
// that A=B and B=A have identical representations.
func (a AttrCmp) Canonical() AttrCmp {
	if a.Left <= a.Right {
		return a
	}
	return AttrCmp{Left: a.Right, Op: a.Op.Flip(), Right: a.Left}
}

// String implements fmt.Stringer.
func (a AttrCmp) String() string {
	return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.Right)
}

// CanonicalAttrCmps returns a canonical sorted rendering of a join
// predicate set, for grouping signatures.
func CanonicalAttrCmps(cmps []AttrCmp) string {
	parts := make([]string, len(cmps))
	for i, c := range cmps {
		parts[i] = c.Canonical().String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}
