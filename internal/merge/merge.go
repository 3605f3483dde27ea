// Package merge implements the paper's query-merging technique (§4):
// composing a representative query that contains every member of a query
// group, and the incremental greedy optimiser that assigns each arriving
// query to the group where merging yields the greatest estimated
// communication benefit, Σ C(qi) − C(q_rep).
//
// Merging follows Theorems 1 and 2: representative SPJ windows take the
// per-stream maximum; representative predicates are the "loosened"
// combination of member predicates; projections take the union.
// Exactness is recovered at the data layer by re-tightening profiles
// (package profile / BuildMemberProfile).
package merge

import (
	"fmt"
	"slices"
	"strings"

	"cosmos/internal/cql"
	"cosmos/internal/predicate"
	"cosmos/internal/window"
)

// Mode selects how member selection predicates combine into the
// representative predicate.
type Mode int

const (
	// ExactUnion ORs member predicates (DNF union with covering
	// simplification). The representative result is exactly the union of
	// member results for single-stream filters; groups stay tight at the
	// price of larger filter expressions.
	ExactUnion Mode = iota
	// ConvexHull widens per-attribute constraints to their convex hull,
	// producing a single conjunctive filter per stream. Filters stay
	// O(#attributes) regardless of group size; the representative may
	// cover tuples no member wants (filtered out when splitting).
	ConvexHull
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ConvexHull {
		return "hull"
	}
	return "union"
}

// Queries merges two bound queries into a representative query containing
// both (q1 ⊑ rep and q2 ⊑ rep). It errors when the queries are not
// group-compatible: different group signatures, or aggregates whose
// predicates/windows are not equivalent (Theorem 2 leaves no room to
// loosen an aggregate).
func Queries(q1, q2 *cql.Bound, mode Mode) (*cql.Bound, error) {
	if q1.GroupSignature() != q2.GroupSignature() {
		return nil, fmt.Errorf("merge: incompatible group signatures")
	}
	if q1.IsAggregate() {
		return mergeAggregates(q1, q2)
	}
	rep := q1.Clone()
	rep.Raw = ""

	// Windows: per-stream maximum (Theorem 1 condition 2).
	for i, ref := range rep.From {
		w := window.Max(ref.Window, q2.Windows[ref.Alias])
		rep.From[i].Window = w
		rep.Windows[ref.Alias] = w
	}

	// Selections: loosen per mode.
	for alias, sel1 := range rep.Sel {
		sel2, ok := q2.Sel[alias]
		if !ok {
			sel2 = predicate.True()
		}
		rep.Sel[alias] = loosen(sel1, sel2, mode)
	}

	// Residual predicates: both empty stays empty; otherwise OR (an empty
	// residual means TRUE, which dominates).
	switch {
	case len(rep.Residual) == 0 && len(q2.Residual) == 0:
		// nothing
	case len(rep.Residual) == 0 || len(q2.Residual) == 0:
		rep.Residual = nil
	default:
		rep.Residual = loosen(rep.Residual, q2.Residual, mode)
		if rep.Residual.IsTrue() {
			rep.Residual = nil
		}
	}

	// Projection: union of select columns plus every attribute a member's
	// re-tightening filter references (the split point must be able to
	// evaluate member predicates on the representative's result stream),
	// deterministic order.
	rep.SelectCols, rep.OutNames = unionCols(q1, q2, filterCols(q1), filterCols(q2))
	// Multi-stream representatives expose per-input timestamps so member
	// profiles can re-tighten windows (Lemma 1).
	if len(rep.From) > 1 {
		rep.IncludeInputTs = true
	}
	if err := rep.Rebuild(); err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	return rep, nil
}

// filterCols collects the qualified columns referenced by a query's
// selection and residual predicates.
func filterCols(q *cql.Bound) []cql.ColRef {
	var out []cql.ColRef
	for alias, sel := range q.Sel {
		sch := q.Schemas[alias]
		for _, bare := range sel.Attrs() {
			if sch.Has(bare) {
				out = append(out, cql.ColRef{Qualifier: alias, Name: bare})
			}
		}
	}
	for _, qualified := range q.Residual.Attrs() {
		if c, ok := splitQualified(q, qualified); ok {
			out = append(out, c)
		}
	}
	return out
}

// splitQualified resolves "alias.attr" against the query's schemas.
func splitQualified(q *cql.Bound, qualified string) (cql.ColRef, bool) {
	for alias, sch := range q.Schemas {
		prefix := alias + "."
		if len(qualified) > len(prefix) && qualified[:len(prefix)] == prefix {
			name := qualified[len(prefix):]
			if sch.Has(name) {
				return cql.ColRef{Qualifier: alias, Name: name}, true
			}
		}
	}
	return cql.ColRef{}, false
}

// loosen combines two selection DNFs per the mode, collapsing to TRUE
// early when either side is TRUE.
func loosen(a, b predicate.DNF, mode Mode) predicate.DNF {
	if a.IsTrue() || b.IsTrue() {
		return predicate.True()
	}
	if mode == ConvexHull {
		return hullDNF(a, b)
	}
	return a.Or(b)
}

// hullDNF folds every disjunct of both DNFs into a single conjunction by
// repeated pairwise convex hull.
func hullDNF(a, b predicate.DNF) predicate.DNF {
	all := make([]predicate.Conj, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	if len(all) == 0 {
		return predicate.True()
	}
	acc := all[0]
	for _, cj := range all[1:] {
		acc = predicate.Hull(acc, cj)
	}
	if len(acc) == 0 {
		return predicate.True()
	}
	return predicate.DNF{acc}
}

// mergeAggregates merges aggregate queries, which is only possible when
// they are equivalent up to projection: equal windows (Theorem 2) and
// equivalent selections/residuals — otherwise the aggregate values would
// differ and no splitting filter could recover them.
func mergeAggregates(q1, q2 *cql.Bound) (*cql.Bound, error) {
	for alias, w1 := range q1.Windows {
		if q2.Windows[alias] != w1 {
			return nil, fmt.Errorf("merge: aggregate windows differ on %s", alias)
		}
	}
	for alias, sel1 := range q1.Sel {
		sel2, ok := q2.Sel[alias]
		if !ok {
			sel2 = predicate.True()
		}
		if !predicate.ImpliesDNF(sel1, sel2) || !predicate.ImpliesDNF(sel2, sel1) {
			return nil, fmt.Errorf("merge: aggregate selections differ on %s", alias)
		}
	}
	res1, res2 := q1.Residual, q2.Residual
	if len(res1) == 0 {
		res1 = predicate.True()
	}
	if len(res2) == 0 {
		res2 = predicate.True()
	}
	if !predicate.ImpliesDNF(res1, res2) || !predicate.ImpliesDNF(res2, res1) {
		return nil, fmt.Errorf("merge: aggregate residuals differ")
	}
	rep := q1.Clone()
	rep.Raw = ""
	// Projection union over the grouped plain columns; aggregates are
	// identical by signature. Aggregate output names canonicalise to the
	// spec rendering so that members with different AS aliases share one
	// result attribute (per-member renaming happens at delivery).
	rep.SelectCols, rep.OutNames = unionCols(q1, q2)
	for i := range rep.Aggs {
		rep.Aggs[i].OutName = rep.Aggs[i].String()
	}
	if err := rep.Rebuild(); err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	return rep, nil
}

// unionCols unions the select columns of two queries plus any extra
// column sets. Output names revert to canonical qualified names (user AS
// aliases are per-member concerns, reapplied when results are delivered).
// The order is the representative's own choice, since every member finds
// its columns by name. A single-input representative keeps its source's
// column order, the order the data plane delivers its input in, so a
// select list that is a run of the input emits that run of the arriving
// tuple without copying it. A join assembles every result afresh; its
// columns are ordered by qualified name.
func unionCols(q1, q2 *cql.Bound, extra ...[]cql.ColRef) ([]cql.ColRef, []string) {
	all := append(append([]cql.ColRef{}, q1.SelectCols...), q2.SelectCols...)
	for _, cols := range extra {
		all = append(all, cols...)
	}
	seen := map[string]bool{}
	var cols []cql.ColRef
	for _, c := range all {
		key := c.String()
		if !seen[key] {
			seen[key] = true
			cols = append(cols, c)
		}
	}
	if len(q1.From) == 1 {
		src := q1.Schemas[q1.From[0].Alias]
		slices.SortFunc(cols, func(a, b cql.ColRef) int { return src.ColIndex(a.Name) - src.ColIndex(b.Name) })
	} else {
		slices.SortFunc(cols, func(a, b cql.ColRef) int { return strings.Compare(a.String(), b.String()) })
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.String()
	}
	return cols, names
}
