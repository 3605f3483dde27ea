// Package containment decides continuous-query containment, the formal
// core of the paper's query-merging technique (§4).
//
// Definition 1 of the paper: a continuous query q1 is contained by q2
// (q1 ⊑ q2) if for all stream instances S and all application time
// instances τ, q1(S, τ) ⊆ q2(S, τ).
//
// The paper reduces the continuous case to the traditional one:
//
//	Theorem 1 (SPJ): Q1 ⊑ Q2 if (1) Q1∞ ⊑ Q2∞ — containment ignoring
//	windows — and (2) T_i(Q1) ≤ T_i(Q2) for every input stream i.
//
//	Theorem 2 (aggregates): Q1 ⊑ Q2 if (1) Q1∞ ⊑ Q2∞ and (2) the window
//	sizes are equal stream-wise.
//
// For the Q∞ part this package implements the classical sufficient test
// for the CQL subset COSMOS accepts: both queries must involve the same
// streams with the same join predicates (which the grouping optimiser
// already requires), q2's selection predicates must be implied by q1's,
// and q2's projection must retain every attribute q1 outputs. The test is
// sound but not complete — exactly the trade the paper makes by merging
// only within groups that share FROM clauses and aggregation structure.
package containment

import (
	"slices"

	"cosmos/internal/cql"
	"cosmos/internal/predicate"
	"cosmos/internal/window"
)

// Result explains a containment decision; useful for optimizer tracing
// and tests.
type Result struct {
	Contained bool
	Reason    string
}

// Contains reports whether q1 ⊑ q2 using the sufficient conditions of
// Theorems 1 and 2.
func Contains(q1, q2 *cql.Bound) bool {
	return Explain(q1, q2).Contained
}

// Explain is Contains with a human-readable reason for the decision.
func Explain(q1, q2 *cql.Bound) Result {
	// Same query shape: streams, joins, aggregation structure.
	if q1.GroupSignature() != q2.GroupSignature() {
		return Result{false, "different streams, join predicates or aggregation structure"}
	}
	if r := containsInfinity(q1, q2); !r.Contained {
		return r
	}
	// Window conditions.
	if q1.IsAggregate() {
		// Theorem 2(2): equal windows stream-wise.
		for alias, w1 := range q1.Windows {
			if w2, ok := q2.Windows[alias]; !ok || w1 != w2 {
				return Result{false, "aggregate windows differ on " + alias}
			}
		}
	} else {
		// Theorem 1(2): q2's windows must dominate q1's.
		for alias, w1 := range q1.Windows {
			w2, ok := q2.Windows[alias]
			if !ok || !window.Covers(w2, w1) {
				return Result{false, "window on " + alias + " not covered"}
			}
		}
	}
	return Result{true, "Theorem 1/2 conditions hold"}
}

// containsInfinity checks Q1∞ ⊑ Q2∞: containment with every window set to
// infinity, per the reduction in both theorems.
//
// For aggregate queries the predicate condition is strengthened from
// implication to equivalence: an aggregate evaluated over a strict subset
// of the input produces different VALUES, not a subset of rows, so
// implication alone would be unsound. (SPJ queries keep the classical
// implication condition.)
func containsInfinity(q1, q2 *cql.Bound) Result {
	agg := q1.IsAggregate()
	holds := func(a, b predicate.DNF) bool {
		if agg {
			return predicate.ImpliesDNF(a, b) && predicate.ImpliesDNF(b, a)
		}
		return predicate.ImpliesDNF(a, b)
	}
	// Selections: q1's per-stream filters must imply q2's.
	for alias, sel1 := range q1.Sel {
		sel2, ok := q2.Sel[alias]
		if !ok {
			sel2 = predicate.True()
		}
		if !holds(sel1, sel2) {
			return Result{false, "selection on " + alias + " not implied"}
		}
	}
	// Residual (post-join) predicates likewise.
	res1, res2 := q1.Residual, q2.Residual
	if len(res1) == 0 {
		res1 = predicate.True()
	}
	if len(res2) == 0 {
		res2 = predicate.True()
	}
	if !holds(res1, res2) {
		return Result{false, "residual predicate not implied"}
	}
	// Cross-check: q2 must not filter rows via pushed selections on
	// streams q1 leaves unconstrained — covered above because q1.Sel is
	// total over aliases (Analyze guarantees it).

	// Projection: every output attribute of q1 must be available in q2's
	// output. For aggregates the signature check already pinned the
	// aggregate list; here we compare the grouped/plain columns.
	if !projectionCovered(q1, q2) {
		return Result{false, "projection not covered"}
	}
	return Result{true, ""}
}

// projectionCovered reports whether q2 outputs every source column q1
// outputs.
func projectionCovered(q1, q2 *cql.Bound) bool {
	for _, c := range q1.SelectCols {
		if !slices.Contains(q2.SelectCols, c) {
			return false
		}
	}
	return true
}

// Equivalent reports mutual containment under the sufficient test.
func Equivalent(q1, q2 *cql.Bound) bool {
	return Contains(q1, q2) && Contains(q2, q1)
}
