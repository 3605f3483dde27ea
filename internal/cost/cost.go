// Package cost estimates continuous-query output rates — the C(q) of the
// paper's benefit function (§4: "The benefit of the rewriting can be
// estimated as Σ C(qi) − C(q), where C(q) is the estimated rate (bps) of
// the result stream of q") — plus the filter selectivities those
// estimates are built from.
//
// The estimator follows the classical System-R playbook: attribute values
// are assumed uniform over the active domain recorded in the stream's
// AttrStats, predicates independent, equality joins keyed on the larger
// distinct count. These assumptions are crude but uniform across compared
// plans, which is all the greedy grouping optimiser requires.
package cost

import (
	"cosmos/internal/cql"
	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// Default selectivities when no statistics are available, following the
// traditional System-R constants.
const (
	DefaultEqSelectivity    = 0.05
	DefaultRangeSelectivity = 1.0 / 3.0
	DefaultNeSelectivity    = 0.95
	DefaultJoinSelectivity  = 0.01
)

// minTickSeconds is the effective window contribution of a [Now] window:
// tuples only meet partners that share their timestamp, which over the
// millisecond application-time domain means a one-tick (1 ms) slice.
const minTickSeconds = 0.001

// DatagramOverheadBytes is the per-tuple framing overhead on the wire
// (headers, stream id, routing metadata). It matters to the merging
// benefit: unmerged delivery pays this overhead once per member stream,
// merged delivery once per representative tuple.
const DatagramOverheadBytes = 16

// Estimate is the cost summary of one query's result stream.
type Estimate struct {
	// TuplesPerSec is the estimated result rate in tuples per second.
	TuplesPerSec float64
	// TupleBytes is the assumed result tuple width (payload + timestamp).
	TupleBytes int
}

// Bps returns the estimated result stream bandwidth in bytes per second,
// including per-datagram framing — the C(q) of the paper.
func (e Estimate) Bps() float64 {
	return e.TuplesPerSec * float64(e.TupleBytes+DatagramOverheadBytes)
}

// Estimator computes selectivities and output rates against catalog
// statistics.
type Estimator struct{}

// SelectivityConstraint estimates the fraction of tuples satisfying one
// constraint, given the owning stream's statistics.
func (Estimator) SelectivityConstraint(info *stream.Info, c predicate.Constraint) float64 {
	var stats stream.AttrStats
	known := false
	if info != nil && !c.Term.IsDiff() {
		if s, ok := info.Stats[c.Term.A]; ok && s.Span() > 0 {
			stats, known = s, true
		}
	}
	switch c.Op {
	case predicate.EQ:
		if known && stats.Distinct > 0 {
			return 1 / float64(stats.Distinct)
		}
		return DefaultEqSelectivity
	case predicate.NE:
		if known && stats.Distinct > 0 {
			return 1 - 1/float64(stats.Distinct)
		}
		return DefaultNeSelectivity
	default:
		if known {
			iv, ok := predicate.FromOp(c.Op, c.Const.AsFloat())
			if ok {
				w := iv.Width(stats.Min, stats.Max)
				return clamp01(w / stats.Span())
			}
		}
		return DefaultRangeSelectivity
	}
}

// SelectivityConj estimates a conjunction's selectivity assuming
// attribute independence. It reads the conjunction's predicate.Summary:
// an unsatisfiable conjunction selects nothing, and a term constrained
// only by numeric range comparisons, with known statistics, takes its
// combined interval, so that "a ≥ 2 AND a ≤ 5" is not double-counted.
// Every other term multiplies its constraints' selectivities in order.
func (e Estimator) SelectivityConj(info *stream.Info, cj predicate.Conj) float64 {
	if len(cj) == 0 {
		return 1
	}
	sum := predicate.Summarize(cj)
	if !sum.Satisfiable() {
		return 0
	}
	sel := 1.0
	terms := sum.Terms()
	for i := range terms {
		if s, ok := rangeSelectivity(info, &terms[i]); ok {
			sel *= s
			continue
		}
		for _, c := range terms[i].Constraints {
			sel *= e.SelectivityConstraint(info, c)
		}
	}
	return clamp01(sel)
}

// rangeSelectivity handles a term constrained exclusively by numeric
// range comparisons with known stats, returning the width of their
// interval over the domain span.
func rangeSelectivity(info *stream.Info, t *predicate.TermSummary) (float64, bool) {
	iv, ok := t.RangeInterval()
	if !ok || info == nil || t.Term.IsDiff() {
		return 0, false
	}
	stats, ok := info.Stats[t.Term.A]
	if !ok || stats.Span() <= 0 {
		return 0, false
	}
	return clamp01(iv.Width(stats.Min, stats.Max) / stats.Span()), true
}

// SelectivityDNF estimates a disjunction's selectivity with the standard
// inclusion bound: 1 − Π(1 − sel_i).
func (e Estimator) SelectivityDNF(info *stream.Info, d predicate.DNF) float64 {
	if d.IsTrue() {
		return 1
	}
	if len(d) == 0 {
		return 0
	}
	miss := 1.0
	for _, cj := range d {
		miss *= 1 - e.SelectivityConj(info, cj)
	}
	return clamp01(1 - miss)
}

// joinSelectivity estimates one equality/inequality join predicate.
func (Estimator) joinSelectivity(b *cql.Bound, j predicate.AttrCmp) float64 {
	if j.Op != predicate.EQ {
		return DefaultRangeSelectivity
	}
	d1 := distinctOf(b, j.Left)
	d2 := distinctOf(b, j.Right)
	d := d1
	if d2 > d {
		d = d2
	}
	if d <= 0 {
		return DefaultJoinSelectivity
	}
	return 1 / float64(d)
}

// distinctOf resolves the distinct count of a qualified attribute.
func distinctOf(b *cql.Bound, qualified string) int {
	for alias, info := range b.Infos {
		prefix := alias + "."
		if len(qualified) > len(prefix) && qualified[:len(prefix)] == prefix {
			if s, ok := info.Stats[qualified[len(prefix):]]; ok {
				return s.Distinct
			}
			return 0
		}
	}
	return 0
}

// OutputRate estimates the result stream rate of a bound query: the C(q)
// used by the grouping optimiser.
//
// Single stream:  r·sel(F)                       tuples/s
// Two-way join:   r1·sel1 · r2·sel2 · jsel · W   tuples/s, W = effective
//
//	window seconds (T1+T2, floored at one tick)
//
// n-way joins fold pairwise left-to-right. Aggregates follow the
// Istream-per-update model: every surviving input tuple emits one updated
// aggregate row, so the rate is the filtered input rate with the
// (typically much narrower) aggregate tuple width.
func (e Estimator) OutputRate(b *cql.Bound) Estimate {
	type leg struct {
		rate float64
		win  stream.Duration
	}
	legs := make([]leg, 0, len(b.From))
	for _, ref := range b.From {
		info := b.Infos[ref.Alias]
		sel := e.SelectivityDNF(info, b.Sel[ref.Alias])
		legs = append(legs, leg{rate: info.Rate * sel, win: ref.Window})
	}

	out := legs[0].rate
	accWin := legs[0].win
	for i := 1; i < len(legs); i++ {
		w := windowSeconds(accWin) + windowSeconds(legs[i].win)
		if w < minTickSeconds {
			w = minTickSeconds
		}
		out = out * legs[i].rate * w
		accWin = maxDur(accWin, legs[i].win)
	}
	// Join predicate selectivities.
	for _, j := range b.Joins {
		out *= e.joinSelectivity(b, j)
	}
	// Residual predicates: estimated without per-stream stats (terms are
	// qualified and often cross-stream differences).
	if len(b.Residual) > 0 && !b.Residual.IsTrue() {
		out *= e.SelectivityDNF(nil, b.Residual)
	}
	if out < 0 {
		out = 0
	}
	return Estimate{TuplesPerSec: out, TupleBytes: b.OutSchema.TupleWidth() + 8}
}

// Bps is shorthand for OutputRate(b).Bps().
func (e Estimator) Bps(b *cql.Bound) float64 { return e.OutputRate(b).Bps() }

// windowSeconds converts a window to seconds, treating Unbounded as a
// day-long horizon so that estimates stay finite; production deployments
// should bound windows explicitly.
func windowSeconds(d stream.Duration) float64 {
	if d == stream.Unbounded {
		return float64(stream.Day) / 1000
	}
	return float64(d) / 1000
}

func maxDur(a, b stream.Duration) stream.Duration {
	if a > b {
		return a
	}
	return b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
