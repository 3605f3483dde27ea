package merge

import (
	"fmt"
	"sort"

	"cosmos/internal/containment"
	"cosmos/internal/cost"
	"cosmos/internal/cql"
)

// Member is one query inside a group.
type Member struct {
	// Tag is the caller-assigned identifier (query id).
	Tag string
	// Query is the bound member query.
	Query *cql.Bound
	// Bps is the cached C(q) estimate.
	Bps float64
}

// Group is a set of overlapping queries represented by one merged query
// (paper §4: "each processor maintains a number of query groups such that
// queries inside each group have overlapping results and it is beneficial
// to rewrite these queries into one query").
type Group struct {
	// ID is a process-unique group identifier.
	ID int
	// Signature is the shared group signature of every member.
	Signature string
	// Members lists the group's queries.
	Members []*Member
	// Rep is the representative query; the sole member's query for a
	// group opened by it. A join or a leave that leaves an equivalent
	// representative (see keepsRep) keeps this pointer, so a group of one
	// may keep its former representative.
	Rep *cql.Bound
	// RepBps is the cached C(rep).
	RepBps float64
}

// MemberBps returns Σ C(qi) over the members.
func (g *Group) MemberBps() float64 {
	sum := 0.0
	for _, m := range g.Members {
		sum += m.Bps
	}
	return sum
}

// Benefit returns the group's estimated saving, Σ C(qi) − C(rep).
func (g *Group) Benefit() float64 { return g.MemberBps() - g.RepBps }

// Options configures the grouping optimiser.
type Options struct {
	// Mode selects predicate loosening (see Mode).
	Mode Mode
	// MaxCandidates bounds how many candidate groups (sharing the
	// signature) are evaluated per insertion, most recently touched
	// first; 0 means unlimited. This is the knob that keeps insertion
	// cost bounded at web scale.
	MaxCandidates int
	// MinBenefit is the minimum estimated saving (bytes/sec) required to
	// join an existing group instead of opening a new one.
	MinBenefit float64
}

// Optimizer implements the paper's incremental greedy algorithm: "each
// new query is assigned to the query group that can achieve the maximum
// benefit".
type Optimizer struct {
	opts   Options
	est    cost.Estimator
	nextID int
	// groups indexes candidate groups by signature, most recently
	// touched last.
	groups map[string][]*Group
	byTag  map[string]*Group
	nq     int
}

// NewOptimizer builds an optimiser with the given options.
func NewOptimizer(opts Options) *Optimizer {
	return &Optimizer{
		opts:   opts,
		groups: map[string][]*Group{},
		byTag:  map[string]*Group{},
	}
}

// Placement describes where Add put a query.
type Placement struct {
	Group *Group
	// Created reports whether a new group was opened.
	Created bool
	// Benefit is the estimated marginal saving of the chosen merge
	// (zero when a new group was opened).
	Benefit float64
}

// Add inserts a query with a caller-chosen unique tag, returning its
// placement. The query joins the compatible group with the maximum
// positive marginal benefit
//
//	[C(rep_old) + C(q)] − C(rep_new)
//
// or opens a new group when no merge clears MinBenefit.
func (o *Optimizer) Add(tag string, q *cql.Bound) (Placement, error) {
	if _, dup := o.byTag[tag]; dup {
		return Placement{}, fmt.Errorf("merge: duplicate query tag %q", tag)
	}
	sig := q.GroupSignature()
	qBps := o.est.Bps(q)

	candidates := o.groups[sig]
	// Scan most recently touched first.
	var best *Group
	var bestRep *cql.Bound
	bestBenefit := o.opts.MinBenefit
	scanned := 0
	for i := len(candidates) - 1; i >= 0; i-- {
		if o.opts.MaxCandidates > 0 && scanned >= o.opts.MaxCandidates {
			break
		}
		scanned++
		g := candidates[i]
		rep, err := Queries(g.Rep, q, o.opts.Mode)
		if err != nil {
			continue // incompatible (e.g. differing aggregates)
		}
		benefit := g.RepBps + qBps - o.est.Bps(rep)
		if benefit > bestBenefit {
			best, bestRep, bestBenefit = g, rep, benefit
		}
	}

	m := &Member{Tag: tag, Query: q, Bps: qBps}
	if best == nil {
		g := &Group{
			ID:        o.nextID,
			Signature: sig,
			Members:   []*Member{m},
			Rep:       q,
			RepBps:    qBps,
		}
		o.nextID++
		o.groups[sig] = append(o.groups[sig], g)
		o.byTag[tag] = g
		o.nq++
		return Placement{Group: g, Created: true}, nil
	}

	best.Members = append(best.Members, m)
	best.setRep(bestRep, o.est)
	o.touch(best)
	o.byTag[tag] = best
	o.nq++
	return Placement{Group: best, Benefit: bestBenefit}, nil
}

// touch moves a group to the most-recently-used end of its bucket.
func (o *Optimizer) touch(g *Group) {
	bucket := o.groups[g.Signature]
	for i, other := range bucket {
		if other == g {
			copy(bucket[i:], bucket[i+1:])
			bucket[len(bucket)-1] = g
			return
		}
	}
}

// Remove deletes a query by tag, rebuilding its group's representative
// from the remaining members. Empty groups are dropped. It returns the
// affected group (nil if it became empty) and whether the tag existed.
func (o *Optimizer) Remove(tag string) (*Group, bool) {
	g, ok := o.byTag[tag]
	if !ok {
		return nil, false
	}
	delete(o.byTag, tag)
	o.nq--
	for i, m := range g.Members {
		if m.Tag == tag {
			g.Members = append(g.Members[:i], g.Members[i+1:]...)
			break
		}
	}
	if len(g.Members) == 0 {
		bucket := o.groups[g.Signature]
		for i, other := range bucket {
			if other == g {
				o.groups[g.Signature] = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(o.groups[g.Signature]) == 0 {
			delete(o.groups, g.Signature)
		}
		return nil, true
	}
	// Rebuild the representative from scratch.
	rep := g.Members[0].Query
	for _, m := range g.Members[1:] {
		merged, err := Queries(rep, m.Query, o.opts.Mode)
		if err != nil {
			// Members were group-compatible on insertion; a failure here
			// indicates aggregate members that were identical — keep the
			// first member's query as representative.
			continue
		}
		rep = merged
	}
	g.setRep(rep, o.est)
	return g, true
}

// setRep moves the group to the representative rep, unless its own
// stands in for rep unchanged (keepsRep): then Rep stays the same
// pointer, which tells the processor that plan, result stream and
// members' re-tightening all stay as they are.
func (g *Group) setRep(rep *cql.Bound, est cost.Estimator) {
	if keepsRep(g.Rep, rep) {
		return
	}
	g.Rep, g.RepBps = rep, est.Bps(rep)
}

// keepsRep reports whether the standing representative rep serves
// everything candidate would (paper §4, Theorems 1 and 2): the same
// output layout, the same per-input timestamps, and the same results,
// containment both ways. The layout check matters beyond equivalence: a
// member's re-tightening filter reads the columns and timestamps the
// representative carries for it.
func keepsRep(rep, candidate *cql.Bound) bool {
	return candidate.OutSchema.Equal(rep.OutSchema) &&
		candidate.IncludeInputTs == rep.IncludeInputTs &&
		containment.Equivalent(candidate, rep)
}

// GroupOf returns the group currently holding a tag.
func (o *Optimizer) GroupOf(tag string) (*Group, bool) {
	g, ok := o.byTag[tag]
	return g, ok
}

// Groups returns all groups, ordered by ID.
func (o *Optimizer) Groups() []*Group {
	var out []*Group
	for _, bucket := range o.groups {
		out = append(out, bucket...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats summarises the optimiser state for the paper's metrics.
type Stats struct {
	Queries int
	Groups  int
	// MemberBps is Σ C(qi) over all queries (the unmerged delivery rate).
	MemberBps float64
	// RepBps is Σ C(rep) over all groups (the merged delivery rate).
	RepBps float64
}

// GroupingRatio is #groups / #queries — Figure 4(b).
func (s Stats) GroupingRatio() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Groups) / float64(s.Queries)
}

// RateBenefitRatio is the estimated rate-only benefit 1 − ΣC(rep)/ΣC(q);
// Figure 4(a)'s benefit ratio is measured by the sim package from the
// links' delay-weighted traffic.
func (s Stats) RateBenefitRatio() float64 {
	if s.MemberBps == 0 {
		return 0
	}
	return 1 - s.RepBps/s.MemberBps
}

// Stats computes current optimiser statistics.
func (o *Optimizer) Stats() Stats {
	st := Stats{Queries: o.nq}
	for _, bucket := range o.groups {
		for _, g := range bucket {
			st.Groups++
			st.MemberBps += g.MemberBps()
			st.RepBps += g.RepBps
		}
	}
	return st
}
