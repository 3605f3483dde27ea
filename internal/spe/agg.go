package spe

import (
	"fmt"

	"cosmos/internal/cql"
	"cosmos/internal/stream"
)

// aggState executes grouped windowed aggregation over a single stream
// under the Istream-per-update model: every surviving input tuple emits
// its group's updated aggregate row evaluated over the live window.
//
// Aggregates are maintained incrementally per group instead of
// rescanning the full window per tuple: COUNT and integer SUM/AVG as
// running counters adjusted on insert and eviction (exact int64 sums
// cannot lose precision), MIN/MAX as a current extremum that is marked
// dirty when an eviction removes it and recomputed from the group's live
// members only then, and float SUM/AVG summed over the group's live
// members at emission (a running float accumulator with subtract-on-
// evict suffers catastrophic cancellation once large values leave the
// window). Groups are keyed by canonical comparable value keys
// (stream.Value.Key) rather than rendered strings. Every access is by
// the column indices resolved in newAggState; rows reach it in the
// input's projected layout, and a group's live members are a chain of
// row ordinals threaded through the input's store.
type aggState struct {
	bound  *cql.Bound
	schema *stream.Schema
	// groupIdx are the resolved columns of the grouping attributes;
	// plainIdx those of the selected grouping columns in output order.
	groupIdx []int
	plainIdx []int
	specs    []aggSpec
	// trackMembers keeps per-group member chains (MIN/MAX recompute and
	// float SUM/AVG emission).
	trackMembers bool
	groups       map[hashKey]*groupAgg
	// spare is the last group evicted, emptied, which the next new group
	// takes instead of allocating: a [Now] aggregate's group expires and
	// returns on every push. One, so empty groups never accumulate.
	spare *groupAgg
}

// aggSpec is one aggregate output with its argument pre-resolved.
type aggSpec struct {
	fn    cql.AggFunc
	idx   int  // argument column in the input schema; -1 for COUNT(*)
	exact bool // non-float argument: exact int64 running sum
}

// aggAcc is one aggregate's running accumulator within a group.
type aggAcc struct {
	sumI  int64        // exact running sum (non-float arguments)
	best  stream.Value // current MIN/MAX
	dirty bool         // an eviction removed best; recompute on demand
}

// groupAgg is the incremental state of one group.
type groupAgg struct {
	count   int64
	accs    []aggAcc
	members chain // live member rows in arrival order
}

func newAggState(b *cql.Bound, schema *stream.Schema) (*aggState, error) {
	a := &aggState{bound: b, schema: schema, groups: map[hashKey]*groupAgg{}}
	for _, g := range b.GroupBy {
		idx := schema.ColIndex(g.Name)
		if idx < 0 {
			return nil, fmt.Errorf("spe: input schema lacks grouping attribute %s", g.Name)
		}
		a.groupIdx = append(a.groupIdx, idx)
	}
	for _, c := range b.SelectCols {
		idx := schema.ColIndex(c.Name)
		if idx < 0 {
			return nil, fmt.Errorf("spe: input schema lacks selected attribute %s", c.Name)
		}
		a.plainIdx = append(a.plainIdx, idx)
	}
	for _, spec := range b.Aggs {
		s := aggSpec{fn: spec.Func, idx: -1}
		switch spec.Func {
		case cql.AggCount, cql.AggSum, cql.AggAvg, cql.AggMin, cql.AggMax:
		default:
			return nil, fmt.Errorf("spe: unsupported aggregate %s", spec.Func)
		}
		if !spec.Star {
			s.idx = schema.ColIndex(spec.Arg.Name)
			if s.idx < 0 {
				return nil, fmt.Errorf("spe: input schema lacks aggregate attribute %s", spec.Arg.Name)
			}
			s.exact = schema.Fields[s.idx].Kind != stream.KindFloat
		}
		switch {
		case spec.Func == cql.AggMin || spec.Func == cql.AggMax:
			a.trackMembers = true
		case !s.exact && (spec.Func == cql.AggSum || spec.Func == cql.AggAvg):
			a.trackMembers = true
		}
		a.specs = append(a.specs, s)
	}
	return a, nil
}

// reset drops all group state (snapshot restore rebuilds it).
func (a *aggState) reset() { a.groups = map[hashKey]*groupAgg{} }

// keyOf builds a row's canonical group key.
func (a *aggState) keyOf(vals []stream.Value) hashKey {
	var k hashKey
	for i, col := range a.groupIdx {
		k = k.with(i, vals[col])
	}
	return k
}

// admit registers one surviving input row, just appended to the store
// as ord, with its group, updating the running aggregates. It is also
// how snapshot restore rebuilds state.
func (a *aggState) admit(st *rowStore, vals []stream.Value, ord uint64) *groupAgg {
	key := a.keyOf(vals)
	g := a.groups[key]
	if g == nil {
		if g, a.spare = a.spare, nil; g == nil {
			g = &groupAgg{accs: make([]aggAcc, len(a.specs))}
		}
		a.groups[key] = g
	}
	g.count++
	for si := range a.specs {
		s := &a.specs[si]
		if s.fn == cql.AggCount {
			continue
		}
		v := vals[s.idx]
		acc := &g.accs[si]
		switch s.fn {
		case cql.AggSum, cql.AggAvg:
			if s.exact {
				acc.sumI += v.AsInt()
			}
			// Float sums are computed from the member chain at emission.
		default: // MIN/MAX
			if g.count == 1 {
				acc.best, acc.dirty = v, false
			} else if !acc.dirty {
				if c, err := v.Compare(acc.best); err == nil &&
					((s.fn == cql.AggMin && c < 0) || (s.fn == cql.AggMax && c > 0)) {
					acc.best = v
				}
			}
		}
	}
	if a.trackMembers {
		st.link(&g.members, ord)
	}
	return g
}

// evictMember unwinds the store's oldest row (vals) from its group's
// running state; the plan's eviction loop calls it exactly once per
// expired row, so maintenance is amortised O(1) per push.
func (a *aggState) evictMember(st *rowStore, vals []stream.Value) {
	key := a.keyOf(vals)
	g := a.groups[key]
	if g == nil {
		return // unreachable: every buffered tuple was admitted
	}
	g.count--
	for si := range a.specs {
		s := &a.specs[si]
		if s.fn == cql.AggCount {
			continue
		}
		v := vals[s.idx]
		acc := &g.accs[si]
		switch s.fn {
		case cql.AggSum, cql.AggAvg:
			if s.exact {
				acc.sumI -= v.AsInt()
			}
		default: // MIN/MAX
			if acc.dirty {
				continue
			}
			if c, err := v.Compare(acc.best); err != nil || c == 0 {
				acc.dirty = true
			}
		}
	}
	if a.trackMembers {
		// Members expire in arrival order, so the front is the evictee.
		st.unlinkFirst(&g.members)
	}
	if g.count <= 0 {
		// Its count is 0 and its member chain empty: clear what the
		// accumulators still reference and keep it for the next group.
		delete(a.groups, key)
		clear(g.accs)
		a.spare = g
	}
}

// update admits the surviving row and emits its group's refreshed
// aggregate row, cut from the plan's slab. The row is bound to the
// bound's placeholder OutSchema; the plan rebinds it to its registered
// result stream schema.
func (a *aggState) update(st *rowStore, vals []stream.Value, ts stream.Timestamp, ord uint64, slab *stream.Slab) stream.Tuple {
	g := a.admit(st, vals, ord)
	values := slab.Take(len(a.plainIdx) + len(a.specs))[:0]
	for _, col := range a.plainIdx {
		values = append(values, vals[col])
	}
	for si := range a.specs {
		values = append(values, a.result(st, g, si))
	}
	return stream.Tuple{Schema: a.bound.OutSchema, Ts: ts, Values: values}
}

// result reads one aggregate's current value: running counters for
// COUNT and exact sums, the group's live members for float sums, and
// the cached MIN/MAX extremum, recomputed from the live members when an
// eviction dirtied it.
func (a *aggState) result(st *rowStore, g *groupAgg, si int) stream.Value {
	s := &a.specs[si]
	acc := &g.accs[si]
	switch s.fn {
	case cql.AggCount:
		return stream.Int(g.count)
	case cql.AggSum, cql.AggAvg:
		var sum float64
		if s.exact {
			sum = float64(acc.sumI)
		} else {
			// Summed fresh over the live members in arrival order: a
			// running accumulator with subtract-on-evict cancels
			// catastrophically once large values leave the window.
			sum = st.sumFloat(s.idx, g.members)
		}
		if s.fn == cql.AggAvg {
			sum /= float64(g.count)
		}
		return stream.Float(sum)
	default: // MIN/MAX
		if acc.dirty {
			a.recompute(st, g, si)
		}
		return acc.best
	}
}

// recompute rescans the group's live members (first-wins on ties, like a
// fresh window scan) to refresh a dirtied MIN/MAX extremum.
func (a *aggState) recompute(st *rowStore, g *groupAgg, si int) {
	s := &a.specs[si]
	acc := &g.accs[si]
	first := true
	for ord := g.members.first; ord != 0; {
		pg, i := st.at(ord)
		v := st.valueAt(pg, i, s.idx, ord)
		ord = st.nextAt(pg, i)
		if first {
			acc.best, first = v, false
			continue
		}
		if c, err := v.Compare(acc.best); err == nil &&
			((s.fn == cql.AggMin && c < 0) || (s.fn == cql.AggMax && c > 0)) {
			acc.best = v
		}
	}
	acc.dirty = first // cleared unless the group had no members
}
