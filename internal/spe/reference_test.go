package spe

import (
	"fmt"
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/stream"
	"cosmos/internal/window"
)

// This file is the name-resolved reference executor the compiled plan is
// differentially tested against: selection through the DNF evaluator,
// nested-loop window-join probes over assembled tuples, select lists and
// aggregate arguments fetched by attribute name, aggregates recomputed
// from a rescan of the group's live window on every tuple. Its windows
// are plain slices of tuples of its own; it shares nothing of the plan's
// row stores or compiled state.

// refPlan is a second plan of the same query, driven through
// pushReference only. Of the embedded Plan it reads the query's parts
// (inputs' alias, window, filter and projected schema, join predicates,
// residual, result schema); its compiled artifacts are dropped so the
// reference cannot reach them by accident.
type refPlan struct {
	*Plan
	bufs [][]stream.Tuple // per input, the live window in arrival order
}

func referenceTwin(t *testing.T, id string, b *cql.Bound, result string) *refPlan {
	t.Helper()
	p, err := Compile(id, b, result)
	if err != nil {
		t.Fatal(err)
	}
	p.cp, p.agg = nil, nil
	for _, in := range p.inputs {
		in.selC, in.hash, in.store = nil, nil, rowStore{}
	}
	return &refPlan{Plan: p, bufs: make([][]stream.Tuple, len(p.inputs))}
}

func (p *refPlan) indexOf(alias string) int {
	for i, in := range p.inputs {
		if in.alias == alias {
			return i
		}
	}
	return -1
}

// evict drops the tuples of input i that the watermark expired.
func (p *refPlan) evict(i int) {
	buf := p.bufs[i]
	for len(buf) > 0 && window.Expired(buf[0].Ts, p.watermark, p.inputs[i].win) {
		buf = buf[1:]
	}
	p.bufs[i] = buf
}

// pushReference is Push on the reference path: tuples are adapted to
// each input by name and run through the name-resolved operators.
func (p *refPlan) pushReference(t stream.Tuple) ([]stream.Tuple, error) {
	var out []stream.Tuple
	for i, in := range p.inputs {
		if in.stream != t.Schema.Stream {
			continue
		}
		if t.Ts > p.watermark {
			p.watermark = t.Ts
		}
		adapted, err := t.Project(in.schema)
		if err != nil {
			return nil, fmt.Errorf("spe %s: input tuple: %w", p.ID, err)
		}
		emitted, err := p.pushInterpreted(i, adapted)
		if err != nil {
			return nil, err
		}
		out = append(out, emitted...)
	}
	return out, nil
}

// pushInterpreted is the name-resolved per-input path.
func (p *refPlan) pushInterpreted(self int, t stream.Tuple) ([]stream.Tuple, error) {
	in := p.inputs[self]
	if in.sel != nil && !in.sel.IsTrue() {
		ok, err := in.sel.Eval(t)
		if err != nil {
			return nil, fmt.Errorf("spe %s: %w", p.ID, err)
		}
		if !ok {
			return nil, nil
		}
	}
	if p.Bound.IsAggregate() {
		p.evict(self)
		p.bufs[self] = append(p.bufs[self], t)
		return p.aggregateByRescan(self, t)
	}
	if len(p.inputs) == 1 {
		return p.emitCombo([]stream.Tuple{t})
	}
	// Window join: evict, probe the other inputs, then insert.
	for i := range p.inputs {
		p.evict(i)
	}
	combos, err := p.probe(self, t)
	if err != nil {
		return nil, err
	}
	p.bufs[self] = append(p.bufs[self], t)
	var out []stream.Tuple
	for _, combo := range combos {
		res, err := p.emitCombo(combo)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// aggregateByRescan emits the aggregate row of the new tuple's group by
// scanning the live window (which already holds t): the Istream-per-
// update definition, with none of the incremental state.
func (p *refPlan) aggregateByRescan(self int, t stream.Tuple) ([]stream.Tuple, error) {
	b, in := p.Bound, p.inputs[self]
	keyOf := func(u stream.Tuple) (hashKey, error) {
		var k hashKey
		for i, g := range b.GroupBy {
			v, ok := u.Get(g.Name)
			if !ok {
				return hashKey{}, fmt.Errorf("spe: tuple lacks grouping attribute %s", g.Name)
			}
			k = k.with(i, v)
		}
		return k, nil
	}
	key, err := keyOf(t)
	if err != nil {
		return nil, err
	}
	var members []stream.Tuple
	for _, u := range p.bufs[self] {
		ku, err := keyOf(u)
		if err != nil {
			return nil, err
		}
		if ku == key {
			members = append(members, u)
		}
	}
	values := make([]stream.Value, 0, len(b.SelectCols)+len(b.Aggs))
	for _, c := range b.SelectCols {
		v, ok := t.Get(c.Name)
		if !ok {
			return nil, fmt.Errorf("spe: tuple lacks selected grouping attribute %s", c.Name)
		}
		values = append(values, v)
	}
	for _, spec := range b.Aggs {
		if spec.Func == cql.AggCount {
			values = append(values, stream.Int(int64(len(members))))
			continue
		}
		f, ok := in.schema.FieldByName(spec.Arg.Name)
		if !ok {
			return nil, fmt.Errorf("spe: tuple lacks aggregate attribute %s", spec.Arg.Name)
		}
		var sumI int64
		var sumF float64
		var best stream.Value
		for i, u := range members {
			v := u.MustGet(spec.Arg.Name)
			switch spec.Func {
			case cql.AggSum, cql.AggAvg:
				sumI += v.AsInt()
				sumF += v.AsFloat()
			default: // MIN/MAX, first wins on ties
				if i == 0 {
					best = v
				} else if c, err := v.Compare(best); err == nil &&
					((spec.Func == cql.AggMin && c < 0) || (spec.Func == cql.AggMax && c > 0)) {
					best = v
				}
			}
		}
		switch spec.Func {
		case cql.AggSum, cql.AggAvg:
			sum := sumF
			if f.Kind != stream.KindFloat {
				sum = float64(sumI) // exact integer sum
			}
			if spec.Func == cql.AggAvg {
				sum /= float64(len(members))
			}
			values = append(values, stream.Float(sum))
		default:
			values = append(values, best)
		}
	}
	return []stream.Tuple{{Schema: p.Result, Ts: t.Ts, Values: values}}, nil
}

// probe assembles all join combinations containing the new tuple t at
// input self: one in-window partner from every other input, pairwise
// Lemma 1 joinability, join predicates evaluated on the assembled tuple.
func (p *refPlan) probe(selfIdx int, t stream.Tuple) ([][]stream.Tuple, error) {
	combos := [][]stream.Tuple{make([]stream.Tuple, len(p.inputs))}
	combos[0][selfIdx] = t

	for i, other := range p.inputs {
		if i == selfIdx {
			continue
		}
		var next [][]stream.Tuple
		for _, combo := range combos {
			for _, u := range p.bufs[i] {
				if !p.pairwiseJoinable(combo, i, u, other) {
					continue
				}
				extended := make([]stream.Tuple, len(combo))
				copy(extended, combo)
				extended[i] = u
				next = append(next, extended)
			}
		}
		combos = next
		if len(combos) == 0 {
			return nil, nil
		}
	}
	// Join predicates + residual on the assembled namespace.
	var out [][]stream.Tuple
	for _, combo := range combos {
		joined := p.assemble(combo)
		ok, err := p.predicatesHold(joined)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, combo)
		}
	}
	return out, nil
}

// pairwiseJoinable checks Lemma 1 between candidate u (for input slot i)
// and every tuple already placed in the combo.
func (p *refPlan) pairwiseJoinable(combo []stream.Tuple, i int, u stream.Tuple, other *inputState) bool {
	for j, placed := range combo {
		if placed.Schema == nil || j == i {
			continue
		}
		if !window.Joinable(placed.Ts, u.Ts, p.inputs[j].win, other.win) {
			return false
		}
	}
	return true
}

// assemble concatenates a combination into the joined scratch namespace.
func (p *refPlan) assemble(combo []stream.Tuple) stream.Tuple {
	values := make([]stream.Value, 0, p.joined.Arity())
	ts := stream.Timestamp(-1 << 62)
	for _, t := range combo {
		values = append(values, t.Values...)
		if t.Ts > ts {
			ts = t.Ts
		}
	}
	return stream.Tuple{Schema: p.joined, Ts: ts, Values: values}
}

// predicatesHold evaluates join predicates and the residual DNF by name.
func (p *refPlan) predicatesHold(joined stream.Tuple) (bool, error) {
	for _, j := range p.joins {
		ok, err := j.Eval(joined)
		if err != nil {
			return false, fmt.Errorf("spe %s: %w", p.ID, err)
		}
		if !ok {
			return false, nil
		}
	}
	if len(p.residual) > 0 && !p.residual.IsTrue() {
		ok, err := p.residual.Eval(joined)
		if err != nil {
			return false, fmt.Errorf("spe %s: %w", p.ID, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// emitCombo projects a (possibly single-tuple) combination into the
// result schema, fetching the select list by name.
func (p *refPlan) emitCombo(combo []stream.Tuple) ([]stream.Tuple, error) {
	b := p.Bound
	values := make([]stream.Value, 0, p.Result.Arity())
	ts := stream.Timestamp(-1 << 62)
	for _, t := range combo {
		if t.Ts > ts {
			ts = t.Ts
		}
	}
	for _, c := range b.SelectCols {
		idx := p.indexOf(c.Qualifier)
		if idx < 0 {
			return nil, fmt.Errorf("spe %s: unknown alias %s", p.ID, c.Qualifier)
		}
		v, ok := combo[idx].Get(c.Name)
		if !ok {
			return nil, fmt.Errorf("spe %s: input of %s lacks %s", p.ID, c.Qualifier, c.Name)
		}
		values = append(values, v)
	}
	if b.IncludeInputTs && len(b.From) > 1 {
		for i, ref := range b.From {
			if ref.Window == stream.Now {
				continue // no hidden column; ts equals the result ts
			}
			values = append(values, stream.Time(combo[i].Ts))
		}
	}
	out, err := stream.NewTuple(p.Result, ts, values...)
	if err != nil {
		return nil, fmt.Errorf("spe %s: %w", p.ID, err)
	}
	return []stream.Tuple{out}, nil
}
