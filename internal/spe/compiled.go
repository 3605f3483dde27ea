package spe

import (
	"fmt"

	"cosmos/internal/cql"
	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// This file is the plan's per-tuple path. At Compile time every
// attribute reference on it is resolved against the plan's input
// schemas: selections become predicate.Compiled index walks, the select
// list becomes (slot, column) pairs, join and residual predicates
// compile against the joined namespace, and equi-join inputs get
// hash-partitioned buffers keyed on the compiled join columns. Anything
// the compiler cannot prove error-free fails Compile; the name-resolved
// executor in reference_test.go is what this path is differentially
// tested against.

// slotCol addresses one column of one input slot of a combination.
type slotCol struct {
	slot, col int
}

// compiledPlan holds the index-resolved artifacts of an SPJ plan
// (aggregate plans keep theirs inside aggState).
type compiledPlan struct {
	// emitCols resolves the select list; tsSlots lists the slots whose
	// hidden input-timestamp column is appended (IncludeInputTs).
	emitCols []slotCol
	tsSlots  []int
	// cmps and resid evaluate the join predicates and residual DNF over
	// the assembled joined value slice; trivial short-circuits both.
	cmps    *predicate.CompiledCmps
	resid   *predicate.Compiled
	trivial bool
	// offsets[i] is input i's value offset in the joined namespace;
	// scratch and combo are reusable per-push buffers (Push is
	// serialised per plan — under the engine lock in spe.Engine, under
	// the plan's slot lock in the exec runtime; emitted tuples never
	// alias them).
	offsets []int
	scratch []stream.Value
	combo   []stream.Tuple
}

// buildCompiled compiles the whole per-tuple path, or reports why the
// query cannot run.
func (p *Plan) buildCompiled(b *cql.Bound) error {
	selC := make([]*predicate.Compiled, len(p.inputs))
	for i, in := range p.inputs {
		c, err := predicate.Compile(in.sel, in.schema)
		if err != nil {
			return err
		}
		selC[i] = c
	}
	var cp *compiledPlan
	if p.agg == nil {
		cp = &compiledPlan{combo: make([]stream.Tuple, len(p.inputs))}
		off := 0
		cp.offsets = make([]int, len(p.inputs))
		for i, in := range p.inputs {
			cp.offsets[i] = off
			off += in.schema.Arity()
		}
		cp.scratch = make([]stream.Value, off)
		for _, c := range b.SelectCols {
			slot := p.indexOf(c.Qualifier)
			if slot < 0 {
				return fmt.Errorf("unknown alias %s", c.Qualifier)
			}
			col := p.inputs[slot].schema.ColIndex(c.Name)
			if col < 0 {
				return fmt.Errorf("input of %s lacks %s", c.Qualifier, c.Name)
			}
			cp.emitCols = append(cp.emitCols, slotCol{slot, col})
		}
		if b.IncludeInputTs && len(b.From) > 1 {
			for i, ref := range b.From {
				if ref.Window != stream.Now {
					cp.tsSlots = append(cp.tsSlots, i)
				}
			}
		}
		cmps, err := predicate.CompileAttrCmps(p.joins, p.joined)
		if err != nil {
			return err
		}
		cp.cmps = cmps
		if len(p.residual) > 0 && !p.residual.IsTrue() {
			rc, err := predicate.Compile(p.residual, p.joined)
			if err != nil {
				return err
			}
			cp.resid = rc
		}
		cp.trivial = len(p.joins) == 0 && cp.resid == nil
	}
	// Commit only after every piece compiled.
	for i, in := range p.inputs {
		in.selC = selC[i]
	}
	if cp != nil && len(p.inputs) > 1 {
		for i, in := range p.inputs {
			in.hash = p.buildJoinIndex(cp, i)
		}
	}
	p.cp = cp
	return nil
}

// adapter caches the index projection from one source schema to the
// input's projected schema. Push rebinds it whenever a tuple arrives
// under a different schema pointer — an upstream broker re-projected the
// stream — mirroring the CBN broker's routing-table recompiles.
type adapter struct {
	src      *stream.Schema
	idx      []int
	identity bool
}

// adapt normalises an incoming tuple to the input's projected schema: a
// cached index copy keyed on the source schema pointer.
func (in *inputState) adapt(t stream.Tuple) (stream.Tuple, error) {
	if t.Schema != in.ad.src {
		if err := in.rebindAdapter(t.Schema); err != nil {
			return stream.Tuple{}, err
		}
	}
	if in.ad.identity {
		return stream.Tuple{Schema: in.schema, Ts: t.Ts, Values: t.Values}, nil
	}
	return t.ProjectIdx(in.ad.idx, in.schema), nil
}

// rebindAdapter resolves the input's projection against a new source
// schema. A source that lacks a needed attribute, or declares it under
// another kind than the plan compiled its comparisons for, is refused
// and leaves the adapter as it was.
func (in *inputState) rebindAdapter(src *stream.Schema) error {
	idx := make([]int, len(in.schema.Fields))
	identity := src.Arity() == len(idx)
	for i, f := range in.schema.Fields {
		j := src.ColIndex(f.Name)
		if j < 0 {
			return fmt.Errorf("stream %s: projection needs missing attribute %s", src.Stream, f.Name)
		}
		if src.Fields[j].Kind != f.Kind {
			return fmt.Errorf("stream %s: attribute %s is %s, the plan expects %s",
				src.Stream, f.Name, src.Fields[j].Kind, f.Kind)
		}
		idx[i] = j
		if j != i {
			identity = false
		}
	}
	in.ad = adapter{src: src, idx: idx, identity: identity}
	return nil
}

// pushInput runs one adapted tuple of one input through the plan.
func (p *Plan) pushInput(in *inputState, t stream.Tuple) ([]stream.Tuple, error) {
	if !in.selC.IsTrue() && !in.selC.EvalValues(t.Values, t.Ts) {
		return nil, nil
	}
	if p.agg != nil {
		p.evict(in)
		row := p.agg.update(in, t, in.insert(t))
		// Rebind from the bound's placeholder schema to the plan's
		// registered result stream schema.
		row.Schema = p.Result
		return []stream.Tuple{row}, nil
	}
	cp := p.cp
	if len(p.inputs) == 1 {
		cp.combo[0] = t
		var out []stream.Tuple
		if cp.accept(cp.combo) {
			out = append(out, cp.emit(p, cp.combo))
		}
		cp.combo[0] = stream.Tuple{}
		return out, nil
	}
	for _, other := range p.inputs {
		p.evict(other)
	}
	selfIdx := p.indexOf(in.alias)
	cp.combo[selfIdx] = t
	var out []stream.Tuple
	p.dfsCompiled(0, selfIdx, &out)
	cp.combo[selfIdx] = stream.Tuple{}
	in.insert(t)
	return out, nil
}

// dfsCompiled enumerates join combinations depth-first in input order —
// the same lexicographic (input, arrival) order the reference executor's
// breadth-first probe produces. Each non-self input contributes either
// its equi-partition bucket (when every partner column is already placed
// and hash-exact) or a scan of its live window.
func (p *Plan) dfsCompiled(i, selfIdx int, out *[]stream.Tuple) {
	cp := p.cp
	if i == len(p.inputs) {
		if cp.accept(cp.combo) {
			*out = append(*out, cp.emit(p, cp.combo))
		}
		return
	}
	if i == selfIdx {
		p.dfsCompiled(i+1, selfIdx, out)
		return
	}
	in := p.inputs[i]
	combo := cp.combo
	if in.hash != nil {
		if key, ok := in.hash.probeKey(combo); ok {
			liveMin := in.liveMin()
			bkt := in.hash.bucket(key, liveMin)
			ovf := in.hash.liveOverflow(liveMin)
			// Merge bucket and overflow candidates in arrival order so
			// emission order matches a scan of the live window.
			bi, oi := 0, 0
			for bi < len(bkt) || oi < len(ovf) {
				var seq uint64
				if oi == len(ovf) || (bi < len(bkt) && bkt[bi] < ovf[oi]) {
					seq = bkt[bi]
					bi++
				} else {
					seq = ovf[oi]
					oi++
				}
				u := in.at(seq)
				if !p.pairwiseJoinable(combo, i, u, in) {
					continue
				}
				combo[i] = u
				p.dfsCompiled(i+1, selfIdx, out)
			}
			combo[i] = stream.Tuple{}
			return
		}
	}
	for _, u := range in.live() {
		if !p.pairwiseJoinable(combo, i, u, in) {
			continue
		}
		combo[i] = u
		p.dfsCompiled(i+1, selfIdx, out)
	}
	combo[i] = stream.Tuple{}
}

// accept evaluates the compiled join predicates and residual over a full
// combination, assembling the joined value slice into the reusable
// scratch buffer.
func (cp *compiledPlan) accept(combo []stream.Tuple) bool {
	if cp.trivial {
		return true
	}
	for s, t := range combo {
		copy(cp.scratch[cp.offsets[s]:], t.Values)
	}
	if !cp.cmps.EvalValues(cp.scratch) {
		return false
	}
	if cp.resid != nil && !cp.resid.EvalValues(cp.scratch, comboTs(combo)) {
		return false
	}
	return true
}

// emit projects a combination into the result schema through the
// pre-resolved (slot, column) pairs. Kinds were validated at compile
// time, so the tuple is built directly.
func (cp *compiledPlan) emit(p *Plan, combo []stream.Tuple) stream.Tuple {
	values := make([]stream.Value, 0, p.Result.Arity())
	for _, sc := range cp.emitCols {
		values = append(values, combo[sc.slot].Values[sc.col])
	}
	for _, s := range cp.tsSlots {
		values = append(values, stream.Time(combo[s].Ts))
	}
	return stream.Tuple{Schema: p.Result, Ts: comboTs(combo), Values: values}
}

func comboTs(combo []stream.Tuple) stream.Timestamp {
	ts := stream.Timestamp(-1 << 62)
	for _, t := range combo {
		if t.Ts > ts {
			ts = t.Ts
		}
	}
	return ts
}

// joinIndex hash-partitions one join input's window buffer on its
// compiled equi-join columns. Buckets hold absolute tuple sequences in
// arrival order; expired prefixes are trimmed lazily on probe and swept
// wholesale once evictions dominate the live window. Tuples whose key
// values are not hash-exact (stream.Value.KeyExact) go to the overflow
// list and are scanned on every probe, so Compare-equality corner cases
// still join exactly as a nested-loop scan would.
type joinIndex struct {
	keyCols  []int     // this input's key columns, in join-predicate order
	partners []slotCol // matching column in the combo, per key column
	buckets  map[hashKey][]uint64
	overflow []uint64
}

// buildJoinIndex resolves input i's equi-join columns against the joined
// namespace. Inputs with no equality predicate get no index (the probe
// falls back to the live-window scan — the nested loop — which is also
// what non-equi predicates use).
func (p *Plan) buildJoinIndex(cp *compiledPlan, i int) *joinIndex {
	var keyCols []int
	var partners []slotCol
	for _, jp := range p.joins {
		if jp.Op != predicate.EQ {
			continue
		}
		ls, lc := cp.locate(p.joined.ColIndex(jp.Left))
		rs, rc := cp.locate(p.joined.ColIndex(jp.Right))
		switch {
		case ls == i && rs != i:
			keyCols = append(keyCols, lc)
			partners = append(partners, slotCol{rs, rc})
		case rs == i && ls != i:
			keyCols = append(keyCols, rc)
			partners = append(partners, slotCol{ls, lc})
		}
	}
	if len(keyCols) == 0 {
		return nil
	}
	return &joinIndex{keyCols: keyCols, partners: partners, buckets: map[hashKey][]uint64{}}
}

// locate maps a joined-namespace column index to its (slot, column).
func (cp *compiledPlan) locate(col int) (int, int) {
	for s := len(cp.offsets) - 1; s >= 0; s-- {
		if col >= cp.offsets[s] {
			return s, col - cp.offsets[s]
		}
	}
	return 0, col
}

// insert files a buffered tuple under its equi-key bucket, or in the
// overflow list when any key value is not hash-exact.
func (j *joinIndex) insert(t stream.Tuple, seq uint64) {
	var k hashKey
	for m, c := range j.keyCols {
		v := t.Values[c]
		if !v.KeyExact() {
			j.overflow = append(j.overflow, seq)
			return
		}
		k = k.with(m, v)
	}
	j.buckets[k] = append(j.buckets[k], seq)
}

// probeKey builds the probe key from the partner columns already placed
// in the combo. ok is false when a partner is not yet placed or a value
// is not hash-exact; the caller then scans the live window instead.
func (j *joinIndex) probeKey(combo []stream.Tuple) (hashKey, bool) {
	var k hashKey
	for m, pt := range j.partners {
		t := combo[pt.slot]
		if t.Schema == nil {
			return hashKey{}, false
		}
		v := t.Values[pt.col]
		if !v.KeyExact() {
			return hashKey{}, false
		}
		k = k.with(m, v)
	}
	return k, true
}

// bucket returns the live sequences filed under a key, trimming the
// expired prefix in place.
func (j *joinIndex) bucket(k hashKey, liveMin uint64) []uint64 {
	bkt, ok := j.buckets[k]
	if !ok {
		return nil
	}
	n := 0
	for n < len(bkt) && bkt[n] < liveMin {
		n++
	}
	if n == len(bkt) {
		delete(j.buckets, k)
		return nil
	}
	if n > 0 {
		bkt = bkt[n:]
		j.buckets[k] = bkt
	}
	return bkt
}

// liveOverflow returns the live overflow sequences, trimming the expired
// prefix in place.
func (j *joinIndex) liveOverflow(liveMin uint64) []uint64 {
	n := 0
	for n < len(j.overflow) && j.overflow[n] < liveMin {
		n++
	}
	if n > 0 {
		j.overflow = j.overflow[n:]
	}
	return j.overflow
}

// sweep drops every expired sequence and compacts the retained slices,
// bounding memory for buckets that are never probed again.
func (j *joinIndex) sweep(liveMin uint64) {
	for k, bkt := range j.buckets {
		n := 0
		for n < len(bkt) && bkt[n] < liveMin {
			n++
		}
		if n == len(bkt) {
			delete(j.buckets, k)
			continue
		}
		if n > 0 {
			j.buckets[k] = append(bkt[:0:0], bkt[n:]...)
		}
	}
	n := 0
	for n < len(j.overflow) && j.overflow[n] < liveMin {
		n++
	}
	if n > 0 {
		j.overflow = append(j.overflow[:0:0], j.overflow[n:]...)
	}
}

// reset clears all hash state (used when rebuilding from a snapshot).
func (j *joinIndex) reset() {
	j.buckets = map[hashKey][]uint64{}
	j.overflow = nil
}
