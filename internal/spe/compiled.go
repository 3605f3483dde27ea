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
// compile against the joined namespace, and equi-join inputs get a hash
// index over their row store (store.go) keyed on the compiled join
// columns. Anything the compiler cannot prove error-free fails Compile;
// the name-resolved executor in reference_test.go is what this path is
// differentially tested against.

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
	// offsets[i] is input i's value offset in the joined namespace, with
	// the namespace's arity as a final entry. scratch is the joined value
	// slice the predicates evaluate. The combination under assembly is
	// placed/rows/ts per slot: rows[i] is the pushed tuple's values for
	// the probing slot and, for a window row, slot i's segment of scratch
	// filled from its store. All are reusable per-push buffers (Push is
	// serialised per plan, under the plan's slot lock in the exec
	// runtime). An emitted tuple may share a run of the pushed tuple's
	// values, never these buffers.
	offsets []int
	scratch []stream.Value
	placed  []bool
	rows    [][]stream.Value
	ts      []stream.Timestamp
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
		n := len(p.inputs)
		cp = &compiledPlan{
			offsets: make([]int, n+1),
			placed:  make([]bool, n),
			rows:    make([][]stream.Value, n),
			ts:      make([]stream.Timestamp, n),
		}
		for i, in := range p.inputs {
			cp.offsets[i+1] = cp.offsets[i] + in.schema.Arity()
		}
		cp.scratch = make([]stream.Value, cp.offsets[n])
		for _, c := range b.SelectCols {
			in, ok := p.byAlias[c.Qualifier]
			if !ok {
				return fmt.Errorf("unknown alias %s", c.Qualifier)
			}
			col := in.schema.ColIndex(c.Name)
			if col < 0 {
				return fmt.Errorf("input of %s lacks %s", c.Qualifier, c.Name)
			}
			cp.emitCols = append(cp.emitCols, slotCol{in.slot, col})
		}
		if n == 1 {
			cols := make([]int, len(cp.emitCols))
			for k, sc := range cp.emitCols {
				cols[k] = sc.col
			}
			p.inputs[0].runLo, p.inputs[0].runHi = stream.ColumnRun(cols)
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
		if cp != nil && len(p.inputs) > 1 {
			in.hash = p.buildJoinIndex(cp, i)
		}
		linked := in.hash != nil || (p.agg != nil && p.agg.trackMembers)
		in.store = newRowStore(in.schema, linked, in.win)
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
	// runAt is the source column where the input's select run
	// [runLo, runHi) starts when its columns sit together there, in
	// order; -1 when they do not, or the input has no run.
	runAt int
}

// adapt normalises an incoming tuple's values to the input's projected
// layout through the index map cached for its source schema pointer: the
// tuple's own slice when the map is the identity, the input's reusable
// row otherwise.
func (in *inputState) adapt(t stream.Tuple) ([]stream.Value, error) {
	if t.Schema != in.ad.src {
		if err := in.rebindAdapter(t.Schema); err != nil {
			return nil, err
		}
	}
	if in.ad.identity {
		return t.Values, nil
	}
	for i, j := range in.ad.idx {
		in.vals[i] = t.Values[j]
	}
	return in.vals, nil
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
	runAt := -1
	if lo, hi := stream.ColumnRun(idx[in.runLo:in.runHi]); hi > 0 {
		runAt = lo
	}
	in.ad = adapter{src: src, idx: idx, identity: identity, runAt: runAt}
	return nil
}

// sharedRun returns the run of t's values a selection's result shares:
// the input's select run as it sits in t's layout, capped so no append
// through it reaches the columns after it; nil when the run has no
// contiguous place there. t arrived under the adapter's source schema,
// and a published tuple's values are never written again.
func (in *inputState) sharedRun(t stream.Tuple) []stream.Value {
	if in.ad.runAt < 0 {
		return nil
	}
	lo, hi := in.ad.runAt, in.ad.runAt+in.runHi-in.runLo
	return t.Values[lo:hi:hi]
}

// pushInput runs one tuple through one input of the plan, appending
// what it emits to dst.
func (p *Plan) pushInput(dst []stream.Tuple, in *inputState, t stream.Tuple) ([]stream.Tuple, error) {
	vals, err := in.adapt(t)
	if err != nil {
		return dst, fmt.Errorf("spe %s: input tuple: %w", p.ID, err)
	}
	if !in.selC.IsTrue() && !in.selC.EvalValues(vals, t.Ts) {
		return dst, nil
	}
	if p.agg != nil {
		p.evict(in)
		row := p.agg.update(&in.store, vals, t.Ts, in.insert(vals, t.Ts), &p.slab)
		// Rebind from the bound's placeholder schema to the plan's
		// registered result stream schema.
		row.Schema = p.Result
		return append(dst, row), nil
	}
	cp := p.cp
	cp.place(in.slot, vals, t.Ts)
	if !cp.trivial {
		copy(cp.scratch[cp.offsets[in.slot]:], vals)
	}
	if len(p.inputs) == 1 {
		if cp.accept() {
			dst = append(dst, cp.emit(p, in.sharedRun(t)))
		}
	} else {
		for _, other := range p.inputs {
			p.evict(other)
		}
		p.dfsCompiled(0, &dst)
		in.insert(vals, t.Ts)
	}
	cp.unplace(in.slot)
	return dst, nil
}

// dfsCompiled enumerates join combinations depth-first in input order —
// the same lexicographic (input, arrival) order the reference executor's
// breadth-first probe produces. The slot found placed is the pushed
// tuple's; every other input contributes either its equi-join bucket
// (when every partner column is already placed and hash-exact) or a scan
// of its live window.
func (p *Plan) dfsCompiled(i int, out *[]stream.Tuple) {
	cp := p.cp
	if i == len(p.inputs) {
		if cp.accept() {
			*out = append(*out, cp.emit(p, nil))
		}
		return
	}
	if cp.placed[i] {
		p.dfsCompiled(i+1, out)
		return
	}
	in := p.inputs[i]
	s := &in.store
	if h, ok := in.hash.probe(cp); ok {
		// Merge bucket and overflow candidates in arrival order so
		// emission order matches a scan of the live window.
		ord, ovf := in.hash.buckets[h&in.hash.mask].first, in.hash.overflow
		for ord != 0 || len(ovf) > 0 {
			if len(ovf) == 0 || (ord != 0 && ord < ovf[0]) {
				cand := ord
				pg, i := s.at(cand)
				ord = s.nextAt(pg, i)
				if in.hash.matches(s, pg, i, cand, cp) {
					p.tryRow(in, pg, i, cand, out)
				}
			} else {
				pg, i := s.at(ovf[0])
				p.tryRow(in, pg, i, ovf[0], out)
				ovf = ovf[1:]
			}
		}
	} else {
		for ord := s.head; ord < s.tail; ord++ {
			pg, i := s.at(ord)
			p.tryRow(in, pg, i, ord, out)
		}
	}
	cp.unplace(i)
}

// tryRow extends the combination with one window row of input in (ord,
// located at pg, i), if Lemma 1 admits it beside the rows already
// placed, and recurses.
func (p *Plan) tryRow(in *inputState, pg *page, i int, ord uint64, out *[]stream.Tuple) {
	ts := in.store.tsAt(pg, i)
	if !p.pairwiseJoinable(in, ts) {
		return
	}
	cp := p.cp
	row := cp.scratch[cp.offsets[in.slot]:cp.offsets[in.slot+1]]
	in.store.readAt(pg, i, ord, row)
	cp.place(in.slot, row, ts)
	p.dfsCompiled(in.slot+1, out)
}

func (cp *compiledPlan) place(slot int, vals []stream.Value, ts stream.Timestamp) {
	cp.placed[slot], cp.rows[slot], cp.ts[slot] = true, vals, ts
}

// unplace empties a slot, dropping its reference to a pushed tuple.
func (cp *compiledPlan) unplace(slot int) {
	cp.placed[slot], cp.rows[slot] = false, nil
}

// accept evaluates the compiled join predicates and residual over a full
// combination, which pushInput and tryRow assembled in scratch.
func (cp *compiledPlan) accept() bool {
	if cp.trivial {
		return true
	}
	if !cp.cmps.EvalValues(cp.scratch) {
		return false
	}
	return cp.resid == nil || cp.resid.EvalValues(cp.scratch, cp.comboTs())
}

// emit projects the combination into a result tuple through the
// pre-resolved (slot, column) pairs. Kinds were validated at compile
// time, so the tuple is built directly. A non-nil run is the lone
// input's select list as the pushed tuple carries it (sharedRun): the
// result shares it. Otherwise the values are copied into a row cut
// from the plan's slab.
func (cp *compiledPlan) emit(p *Plan, run []stream.Value) stream.Tuple {
	if run != nil {
		return stream.Tuple{Schema: p.Result, Ts: cp.ts[0], Values: run}
	}
	values := p.slab.Take(p.Result.Arity())[:0]
	for _, sc := range cp.emitCols {
		values = append(values, cp.rows[sc.slot][sc.col])
	}
	for _, s := range cp.tsSlots {
		values = append(values, stream.Time(cp.ts[s]))
	}
	return stream.Tuple{Schema: p.Result, Ts: cp.comboTs(), Values: values}
}

// comboTs is a full combination's timestamp: its newest row's.
func (cp *compiledPlan) comboTs() stream.Timestamp {
	ts := stream.Timestamp(-1 << 62)
	for _, t := range cp.ts {
		if t > ts {
			ts = t
		}
	}
	return ts
}

// joinIndex hashes one join input's rows on its compiled equi-join
// columns: a row's bucket is its key hash under the index's mask, and a
// bucket chains its rows in arrival order through the store's link
// words — rows of colliding keys included, so a probe verifies
// candidates against the key columns. The bucket table is a power of
// two sized to the live rows, at most two per bucket, and doubles (fit)
// when they outgrow it. The evictee heads its chain, which
// keeps the index exact in O(1) per eviction. Rows whose key values are
// not hash-exact (stream.Value.KeyExact) go to the overflow list, also
// in arrival order, and are scanned on every probe, so Compare-equality
// corner cases still join exactly as a nested-loop scan would.
type joinIndex struct {
	keyCols  []int     // this input's key columns, in join-predicate order
	partners []slotCol // matching column in the combination, per key column
	buckets  []chain
	mask     uint64 // len(buckets) − 1
	overflow []uint64
}

// minBuckets is the bucket table an index starts with.
const minBuckets = 4

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
	return &joinIndex{keyCols: keyCols, partners: partners,
		buckets: make([]chain, minBuckets), mask: minBuckets - 1}
}

// locate maps a joined-namespace column index to its (slot, column).
func (cp *compiledPlan) locate(col int) (int, int) {
	for s := len(cp.offsets) - 2; s >= 0; s-- {
		if col >= cp.offsets[s] {
			return s, col - cp.offsets[s]
		}
	}
	return 0, col
}

// mixKey folds one key column's value into a key hash; ok is false for a
// value that is not hash-exact.
func mixKey(h uint64, v stream.Value) (uint64, bool) {
	if !v.KeyExact() {
		return 0, false
	}
	return h*0x9e3779b97f4a7c15 + v.Key().Hash(), true
}

// hash is the key hash of a row in the input's layout; exact is false
// when the row belongs on the overflow list.
func (j *joinIndex) hash(vals []stream.Value) (h uint64, exact bool) {
	for _, c := range j.keyCols {
		if h, exact = mixKey(h, vals[c]); !exact {
			return 0, false
		}
	}
	return h, true
}

// probe hashes the partner columns already placed in the combination. ok
// is false when the input has no index, a partner is not yet placed or a
// value is not hash-exact; the caller then scans the live window instead.
func (j *joinIndex) probe(cp *compiledPlan) (h uint64, ok bool) {
	if j == nil {
		return 0, false
	}
	for _, pt := range j.partners {
		if !cp.placed[pt.slot] {
			return 0, false
		}
		if h, ok = mixKey(h, cp.rows[pt.slot][pt.col]); !ok {
			return 0, false
		}
	}
	return h, true
}

// matches verifies a bucket candidate (ord, located at pg, i) against
// the probe's key values.
func (j *joinIndex) matches(s *rowStore, pg *page, i int, ord uint64, cp *compiledPlan) bool {
	for m, pt := range j.partners {
		if !s.valueAt(pg, i, j.keyCols[m], ord).Equal(cp.rows[pt.slot][pt.col]) {
			return false
		}
	}
	return true
}

// insert chains a row just appended to the store into its bucket, or
// lists it as overflow.
func (j *joinIndex) insert(s *rowStore, vals []stream.Value, ord uint64) {
	if h, exact := j.hash(vals); exact {
		s.link(&j.buckets[h&j.mask], ord)
	} else {
		j.overflow = append(j.overflow, ord)
	}
}

// evict unfiles the store's oldest row (vals), which heads its bucket's
// chain or the overflow list.
func (j *joinIndex) evict(s *rowStore, vals []stream.Value) {
	if h, exact := j.hash(vals); exact {
		s.unlinkFirst(&j.buckets[h&j.mask])
	} else {
		j.overflow = j.overflow[1:]
	}
}

// fit doubles the bucket table while the store's live rows, with the one
// about to be appended, would exceed two per bucket, rechaining every
// live row under the new mask in arrival order. The overflow list holds
// ordinals and stands. row is a scratch row in the input's layout.
func (j *joinIndex) fit(s *rowStore, row []stream.Value) {
	if s.len() < 2*len(j.buckets) {
		return
	}
	j.buckets = make([]chain, 2*len(j.buckets))
	j.mask = uint64(len(j.buckets) - 1)
	for ord := s.head; ord < s.tail; ord++ {
		pg, i := s.at(ord)
		s.readAt(pg, i, ord, row)
		if h, exact := j.hash(row); exact {
			s.link(&j.buckets[h&j.mask], ord)
		}
	}
}

// reset empties the index (a snapshot restore refills it).
func (j *joinIndex) reset() {
	clear(j.buckets)
	j.overflow = nil
}

func (j *joinIndex) bytes() int64 { return int64(16*len(j.buckets) + 8*cap(j.overflow)) }
