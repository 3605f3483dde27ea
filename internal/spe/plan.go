// Package spe is the stream processing engine of a COSMOS processor
// (paper §2). Any CQL-subset query bound by package cql compiles into an
// executable Plan; internal/exec hosts many plans and feeds them the
// tuples the data layer delivers, emitting result-stream tuples.
//
// Semantics follow CQL time-based sliding windows over application
// timestamps:
//
//   - selection/projection are applied per input tuple;
//   - window joins emit a combination exactly when the join predicates
//     hold and every pair of contributing tuples satisfies Lemma 1
//     (−T1 ≤ t1.ts − t2.ts ≤ T2);
//   - grouped aggregates follow the Istream-per-update model: each
//     surviving input tuple emits the updated aggregate row of its group,
//     evaluated over that group's live window.
//
// Plans are compiled against their input schemas at Install time, the
// way the CBN broker compiles aggregate profiles: every attribute
// reference on the per-tuple path resolves to a column index, selections
// and join/residual predicates evaluate through package predicate's
// compiled forms, every window is a typed row store (store.go: a ring of
// per-column slabs in the kinds the input schema fixes), equi-join inputs
// index theirs by key hash, and grouped aggregates maintain incremental
// per-group state. That is the
// only execution path: a query whose predicates cannot be compiled fails
// Compile (cql.Analyze already refuses it, so Submit is where it dies),
// and an input tuple whose layout lacks a needed attribute, or carries it
// under another kind, fails Push. The name-resolved nested-loop executor
// the compiled path is differentially tested against lives in this
// package's tests.
//
// The engine stands in for the single-site SPEs the paper plugs in
// (TelegraphCQ, STREAM, Aurora, GSN): COSMOS treats the SPE as a black
// box behind query/data wrappers, which is exactly the interface Plan
// exposes (Compile, Push, Snapshot/Restore).
//
// A plan's emission sequence is a total order over its pushes; order
// across plans is the host's business (exec.Runtime runs plans in
// plan-ID order synchronously, or shards them across a worker pool).
// Plan.Push assumes single-threaded access per plan — whoever hosts a
// plan must serialise its pushes, which exec does under a per-plan lock.
package spe

import (
	"fmt"

	"cosmos/internal/cql"
	"cosmos/internal/predicate"
	"cosmos/internal/stream"
	"cosmos/internal/window"
)

// inputState tracks one FROM stream's filter, window and live rows.
type inputState struct {
	alias  string
	stream string
	slot   int // position in Plan.inputs and in a join combination
	win    stream.Duration
	sel    predicate.DNF
	schema *stream.Schema

	// store holds the in-window rows in arrival order (timestamps
	// non-decreasing per stream) under absolute ordinals, which is what
	// join buckets and group member chains reference.
	store rowStore

	// Index-resolved state, built by Compile. vals and evictee are
	// reusable rows in the input's projected layout: the pushed tuple
	// when the adapter is not the identity, and the row being evicted.
	selC    *predicate.Compiled
	ad      adapter
	hash    *joinIndex
	vals    []stream.Value
	evictee []stream.Value
}

// insert appends a row to the window (and, for an equi-join input, its
// bucket chain), returning its ordinal.
func (in *inputState) insert(vals []stream.Value, ts stream.Timestamp) uint64 {
	if in.store.full() {
		in.store.grow()
		if in.hash != nil {
			in.hash.rebuild(&in.store, in.evictee)
		}
	}
	ord := in.store.append(vals, ts)
	if in.hash != nil {
		in.hash.insert(&in.store, vals, ord)
	}
	return ord
}

// Plan is one compiled continuous query.
type Plan struct {
	// ID is the caller-assigned plan identifier.
	ID string
	// Bound is the underlying analyzed query.
	Bound *cql.Bound
	// Result is the result stream schema (unique stream name applied).
	Result *stream.Schema

	inputs  []*inputState
	byAlias map[string]*inputState
	// byStream maps a source stream name to the inputs consuming it
	// (several for self-joins).
	byStream map[string][]*inputState

	joined    *stream.Schema // joined namespace the join/residual predicates compile against
	joins     []predicate.AttrCmp
	residual  predicate.DNF
	agg       *aggState
	watermark stream.Timestamp

	cp *compiledPlan
}

// Compile builds an executable plan for a bound query. resultStream is
// the unique result stream name the processor registered.
func Compile(id string, b *cql.Bound, resultStream string) (*Plan, error) {
	p := &Plan{
		ID:        id,
		Bound:     b,
		Result:    b.OutSchema.Rename(resultStream),
		byAlias:   map[string]*inputState{},
		byStream:  map[string][]*inputState{},
		joins:     b.Joins,
		residual:  b.Residual,
		watermark: -1 << 62,
	}
	// Each input normalises incoming tuples to the attributes the query
	// actually needs. The data layer may deliver projected tuples (early
	// projection); as long as the needed attributes survive, the plan
	// adapts them by name.
	need := b.NeededAttrs()
	for _, ref := range b.From {
		inSchema, err := b.Schemas[ref.Alias].Project(need[ref.Alias])
		if err != nil {
			return nil, fmt.Errorf("spe: %w", err)
		}
		in := &inputState{
			alias:   ref.Alias,
			stream:  ref.Stream,
			slot:    len(p.inputs),
			win:     ref.Window,
			sel:     b.Sel[ref.Alias],
			schema:  inSchema,
			vals:    make([]stream.Value, inSchema.Arity()),
			evictee: make([]stream.Value, inSchema.Arity()),
		}
		p.inputs = append(p.inputs, in)
		p.byAlias[ref.Alias] = in
		p.byStream[ref.Stream] = append(p.byStream[ref.Stream], in)
	}
	if b.IsAggregate() {
		if len(b.From) != 1 {
			return nil, fmt.Errorf("spe: aggregates over joins are not supported (query %s)", id)
		}
		agg, err := newAggState(b, p.inputs[0].schema)
		if err != nil {
			return nil, err
		}
		p.agg = agg
	} else {
		// Scratch namespace: concatenation of the qualified (projected)
		// input schemas the plan actually buffers.
		aliases := make([]string, len(b.From))
		schemas := make([]*stream.Schema, len(b.From))
		for i, ref := range b.From {
			aliases[i] = ref.Alias
			schemas[i] = p.inputs[i].schema
		}
		joined, err := stream.JoinSchema("__joined", aliases, schemas)
		if err != nil {
			return nil, fmt.Errorf("spe: %w", err)
		}
		p.joined = joined
	}
	if err := p.buildCompiled(b); err != nil {
		return nil, fmt.Errorf("spe %s: %w", id, err)
	}
	return p, nil
}

// InputStreams lists the distinct source stream names the plan consumes.
func (p *Plan) InputStreams() []string {
	out := make([]string, 0, len(p.byStream))
	for s := range p.byStream {
		out = append(out, s)
	}
	return out
}

// Push processes one input tuple, returning emitted result tuples. Tuples
// must arrive with per-stream non-decreasing timestamps; cross-stream
// interleaving is tolerated (the watermark is the max seen timestamp).
//
//cosmos:hotpath-ok — SPE boundary: operator graphs allocate by design; budget pinned by the spe benchmarks
func (p *Plan) Push(t stream.Tuple) ([]stream.Tuple, error) {
	ins, ok := p.byStream[t.Schema.Stream]
	if !ok {
		return nil, nil // not an input of this plan
	}
	if t.Ts > p.watermark {
		p.watermark = t.Ts
	}
	if len(ins) == 1 {
		// Common case (no self-join): skip the cross-alias collector.
		return p.pushInput(ins[0], t)
	}
	var out []stream.Tuple
	for _, in := range ins {
		emitted, err := p.pushInput(in, t)
		if err != nil {
			return nil, err
		}
		out = append(out, emitted...)
	}
	return out, nil
}

// evict drops rows that can no longer join anything given the
// watermark: a row of a stream with window T is dead once
// watermark − ts > T (Lemma 1 upper bound on its own window). Eviction
// advances the ring's head and unwinds the evictee from its group's
// running aggregates or its join bucket, whose chain it heads.
func (p *Plan) evict(in *inputState) {
	s := &in.store
	for s.head < s.tail && window.Expired(s.tsAt(s.head), p.watermark, in.win) {
		if p.agg != nil || in.hash != nil {
			s.read(s.head, in.evictee)
			if p.agg != nil {
				p.agg.evictMember(s, in.evictee)
			} else {
				in.hash.evict(s, in.evictee)
			}
		}
		s.popFront()
	}
}

// WindowStats reports the plan's resident window state: live rows over
// all inputs, and the bytes their rings and join indexes occupy
// (capacity, not fill). Like Push it needs the plan quiescent.
func (p *Plan) WindowStats() (rows int, bytes int64) {
	for _, in := range p.inputs {
		rows += in.store.len()
		bytes += in.store.bytes()
		if in.hash != nil {
			bytes += in.hash.bytes()
		}
	}
	return rows, bytes
}

// pairwiseJoinable checks Lemma 1 between a candidate row of input other
// (timestamp ts) and every row already placed in the combination.
func (p *Plan) pairwiseJoinable(other *inputState, ts stream.Timestamp) bool {
	cp := p.cp
	for j, placed := range cp.placed {
		if !placed || j == other.slot {
			continue
		}
		if !window.Joinable(cp.ts[j], ts, p.inputs[j].win, other.win) {
			return false
		}
	}
	return true
}
