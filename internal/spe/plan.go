// Package spe is the stream processing engine of a COSMOS processor
// (paper §2). Any CQL-subset query bound by package cql compiles into an
// executable Plan; an Engine hosts many plans and feeds them the tuples
// the data layer delivers, emitting result-stream tuples.
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
// compiled forms, equi-join inputs keep hash-partitioned buffers, and
// grouped aggregates maintain incremental per-group state. That is the
// only execution path: a query whose predicates cannot be compiled fails
// Compile (cql.Analyze already refuses it, so Submit is where it dies),
// and an input tuple whose layout lacks a needed attribute, or carries it
// under another kind, fails Push. The name-resolved nested-loop executor
// the compiled path is differentially tested against lives in this
// package's tests.
//
// The engine stands in for the single-site SPEs the paper plugs in
// (TelegraphCQ, STREAM, Aurora, GSN): COSMOS treats the SPE as a black
// box behind query/data wrappers, which is exactly the interface Engine
// exposes.
//
// The two-plane design now extends to execution: spe.Engine runs every
// plan of a stream sequentially under one lock and is the ordering and
// semantics reference, while internal/exec shards the same plans across
// a worker pool with per-plan locking and micro-batched ingestion. The
// contract between them is the emit callback: a plan's emission sequence
// is a total order (identical on both runtimes); cross-plan order is
// guaranteed only by the sequential engine and the runtime's synchronous
// mode. Plan.Push assumes single-threaded access per plan — whoever
// hosts a plan must serialise its pushes, which both runtimes do.
package spe

import (
	"fmt"

	"cosmos/internal/cql"
	"cosmos/internal/predicate"
	"cosmos/internal/stream"
	"cosmos/internal/window"
)

// inputState tracks one FROM stream's filter, window and live buffer.
type inputState struct {
	alias  string
	stream string
	win    stream.Duration
	sel    predicate.DNF
	schema *stream.Schema

	// buf[head:] holds the in-window tuples in arrival order (timestamps
	// non-decreasing per stream). Eviction advances head instead of
	// copying the suffix down on every push; base is the absolute
	// sequence number of buf[0], so hash buckets and group member lists
	// can reference tuples across compactions.
	buf  []stream.Tuple
	head int
	base uint64

	// Index-resolved state, built by Compile.
	selC    *predicate.Compiled
	ad      adapter
	hash    *joinIndex
	evicted int // evictions since the last hash-index sweep
}

// live returns the in-window tuples in arrival order.
func (in *inputState) live() []stream.Tuple { return in.buf[in.head:] }

// liveMin returns the absolute sequence of the oldest live tuple.
func (in *inputState) liveMin() uint64 { return in.base + uint64(in.head) }

// at returns the live tuple with the given absolute sequence.
func (in *inputState) at(seq uint64) stream.Tuple { return in.buf[seq-in.base] }

// insert appends a tuple to the window buffer (and, for an equi-join
// input, its partition bucket), returning its absolute sequence.
func (in *inputState) insert(t stream.Tuple) uint64 {
	seq := in.base + uint64(len(in.buf))
	in.buf = append(in.buf, t)
	if in.hash != nil {
		in.hash.insert(t, seq)
	}
	return seq
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
	// aliasesOf maps a source stream name to the aliases consuming it
	// (several for self-joins).
	aliasesOf map[string][]string

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
		aliasesOf: map[string][]string{},
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
			alias:  ref.Alias,
			stream: ref.Stream,
			win:    ref.Window,
			sel:    b.Sel[ref.Alias],
			schema: inSchema,
		}
		p.inputs = append(p.inputs, in)
		p.byAlias[ref.Alias] = in
		p.aliasesOf[ref.Stream] = append(p.aliasesOf[ref.Stream], ref.Alias)
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
	out := make([]string, 0, len(p.aliasesOf))
	for s := range p.aliasesOf {
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
	aliases, ok := p.aliasesOf[t.Schema.Stream]
	if !ok {
		return nil, nil // not an input of this plan
	}
	if t.Ts > p.watermark {
		p.watermark = t.Ts
	}
	if len(aliases) == 1 {
		// Common case (no self-join): skip the cross-alias collector.
		in := p.byAlias[aliases[0]]
		adapted, err := in.adapt(t)
		if err != nil {
			return nil, fmt.Errorf("spe %s: input tuple: %w", p.ID, err)
		}
		return p.pushInput(in, adapted)
	}
	var out []stream.Tuple
	for _, alias := range aliases {
		in := p.byAlias[alias]
		adapted, err := in.adapt(t)
		if err != nil {
			return nil, fmt.Errorf("spe %s: input tuple: %w", p.ID, err)
		}
		emitted, err := p.pushInput(in, adapted)
		if err != nil {
			return nil, err
		}
		out = append(out, emitted...)
	}
	return out, nil
}

// evict drops tuples that can no longer join anything given the
// watermark: a tuple of a stream with window T is dead once
// watermark − ts > T (Lemma 1 upper bound on its own window). Eviction
// advances the buffer head and unwinds incremental aggregate state; the
// buffer compacts once the dead prefix dominates.
func (p *Plan) evict(in *inputState) {
	for in.head < len(in.buf) && window.Expired(in.buf[in.head].Ts, p.watermark, in.win) {
		t := in.buf[in.head]
		if p.agg != nil {
			p.agg.evictMember(t)
		}
		in.buf[in.head] = stream.Tuple{}
		in.head++
		if in.hash != nil {
			in.evicted++
		}
	}
	in.maybeCompact()
}

// compactMinHead is the dead-prefix length below which eviction never
// copies the buffer down; beyond it, compaction runs once the dead
// prefix reaches half the buffer (amortised O(1) per push).
const compactMinHead = 32

func (in *inputState) maybeCompact() {
	if in.head == len(in.buf) {
		// Fully drained: reset in place, reusing capacity (slots were
		// zeroed during eviction).
		in.base += uint64(in.head)
		in.buf = in.buf[:0]
		in.head = 0
	} else if in.head >= compactMinHead && in.head*2 >= len(in.buf) {
		n := copy(in.buf, in.buf[in.head:])
		for i := n; i < len(in.buf); i++ {
			in.buf[i] = stream.Tuple{}
		}
		in.base += uint64(in.head)
		in.buf = in.buf[:n]
		in.head = 0
	}
	if in.hash != nil && in.evicted > (len(in.buf)-in.head)+compactMinHead {
		in.hash.sweep(in.liveMin())
		in.evicted = 0
	}
}

// pairwiseJoinable checks Lemma 1 between candidate u (for input slot i)
// and every tuple already placed in the combo.
func (p *Plan) pairwiseJoinable(combo []stream.Tuple, i int, u stream.Tuple, other *inputState) bool {
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

func (p *Plan) indexOf(alias string) int {
	for i, in := range p.inputs {
		if in.alias == alias {
			return i
		}
	}
	return -1
}
