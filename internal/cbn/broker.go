// Package cbn implements the content-based network at the heart of the
// COSMOS data layer (paper §1, §3): "In a CBN, each datagram consists of
// several attribute-value pairs. A node in the network can express its
// data interest as a few selection predicates … The sources and the
// destinations are not known to each other."
//
// COSMOS extends traditional CBN with stream awareness: datagrams belong
// to named streams, and profiles carry per-stream projection sets that
// brokers apply early to save bandwidth (§3.1). Only links project: a
// client endpoint receives every covered tuple in the layout its broker
// routed it, every column its demand names and perhaps more, and binds
// columns by name; the hop to it crosses no link, so a copy there would
// save nothing.
//
// # Two-plane design
//
// The broker separates a rare, symbolic control plane from a hot,
// compiled data plane:
//
//   - Control plane (HandleAdvertise, HandleDemand and the
//     unadvertisement's handler, pruneStream): mutex-protected, works on
//     symbolic profiles (attribute names, DNF filters) because
//     covering-based suppression needs the full predicate algebra.
//     Demand is state, not a log of deltas: each interface holds one
//     profile, which an update replaces, and each change is forwarded
//     toward the stream's sources whether it widens or narrows the
//     demand; the broker keeps no interface list of its own (the
//     Fabric's tables are it). A stream is retired by a message too: its
//     unadvertisement follows the advertisement over the same links, and
//     every broker it reaches forgets the stream. A demand change or an
//     unadvertisement invalidates the compiled entries of the streams it
//     touched, a new catalog the whole table; HandleAdvertise needs no
//     invalidation because advert state never enters the table.
//   - Data plane (RouteTuple): reads an immutable routing table published
//     through an atomic.Pointer — one map lookup per tuple, then
//     index-resolved predicate evaluation (predicate.Compiled) and, toward
//     a link, early projection (profile.CompiledStream.Apply), which keeps
//     the arriving column order: a route wanting every column forwards
//     the tuple itself, one keeping a contiguous run of columns shares a
//     capped subslice of its values, and only a projection that leaves a
//     gap copies (stream.Tuple.ProjectIdx), into a row cut from the
//     routing node's slab (stream.Slab). No mutex, no name lookups, and
//     zero heap allocations for tuples that match nothing or need no
//     copy.
//
// Every change to a broker's state is a message: once the overlay is
// assembled (SetCatalog is assembly-time), only Fabric.step writes
// broker state — on LiveNet, from the broker's own goroutine — and each
// control message that crosses a link is charged on it.
//
// Per stream, the table is compiled lazily on the first routed tuple and
// keyed by that tuple's schema pointer. There is no second evaluator:
// tuples arriving under a different layout (an upstream broker changed
// its projection) recompile the entry for the schema they carry, and a
// stream whose demand cannot be compiled for that schema — a filter the
// compiler cannot prove error-free, a layout the catalog contradicts —
// publishes an entry holding the error, which RouteTuple returns for
// every tuple of the stream until the control plane changes. The
// name-resolved routing the compiled plane must match lives in this
// package's tests as the differential reference.
//
// The package separates protocol logic (Broker — synchronous, transport
// agnostic) and the overlay it runs on (Fabric: interface tables, links,
// per-link byte accounting, the per-message step) from scheduling:
// SimNet drains the fabric's messages in deterministic FIFO order (how
// the paper evaluates, §5), while LiveNet runs each broker on its own
// goroutine with elastic mailboxes between brokers, credit-bounded
// client ingress (backpressure) and per-client delivery pumps; LiveNet
// brokers route concurrently against the same published table without
// contending on the mutex. See the LiveNet type for the elasticity and
// ordering contract.
package cbn

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// IfaceID identifies one attachment point of a broker: an overlay link to
// a neighbour broker or a local client (source, processor or user proxy).
type IfaceID int

// Forward instructs the transport to send a demand update on an
// interface: the far side's demand from this broker for Stream becomes
// Prof's part of it, none when Prof lacks the stream.
type Forward struct {
	Iface  IfaceID
	Stream string
	Prof   *profile.Profile
}

// Delivery instructs the transport to send a (projected) tuple.
type Delivery struct {
	Iface IfaceID
	Tuple stream.Tuple
}

// compiledRoute is one data-plane forwarding decision: deliver on iface
// when the view's compiled filter matches, after its index-based
// projection.
type compiledRoute struct {
	iface IfaceID
	view  *profile.CompiledStream
}

// streamTable is the compiled routing state of one stream. Immutable
// after publication.
type streamTable struct {
	// schema is the schema the routes were compiled against; tuples of
	// any other layout recompile the entry.
	schema *stream.Schema
	// err is set, and routes empty, when the stream's demand could not be
	// compiled for schema; RouteTuple returns it for every tuple of the
	// stream instead of retrying compilation per tuple.
	err    error
	routes []compiledRoute
}

// route is the lock-free data path: evaluate each route's compiled filter
// directly on the tuple's value slice and project it early toward a link.
// It allocates only for the delivery slice (none when the caller recycles
// a scratch slice) and for the rows a gapped link projection copies into
// (a slab's chunk now and then, or one per row when slab is nil); a
// tuple matching no route, or routed only whole or as contiguous runs,
// allocates nothing.
//
//cosmos:hotpath
func (st *streamTable) route(t stream.Tuple, from IfaceID, scratch []Delivery, slab *stream.Slab) []Delivery {
	out := scratch[:0]
	for i := range st.routes {
		r := &st.routes[i]
		if r.iface == from {
			continue
		}
		if !r.view.Covers(t.Values, t.Ts) {
			continue
		}
		if out == nil {
			// Sized on first match only, keeping non-matching tuples
			// allocation free.
			out = make([]Delivery, 0, len(st.routes))
		}
		out = append(out, Delivery{Iface: r.iface, Tuple: r.view.ApplyFrom(t, slab)})
	}
	return out
}

// routeTable is one immutable snapshot of the compiled routing state,
// published via Broker.table. Copy-on-write: publishing a new stream
// entry replaces the whole table.
type routeTable struct {
	streams map[string]*streamTable
}

// Broker is the protocol logic of one CBN node. All methods are
// synchronous and thread-safe; transports own messaging.
type Broker struct {
	ID int

	// table is the compiled routing table read lock-free by RouteTuple.
	// nil until the first tuple of any stream is routed. A demand change
	// or an unadvertisement drops the entries of the streams it touched;
	// SetCatalog drops the whole table.
	table atomic.Pointer[routeTable]

	// mu is the control-plane lock; every field below is guarded by mu.
	mu sync.Mutex
	// agg is each interface's demand, what its far side wants, as last
	// set, in interface order; an interface without an entry wants
	// nothing. Guarded by mu.
	agg []ifaceDemand
	// sent is the demand last forwarded on each interface, per stream,
	// for covering-based suppression; guarded by mu.
	sent map[IfaceID]*profile.Profile
	// adverts maps stream name → interfaces through which the stream's
	// source is reachable; guarded by mu.
	adverts map[string]map[IfaceID]bool
	// projCache interns projected schemas keyed by stream + attr set so
	// recompiles hand out stable pointers; guarded by mu.
	projCache map[string]*stream.Schema
	// catalog optionally holds the node's stream catalog; when set, a
	// tuple schema that is not a projection of the registered one is
	// refused (see compileStreamLocked). Guarded by mu.
	catalog *stream.Registry
}

// NewBroker builds an empty broker.
func NewBroker(id int) *Broker {
	return &Broker{
		ID:        id,
		sent:      map[IfaceID]*profile.Profile{},
		adverts:   map[string]map[IfaceID]bool{},
		projCache: map[string]*stream.Schema{},
	}
}

// SetCatalog installs the node's stream catalog as a layout guard: a
// stream whose tuples carry attributes the registered schema lacks, or
// under other kinds, routes to an error. Optional; a nil catalog trusts
// the schemas tuples carry.
func (b *Broker) SetCatalog(reg *stream.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.catalog = reg
	b.table.Store(nil)
}

// dropLocked discards the compiled entries of the named streams; the
// next routed tuple of each recompiles it from current broker state.
// Other streams keep their entries, and a table holding none of the
// names is kept as it is. Callers hold b.mu.
func (b *Broker) dropLocked(names ...string) {
	old := b.table.Load()
	if old == nil || !slices.ContainsFunc(names, func(name string) bool { return old.streams[name] != nil }) {
		return
	}
	streams := maps.Clone(old.streams)
	for _, name := range names {
		delete(streams, name)
	}
	b.table.Store(&routeTable{streams: streams})
}

type ifaceDemand struct {
	iface IfaceID
	prof  *profile.Profile
	// client is set when a client endpoint set the demand: the route
	// toward it filters and hands tuples over whole, since only a link
	// projects.
	client bool
}

// demandOf returns iface's demand, nil when it wants nothing, and the
// index its entry has or would take in b.agg. Callers hold b.mu.
func (b *Broker) demandOf(iface IfaceID) (int, *profile.Profile) {
	i, ok := slices.BinarySearchFunc(b.agg, iface, func(d ifaceDemand, id IfaceID) int { return cmp.Compare(d.iface, id) })
	if !ok {
		return i, nil
	}
	return i, b.agg[i].prof
}

// DemandIfaces returns the interfaces whose far side wants something,
// ascending.
func (b *Broker) DemandIfaces() (out []IfaceID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range b.agg {
		out = append(out, d.iface)
	}
	return out
}

// normalize widens a profile's projection sets with the attributes its
// filters evaluate, so that en-route projection never strips attributes a
// downstream filter still needs. p is never written: normalize returns
// p itself when no set must widen, and a widened copy otherwise.
func normalize(p *profile.Profile) *profile.Profile {
	out := p
	for _, s := range p.Streams {
		attrs := p.Attrs[s]
		if attrs == nil {
			continue // all attributes anyway
		}
		widened := slices.Clip(attrs)
		for _, cj := range p.Filters[s] {
			for _, c := range cj {
				for _, a := range [...]string{c.Term.A, c.Term.B} {
					// The intrinsic timestamp resolves from the tuple itself
					// and must not enter projection sets.
					if a != "" && a != predicate.IntrinsicTs && !slices.Contains(widened, a) {
						widened = append(widened, a)
					}
				}
			}
		}
		if len(widened) > len(attrs) {
			if out == p {
				out = p.Clone()
			}
			out.AddStream(s, widened, p.Filters[s])
		}
	}
	return out
}

// HandleAdvertise processes a stream advertisement arriving on an
// interface. Advertisements flood the overlay (they are rare and tiny);
// the broker remembers which interface leads to the source so demand
// travels toward it. It reports whether the advertisement is new, which
// is when the transport floods it on, plus the demand for the stream
// that must now be sent toward the advertiser (demand that arrived
// before the advert).
func (b *Broker) HandleAdvertise(streamName string, from IfaceID) (fresh bool, demand []Forward) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.adverts[streamName] == nil {
		b.adverts[streamName] = map[IfaceID]bool{}
	}
	if b.adverts[streamName][from] {
		return false, nil // duplicate advert; stop the flood
	}
	b.adverts[streamName][from] = true
	return true, b.forwardLocked([]string{streamName})
}

// HandleDemand sets the demand arriving on an interface from a
// neighbour broker. For each of streams, p's part of it (none when p is
// nil or lacks it) replaces what the interface wanted: that is the
// update one broker forwards to the next. An update for a stream the
// broker has no advertisement for is recorded as a withdrawal: a
// neighbour sends demand only toward an advertisement this broker
// flooded to it, so on a tree such an update crossed the stream's
// unadvertisement and is stale. With no streams, p replaces the
// interface's whole demand; a nil p then withdraws it all.
func (b *Broker) HandleDemand(p *profile.Profile, from IfaceID, streams ...string) []Forward {
	return b.setDemand(p, from, false, streams)
}

// setDemand is HandleDemand for any interface: it returns the updates
// for every stream whose demand changed. client records that a client
// endpoint set the demand (always its whole demand, which may arrive
// before the advertisement): the route toward a client applies the
// filter and hands over the routed tuple as it arrived, every column
// the demand names and perhaps more, since only links project.
func (b *Broker) setDemand(p *profile.Profile, from IfaceID, client bool, streams []string) []Forward {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p != nil {
		// The broker keeps per-stream copies of the normalized parts
		// (CopyStream below), never p itself.
		p = normalize(p)
	}
	i, cur := b.demandOf(from)
	perStream := len(streams) > 0 // only a neighbour names streams
	if len(streams) == 0 {
		for _, q := range []*profile.Profile{cur, p} {
			if q != nil {
				streams = append(streams, q.Streams...)
			}
		}
	}
	var changed []string
	for _, s := range streams {
		want := p
		if perStream && len(b.adverts[s]) == 0 {
			want = nil // crossed the stream's unadvertisement
		}
		if profile.SameOn(cur, want, s) {
			continue
		}
		if cur == nil {
			cur = profile.New()
			b.agg = slices.Insert(b.agg, i, ifaceDemand{iface: from, prof: cur, client: client})
		}
		cur.CopyStream(want, s)
		changed = append(changed, s)
	}
	if len(changed) == 0 {
		return nil
	}
	if len(cur.Streams) == 0 {
		b.agg = slices.Delete(b.agg, i, i+1)
	}
	b.dropLocked(changed...)
	return b.forwardLocked(changed)
}

// forwardLocked re-derives, for each stream, the demand every interface
// toward one of its advertisers should carry — the union of the other
// interfaces' demand — and returns an update for each whose demand
// differs from what it was last sent, narrower or wider. Callers hold
// b.mu.
func (b *Broker) forwardLocked(streams []string) []Forward {
	var out []Forward
	for _, s := range streams {
		start := len(out)
		for iface := range b.adverts[s] {
			want := b.demandExcept(iface, s)
			if profile.SameOn(b.sent[iface], want, s) {
				continue
			}
			if b.sent[iface] == nil {
				b.sent[iface] = profile.New()
			}
			b.sent[iface].CopyStream(want, s)
			out = append(out, Forward{Iface: iface, Stream: s, Prof: want})
		}
		slices.SortFunc(out[start:], func(x, y Forward) int { return cmp.Compare(x.Iface, y.Iface) })
	}
	return out
}

// demandExcept unions one stream's demand over every interface except
// skip, in interface order; nil when there is none. Callers hold b.mu.
func (b *Broker) demandExcept(skip IfaceID, streamName string) *profile.Profile {
	var parts []*profile.Profile
	for _, d := range b.agg {
		if d.iface != skip && d.prof.HasStream(streamName) {
			parts = append(parts, d.prof)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return profile.UnionOn(streamName, parts)
}

// RouteTuple routes a datagram arriving on an interface: it is forwarded
// on every other interface whose aggregated demand covers it, projected
// to that interface's attribute set for the stream (early projection,
// §3.1).
//
// The hot path is lock-free: a published routing table entry compiled for
// the tuple's schema is consulted without taking the broker mutex. The
// first tuple of a stream after a control-plane change, or of a new
// layout, compiles the entry under the mutex and then takes the same
// route. The error, when there is one, is the stream's stored compile
// error (see streamTable.err).
//
//cosmos:hotpath
func (b *Broker) RouteTuple(t stream.Tuple, from IfaceID) ([]Delivery, error) {
	return b.RouteTupleInto(t, from, nil)
}

// RouteTupleInto is RouteTuple with a caller-owned scratch slice for
// the deliveries (appended from scratch[:0], grown as needed). A
// single-threaded transport can recycle the returned slice across
// tuples and route match-free traffic with zero allocations.
//
//cosmos:hotpath
func (b *Broker) RouteTupleInto(t stream.Tuple, from IfaceID, scratch []Delivery) ([]Delivery, error) {
	return b.routeInto(t, from, scratch, nil)
}

// routeInto is RouteTupleInto for a transport's step, which also owns a
// slab to cut gapped link projections from.
//
//cosmos:hotpath
func (b *Broker) routeInto(t stream.Tuple, from IfaceID, scratch []Delivery, slab *stream.Slab) ([]Delivery, error) {
	if t.Schema == nil {
		return nil, nil // no stream: no demand can cover it
	}
	var st *streamTable
	if tbl := b.table.Load(); tbl != nil {
		st = tbl.streams[t.Schema.Stream]
	}
	if st == nil || !st.applies(t.Schema) {
		// Deliberate cold exit: compile once per (stream, layout) epoch.
		//lint:ignore hotpath runs once per (stream, schema) epoch, not per tuple
		st = b.compileAndPublish(t.Schema)
	}
	if st.err != nil {
		return nil, st.err
	}
	return st.route(t, from, scratch, slab), nil
}

// applies reports whether the compiled entry is valid for tuples of the
// given schema: the pointer it was compiled against, or — so that an
// upstream broker recompiling its own table (and thus minting fresh
// projected-schema pointers) cannot knock this broker off the lock-free
// path — any schema with an identical layout, for which the compiled
// column indices and kind decisions are equally sound.
//
//cosmos:hotpath
func (st *streamTable) applies(s *stream.Schema) bool {
	return st.schema == s || st.schema.Equal(s)
}

// compileAndPublish is the mutex-protected slow path: it compiles the
// stream's routing entry for the schema arriving tuples carry — the
// first one after an invalidation, or a new layout — and publishes it.
func (b *Broker) compileAndPublish(s *stream.Schema) *streamTable {
	b.mu.Lock()
	defer b.mu.Unlock()
	if tbl := b.table.Load(); tbl != nil {
		// Another router published it while this one waited for the lock.
		if st := tbl.streams[s.Stream]; st != nil && st.applies(s) {
			return st
		}
	}
	st := b.compileStreamLocked(s)
	b.publishLocked(s.Stream, st)
	return st
}

// compileStreamLocked builds the compiled routing entry for one stream
// against the given schema. Demand that cannot be compiled for it, or a
// schema the catalog contradicts, yields an entry holding the error.
// Callers hold b.mu.
func (b *Broker) compileStreamLocked(s *stream.Schema) *streamTable {
	st := &streamTable{schema: s}
	if b.catalog != nil {
		if reg, ok := b.catalog.Schema(s.Stream); ok {
			if st.err = projectionOf(reg, s); st.err != nil {
				return st
			}
		}
	}
	for _, d := range b.agg {
		cs, err := d.prof.CompileFor(s)
		if err != nil {
			st.err = fmt.Errorf("cbn: broker %d cannot route %s toward iface %d: %w", b.ID, s.Stream, d.iface, err)
			st.routes = nil
			return st
		}
		if cs == nil {
			continue // this side has no interest in the stream
		}
		if d.client {
			cs = &profile.CompiledStream{Match: cs.Match} // only links project
		}
		cs.ProjSchema = b.internProjSchema(cs.ProjSchema)
		st.routes = append(st.routes, compiledRoute{iface: d.iface, view: cs})
	}
	return st
}

// projectionOf checks that every attribute of s is an attribute of the
// registered schema, of the same kind: true of the source's own tuples
// and of every early projection of them a downstream broker sees.
func projectionOf(reg, s *stream.Schema) error {
	for _, f := range s.Fields {
		if rf, ok := reg.FieldByName(f.Name); !ok || rf.Kind != f.Kind {
			return fmt.Errorf("cbn: tuple layout %s contradicts the catalog's %s", s, reg)
		}
	}
	return nil
}

// internProjSchema canonicalises a projected schema through projCache so
// successive recompiles hand out one stable pointer per (stream, attr
// set). Downstream brokers key their own compiled tables on the schema
// pointer of arriving tuples; a fresh pointer on every rebuild would
// send them through Schema.Equal on every tuple.
// Callers hold b.mu.
func (b *Broker) internProjSchema(ps *stream.Schema) *stream.Schema {
	if ps == nil {
		return nil
	}
	key := ps.Stream + "|" + strings.Join(ps.AttrNames(), ",")
	if cached, ok := b.projCache[key]; ok && cached.Equal(ps) {
		return cached
	}
	b.projCache[key] = ps
	return ps
}

// publishLocked installs a stream's compiled entry into a fresh immutable
// table snapshot (copy-on-write). Callers hold b.mu.
func (b *Broker) publishLocked(name string, st *streamTable) {
	var old map[string]*streamTable
	if tbl := b.table.Load(); tbl != nil {
		old = tbl.streams
	}
	streams := make(map[string]*streamTable, len(old)+1)
	maps.Copy(streams, old)
	streams[name] = st
	b.table.Store(&routeTable{streams: streams})
}

// DemandOn returns a copy of one interface's demand (what the far side
// wants); nil when it wants nothing.
func (b *Broker) DemandOn(iface IfaceID) *profile.Profile {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, p := b.demandOf(iface); p != nil {
		return p.Clone()
	}
	return nil
}

// KnowsSource reports whether the broker has a route toward a stream's
// source.
func (b *Broker) KnowsSource(streamName string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.adverts[streamName]) > 0
}

// pruneStream handles a stream's unadvertisement: it discards every
// trace of the stream from the broker's state — advertisement routes,
// per-interface demand, what was forwarded, the compiled entry and the
// interned projections — and reports whether the broker knew the
// stream, which is when the transport floods the unadvertisement on.
// COSMOS processors retire result stream names when a query group
// changes.
func (b *Broker) pruneStream(name string) (known bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	known = len(b.adverts[name]) > 0
	b.dropLocked(name)
	delete(b.adverts, name)
	b.agg = slices.DeleteFunc(b.agg, func(d ifaceDemand) bool { return d.prof.RemoveStream(name) })
	for iface, p := range b.sent {
		if p.RemoveStream(name) {
			delete(b.sent, iface)
		}
	}
	for key := range b.projCache {
		if len(key) > len(name) && key[:len(name)] == name && key[len(name)] == '|' {
			delete(b.projCache, key)
		}
	}
	return known
}
