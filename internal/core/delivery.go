package core

import (
	"fmt"
	"slices"
	"sync"

	"cosmos/internal/cql"
	"cosmos/internal/merge"
	"cosmos/internal/obs"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// A delivery proxy is the user side of a group's result stream (paper
// §2), one per (sink, group, user node). Its network client's demand is
// the union of its members' re-tightening profiles, so the network
// delivers each result once; the proxy re-applies every member's filter
// (network-side slack never reaches a user) and hands its sink the tuple
// with the match set.

// Sink is a subscriber whose queries share delivery proxies.
type Sink interface {
	// Open is called under the system lock when SubmitTo creates a
	// proxy for the sink; the receiver gets that proxy's results.
	Open() Receiver
}

// Receiver takes one delivery proxy's results.
type Receiver interface {
	// Deliver hands over a delivered tuple and the members it matched
	// (match[i] is lay.Members[i]'s), serially, under the proxy's lock:
	// it must not block, call into the System, or keep match. t.Values
	// are the routed tuple's, shared with every other subscriber of the
	// delivery: a receiver may keep them, or a subslice, but never write
	// to them. They may be a row cut from a producer's stream.Slab, which
	// a kept row keeps alive, at most one chunk (2.5 KiB): Clone what is
	// kept long-term.
	//
	//cosmos:hotpath-ok — the subscriber's hand-off, a subscription pump enqueue (Submit) or the wire enqueue (a TCP session)
	Deliver(lay *Layout, t stream.Tuple, match []bool)
}

// Layout is a proxy's immutable binding to one delivered schema and one
// membership. Cols lists the delivered tuple's columns that form the
// body: the members' output columns in member order, shared where an
// earlier member has the column, so a lone member's body is its row.
type Layout struct {
	Cols    []int
	Members []Member

	schema *stream.Schema
}

// Member is one query's share of a Layout.
type Member struct {
	Out *stream.Schema // the query's output schema, named by its tag
	Idx []int          // per Out column, the body column carrying it
	Sub any            // the sink's state for the query, as given to SubmitTo
	// When Hi > 0 the member's columns are the delivered tuple's
	// Values[Lo:Hi], in order — the whole tuple when that is every
	// column — and its row is that run. Otherwise they leave a gap.
	Lo, Hi int
}

// proxyKey names a proxy; a group's plan ID outlives versions and failover.
type proxyKey struct {
	sink  Sink
	group string
	node  int
}

type proxy struct {
	key    proxyKey
	sys    *System
	client netClient
	recv   Receiver

	mu      sync.Mutex
	stream  string                // guarded by mu; the group's current result stream
	members []*QueryHandle        // guarded by mu
	lay     *Layout               // guarded by mu; nil until a tuple binds one
	match   []*predicate.Compiled // guarded by mu; per lay member
	hits    []bool                // guarded by mu; the match set handed to Deliver
}

// QueryHandle is one continuous query as its submitter sees it.
type QueryHandle struct {
	Tag      string
	UserNode int

	sys   *System
	proc  *Processor
	bound *cql.Bound
	sink  Sink
	sub   any
	px    *proxy // set by the first refresh, under the system lock

	// What the proxy binds for the query, read and written under px.mu.
	filter *profile.Profile
	out    *stream.Schema
	lookup []string
}

// Query returns the analysed query this handle serves.
func (h *QueryHandle) Query() *cql.Bound { return h.bound }

// Processor returns the processor executing (the group of) this query.
func (h *QueryHandle) Processor() *Processor { return h.proc }

// Demand returns the demand of the query's proxy interface.
func (h *QueryHandle) Demand() *profile.Profile {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	return h.sys.net.Broker(h.UserNode).DemandOn(h.px.client.Iface())
}

// proxyForLocked returns the proxy of h's sink, group and user node,
// creating it on first use. Called under the system lock.
func (s *System) proxyForLocked(h *QueryHandle, group string) (*proxy, error) {
	key := proxyKey{sink: h.sink, group: group, node: h.UserNode}
	if px := s.proxies[key]; px != nil {
		return px, nil
	}
	client, err := s.attach(h.UserNode)
	if err != nil {
		return nil, err
	}
	px := &proxy{key: key, sys: s, client: client, recv: h.sink.Open()}
	client.SetOnTuple(px.deliver)
	s.proxies[key] = px
	return px, nil
}

// leaveProxyLocked takes h out of its proxy and returns the proxy, or nil
// once the last member out closed it, which withdraws its demand. A proxy
// with members left drops h's profile from its demand when the caller
// next sets it (setDemand). Called under the system lock.
func (s *System) leaveProxyLocked(h *QueryHandle) *proxy {
	px := h.px
	px.mu.Lock()
	px.members = slices.DeleteFunc(px.members, func(m *QueryHandle) bool { return m == h })
	px.lay = nil
	empty := len(px.members) == 0
	px.mu.Unlock()
	if empty {
		delete(s.proxies, px.key)
		px.client.Close()
		return nil
	}
	return px
}

// setDemand sets the proxy's demand to the union of its members'
// re-tightening profiles, in the order they joined (every member of a
// proxy is in its group). Called under the system lock.
func (p *proxy) setDemand() {
	demand := profile.New()
	p.mu.Lock()
	for _, h := range p.members {
		demand.Merge(h.filter)
	}
	p.mu.Unlock()
	p.client.SetDemand(demand)
}

// refresh (re)binds the handle to its group's representative: builds the
// re-tightening profile, the output schema and the value lookup table,
// and joins a new query to its proxy. The caller sets the proxy's demand
// afterwards. Called under the system lock.
func (h *QueryHandle) refresh(gs *groupState, singleton bool) error {
	resultStream := gs.resultStream
	var prof *profile.Profile
	var lookup []string
	if singleton {
		// The installed plan IS the member query: results already have
		// the member's output fields (including AS names).
		prof = profile.ForResult(resultStream)
		lookup = outputNames(h.bound)
	} else {
		var err error
		prof, err = merge.BuildMemberProfile(h.bound, gs.rep, resultStream)
		if err != nil {
			return err
		}
		lookup = canonicalNames(h.bound)
	}
	// The re-tightening filter must compile against the result stream the
	// group registered: a filter that cannot would drop every result.
	if schema, ok := h.sys.reg.Schema(resultStream); ok {
		if _, err := prof.CompileFor(schema); err != nil {
			return fmt.Errorf("re-tightening filter of %s: %w", h.Tag, err)
		}
	}
	px := h.px
	if px == nil {
		var err error
		if px, err = h.sys.proxyForLocked(h, gs.plan); err != nil {
			return err
		}
	}
	px.mu.Lock()
	defer px.mu.Unlock()
	if h.px == nil {
		h.px, px.members = px, append(px.members, h)
	}
	px.stream, px.lay = resultStream, nil
	h.filter, h.out, h.lookup = prof, h.bound.OutSchema.Rename(h.Tag), lookup
	return nil
}

// outputNames lists the member's own output field names in schema order.
func outputNames(b *cql.Bound) []string {
	var names []string
	names = append(names, b.OutNames...)
	for _, a := range b.Aggs {
		names = append(names, a.OutName)
	}
	return names
}

// canonicalNames lists, for each member output field, the attribute name
// carrying its value in the REPRESENTATIVE's result stream.
func canonicalNames(b *cql.Bound) []string {
	var names []string
	for _, c := range b.SelectCols {
		names = append(names, c.String())
	}
	for _, a := range b.Aggs {
		names = append(names, a.String())
	}
	return names
}

// deliver handles one tuple arriving at the proxy.
//
//cosmos:hotpath
func (p *proxy) deliver(t stream.Tuple) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.Schema == nil || t.Schema.Stream != p.stream {
		return
	}
	if p.lay == nil || t.Schema != p.lay.schema {
		//lint:ignore hotpath binds once per delivered schema pointer or membership, not per result
		p.bindLocked(t.Schema)
	}
	n := 0
	for i, m := range p.match {
		if p.hits[i] = m.EvalValues(t.Values, t.Ts); p.hits[i] {
			n++
		}
	}
	if n == 0 {
		return
	}
	// One result per matched member; the sampled timing covers the sink's
	// hand-off. Proxies deliver concurrently: stripe by the user node.
	m := p.sys.obs
	start := m.StageStartNAt(obs.StageDeliver, int64(n), p.key.node)
	p.recv.Deliver(p.lay, t, p.hits)
	m.StageEnd(obs.StageDeliver, start)
	m.TraceMark(int64(t.Ts), obs.StageDeliver)
}

// bindLocked compiles every member's filter and output columns against a
// delivered schema not seen before. A member the schema cannot serve —
// its group changed under it, and the refresh will re-align — is left
// out. Callers hold p.mu.
func (p *proxy) bindLocked(s *stream.Schema) {
	lay := &Layout{schema: s}
	p.match = p.match[:0]
	for _, h := range p.members {
		match, err := predicate.Compile(h.filter.FilterFor(p.stream), s)
		ok := err == nil
		idx := make([]int, len(h.lookup))
		for i, name := range h.lookup {
			if idx[i] = s.ColIndex(name); idx[i] < 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		lo, hi := stream.ColumnRun(idx)
		// Each column takes the body position of an earlier member's
		// same column that this member has not taken yet, or a new one.
		for i, col := range idx {
			pos := len(lay.Cols)
			for j, c := range lay.Cols {
				if c == col && !slices.Contains(idx[:i], j) {
					pos = j
					break
				}
			}
			if pos == len(lay.Cols) {
				lay.Cols = append(lay.Cols, col)
			}
			idx[i] = pos
		}
		lay.Members = append(lay.Members, Member{Out: h.out, Idx: idx, Sub: h.sub, Lo: lo, Hi: hi})
		p.match = append(p.match, match)
	}
	p.lay, p.hits = lay, make([]bool, len(p.match))
}

// funcSink is Submit's subscriber. Each proxy it opens gets a receiver
// of its own (funcRecv), so proxies of one sink deliver concurrently.
type funcSink struct {
	fn func(stream.Tuple)
}

func (f *funcSink) Open() Receiver { return &funcRecv{fn: f.fn} }

// funcRecv is one proxy's receiver of a Submit. A member whose columns
// are a run of the delivered tuple gets that run, capped so no append
// through it reaches the columns after it; only a gapped member's row
// is copied out, into a row cut from slab.
type funcRecv struct {
	//cosmos:hotpath-ok — the caller's result callback
	fn func(stream.Tuple)
	// slab is owned by the receiver's proxy: Deliver runs under its lock.
	slab stream.Slab
}

//cosmos:hotpath
func (f *funcRecv) Deliver(lay *Layout, t stream.Tuple, _ []bool) {
	if f.fn == nil {
		return
	}
	m := &lay.Members[0]
	if m.Hi > 0 {
		f.fn(stream.Tuple{Schema: m.Out, Ts: t.Ts, Values: t.Values[m.Lo:m.Hi:m.Hi]})
		return
	}
	values := f.slab.Take(len(m.Idx))
	for i, j := range m.Idx {
		values[i] = t.Values[lay.Cols[j]]
	}
	f.fn(stream.Tuple{Schema: m.Out, Ts: t.Ts, Values: values})
}
