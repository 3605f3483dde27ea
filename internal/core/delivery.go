package core

import (
	"fmt"
	"sync"

	"cosmos/internal/cql"
	"cosmos/internal/merge"
	"cosmos/internal/obs"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// QueryHandle is the user-side proxy of one continuous query (paper §2:
// "a user first connects to a broker/processor which works as the proxy
// for the user and is responsible for retrieving the result stream from
// the network and sending it back to the user").
//
// The proxy subscribes to the group's representative result stream with
// the member's re-tightening profile and — defensively — re-applies the
// profile filter and the member's own projection/AS renaming before
// invoking the user callback, so network-side slack (e.g. stale
// aggregated subscriptions upstream after a group change) never leaks
// foreign tuples to the user. Both are compiled per arriving result
// schema: the filter to a predicate.Compiled, the renaming to a column
// index list.
type QueryHandle struct {
	Tag      string
	UserNode int

	sys    *System
	proc   *Processor
	bound  *cql.Bound
	client netClient
	// onResult is the subscriber callback: on the client API it is a
	// subscription pump enqueue, on the daemon the wire enqueue — both
	// audited non-blocking hand-offs pinned by their own benchmarks.
	//
	//cosmos:hotpath-ok
	onResult func(stream.Tuple)

	mu           sync.Mutex
	resultStream string           // guarded by mu
	filter       *profile.Profile // guarded by mu
	out          *stream.Schema   // guarded by mu
	lookup       []string         // guarded by mu
	detached     bool             // guarded by mu

	// idxSchema/idxCache/match memoise, for the last result schema seen,
	// the lookup-name → column resolution and the compiled re-tightening
	// filter, so steady-state delivery evaluates and indexes by position
	// instead of by name. All guarded by mu.
	idxSchema *stream.Schema      // guarded by mu
	idxCache  []int               // guarded by mu
	match     *predicate.Compiled // guarded by mu
}

// Query returns the analysed query this handle serves.
func (h *QueryHandle) Query() *cql.Bound { return h.bound }

// Processor returns the processor executing (the group of) this query.
func (h *QueryHandle) Processor() *Processor { return h.proc }

// refresh (re)binds the handle to its group's representative: builds the
// re-tightening profile, the output schema, and the value lookup table,
// then subscribes.
func (h *QueryHandle) refresh(rep *cql.Bound, resultStream string, singleton bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var prof *profile.Profile
	var lookup []string
	if singleton {
		// The installed plan IS the member query: results already have
		// the member's output fields (including AS names).
		prof = profile.ForResult(resultStream)
		lookup = outputNames(h.bound)
	} else {
		var err error
		prof, err = merge.BuildMemberProfile(h.bound, rep, resultStream)
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
	h.resultStream = resultStream
	h.filter = prof
	h.out = h.bound.OutSchema.Rename(h.Tag)
	h.lookup = lookup
	h.idxSchema, h.idxCache, h.match = nil, nil, nil
	h.client.Subscribe(prof)
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

// deliver handles one tuple arriving at the user proxy.
//
//cosmos:hotpath
func (h *QueryHandle) deliver(t stream.Tuple) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.detached || t.Schema == nil || t.Schema.Stream != h.resultStream {
		return
	}
	if t.Schema != h.idxSchema && !h.bindLocked(t.Schema) {
		return // group changed under us; the refresh will re-align
	}
	if !h.match.EvalValues(t.Values, t.Ts) {
		return
	}
	values := make([]stream.Value, len(h.idxCache))
	for i, j := range h.idxCache {
		values[i] = t.Values[j]
	}
	out := stream.Tuple{Schema: h.out, Ts: t.Ts, Values: values}
	if h.onResult != nil {
		// Deliver counts results actually handed to the subscriber; the
		// sampled timing covers the user callback (a subscription pump
		// enqueue on the client API, the wire enqueue on the daemon).
		// Proxies deliver concurrently (one pump per subscriber): stripe
		// the count by the proxy's node so they never share a counter line.
		m := h.sys.obs
		start := m.StageStartAt(obs.StageDeliver, h.UserNode)
		h.onResult(out)
		m.StageEnd(obs.StageDeliver, start)
		m.TraceMark(int64(out.Ts), obs.StageDeliver)
	}
}

// bindLocked compiles the re-tightening filter and the lookup columns
// against a result schema not seen before; false when the schema lacks
// an attribute either needs. Callers hold h.mu.
//
//cosmos:hotpath-ok — runs once per result-schema pointer, not per result
func (h *QueryHandle) bindLocked(s *stream.Schema) bool {
	match, err := predicate.Compile(h.filter.FilterFor(h.resultStream), s)
	if err != nil {
		return false
	}
	idx := make([]int, len(h.lookup))
	for i, name := range h.lookup {
		if idx[i] = s.ColIndex(name); idx[i] < 0 {
			return false
		}
	}
	h.idxSchema, h.idxCache, h.match = s, idx, match
	return true
}

// detach stops delivery and withdraws the proxy's local subscription.
func (h *QueryHandle) detach() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.detached = true
	if h.filter != nil {
		h.sys.net.Broker(h.UserNode).Unsubscribe(h.filter, h.client.Iface())
	}
}
