package cbn

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cosmos/internal/obs"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// Assumed wire overheads (bytes) for message accounting; the simulator is
// what the paper itself used to evaluate the CBN ("The CBN is simulated
// in the experiments", §5), and LiveNet charges the same sizes.
const (
	DataHeaderBytes   = 16
	AdvertBytes       = 32
	SubscribeBaseSize = 48
	ConstraintBytes   = 24
	AttrNameBytes     = 12
)

// LinkStats is a snapshot of one undirected overlay link's traffic.
type LinkStats struct {
	A, B    int
	DelayMs float64
	// DataBytes / DataMsgs count tuple traffic; CtrlBytes / CtrlMsgs
	// count (un)advertisements and demand updates.
	DataBytes int64
	DataMsgs  int64
	CtrlBytes int64
	CtrlMsgs  int64
}

// Message kinds. A client sets its whole demand (msgDemand, prof), which
// its broker records as a client's; brokers pass one stream's demand on
// (msgDemand, name and prof). An advertisement (msgAdvertise, name)
// floods from a stream's source, and its unadvertisement
// (msgUnadvertise, name) follows it the same way, retiring the stream.
const (
	msgData = iota
	msgDemand
	msgAdvertise
	msgUnadvertise
)

// message is one CBN message at a broker: a tuple, a demand update, an
// advertisement or an unadvertisement, and the interface it arrived on.
type message struct {
	from  IfaceID
	kind  int
	tuple stream.Tuple
	prof  *profile.Profile
	name  string
}

// endpoint is what SimClient and LiveClient share: the node and
// interface a client occupies, and the control messages it sends
// through its transport's control function.
type endpoint struct {
	Node    int
	iface   IfaceID
	control func(node int, m message)

	mu     sync.Mutex       // sends demand updates in the order they are made
	demand *profile.Profile // the last one; guarded by mu
}

// Iface returns the broker interface the client occupies, the one whose
// Broker.DemandOn is the client's demand.
func (e *endpoint) Iface() IfaceID { return e.iface }

// Advertise announces a stream from the client's node; the advert floods
// the overlay.
func (e *endpoint) Advertise(streamName string) {
	e.control(e.Node, message{from: e.iface, kind: msgAdvertise, name: streamName})
}

// Unadvertise retires a stream the client advertised: every broker the
// unadvertisement reaches forgets the stream, its routes and the demand
// for it. It travels behind the advertisement and behind every tuple the
// client published before it, so send it once the stream's last tuple
// is out.
func (e *endpoint) Unadvertise(streamName string) {
	e.control(e.Node, message{from: e.iface, kind: msgUnadvertise, name: streamName})
}

// SetDemand sets the client's whole data interest to p, replacing what it
// had (nil: none); the network forwards the change toward the sources,
// narrowing as well as widening. p's projection sets narrow what links
// carry toward the client, not what it receives: its broker hands it
// each covered tuple as routed, so it binds columns by name. A
// SimClient's delivery callback must not set its own client's demand:
// the cascade runs under the client's lock.
func (e *endpoint) SetDemand(p *profile.Profile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.demand = p
	e.control(e.Node, message{from: e.iface, kind: msgDemand, prof: p})
}

// Subscribe adds p to the client's data interest: SetDemand of its
// current demand ∪ p.
func (e *endpoint) Subscribe(p *profile.Profile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := profile.New()
	if e.demand != nil {
		next.Merge(e.demand)
	}
	next.Merge(p)
	e.demand = next
	e.control(e.Node, message{from: e.iface, kind: msgDemand, prof: next})
}

// receiver is a client endpoint as its broker sees it: a SimClient runs
// its callback on the spot, a LiveClient queues the tuple for its pump.
type receiver interface{ receive(t stream.Tuple) }

// hop is one broker interface and where it leads: a client endpoint, or an
// overlay link whose far end is interface peerIface of node peer.
type hop struct {
	iface     IfaceID
	client    receiver // nil for an overlay link
	peer      int
	peerIface IfaceID
	link      *linkCounters
}

// linkCounters accumulates one undirected link's traffic. On LiveNet the
// brokers at both ends add concurrently, hence the atomics.
type linkCounters struct {
	a, b      int
	delayMs   float64
	dataBytes atomic.Int64
	dataMsgs  atomic.Int64
	ctrlBytes atomic.Int64
	ctrlMsgs  atomic.Int64
}

// Fabric is the overlay both transports run: a Broker per node, each
// node's interface table (client endpoints and overlay links), the
// per-link counters, and the step that takes one message through a
// broker and passes each consequence on to its next hop. SimNet and
// LiveNet differ only in how they schedule those hops — one FIFO queue
// drained on the caller's goroutine, or a mailbox per node drained by a
// goroutine per broker — so what a message does, and what it costs on
// which link, is decided here once.
type Fabric struct {
	brokers []*Broker
	tables  []ifaceTable
	links   []*linkCounters // complete before traffic flows
	// metrics, when non-nil, observes the route stage (nil-safe).
	metrics *obs.Metrics
}

// ifaceTable is one node's interfaces, the only record of what is
// attached there. Clients attach and detach while brokers route
// (LiveNet), hence the lock.
type ifaceTable struct {
	mu   sync.RWMutex
	hops []hop   // in interface order, IDs being handed out ascending; guarded by mu
	next IfaceID // guarded by mu
}

// find returns the index of iface's hop. Callers hold tb.mu.
func (tb *ifaceTable) find(iface IfaceID) (int, bool) {
	i := sort.Search(len(tb.hops), func(i int) bool { return tb.hops[i].iface >= iface })
	return i, i < len(tb.hops) && tb.hops[i].iface == iface
}

func newFabric(n int) Fabric {
	f := Fabric{brokers: make([]*Broker, n), tables: make([]ifaceTable, n)}
	for i := range f.brokers {
		f.brokers[i] = NewBroker(i)
	}
	return f
}

// SetMetrics attaches the observability hub; each broker routing hop
// counts one route-stage event (sampled for latency) against it. Call
// before traffic flows.
func (f *Fabric) SetMetrics(m *obs.Metrics) { f.metrics = m }

// NumNodes returns the broker count.
func (f *Fabric) NumNodes() int { return len(f.brokers) }

// Broker exposes a node's broker.
func (f *Fabric) Broker(node int) *Broker { return f.brokers[node] }

// attach claims the next interface of node for h.
func (f *Fabric) attach(node int, h hop) IfaceID {
	tb := &f.tables[node]
	tb.mu.Lock()
	defer tb.mu.Unlock()
	h.iface = tb.next
	tb.next++
	tb.hops = append(tb.hops, h)
	return h.iface
}

// detach forgets an interface: the broker's deliveries to it are dropped
// from then on.
func (f *Fabric) detach(node int, iface IfaceID) {
	tb := &f.tables[node]
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if i, ok := tb.find(iface); ok {
		tb.hops = slices.Delete(tb.hops, i, i+1)
	}
}

// addLink joins two brokers with an undirected overlay link; a pair
// already linked keeps its one link.
func (f *Fabric) addLink(a, b int, delayMs float64) {
	if a > b {
		a, b = b, a
	}
	for _, l := range f.links {
		if l.a == a && l.b == b {
			return
		}
	}
	l := &linkCounters{a: a, b: b, delayMs: delayMs}
	f.links = append(f.links, l)
	ia := f.attach(a, hop{peer: b, link: l})
	ib := f.attach(b, hop{peer: a, peerIface: ia, link: l})
	tb := &f.tables[a]
	tb.mu.Lock()
	i, _ := tb.find(ia)
	tb.hops[i].peerIface = ib
	tb.mu.Unlock()
}

// step takes one message through node's broker. A routed tuple for a
// local client goes to its receiver; a message for a neighbour is charged
// on the link and handed to forward with the interface it arrives on.
// Routing recycles *scratch, which no other step may use until this one
// returns, and cuts gapped link projections from slab, which only steps
// serialised with this one may use. The error is the broker's routing
// error for a tuple, which then goes nowhere.
func (f *Fabric) step(node int, m message, scratch *[]Delivery, slab *stream.Slab, forward func(peer int, m message)) error {
	b := f.brokers[node]
	switch m.kind {
	case msgData:
		// Brokers route concurrently on LiveNet: stripe the count by node
		// so the counting stays uncontended.
		start := f.metrics.StageStartAt(obs.StageRoute, node)
		deliveries, err := b.routeInto(m.tuple, m.from, *scratch, slab)
		f.metrics.StageEnd(obs.StageRoute, start)
		f.metrics.TraceMark(int64(m.tuple.Ts), obs.StageRoute)
		if err != nil {
			return err
		}
		for _, d := range deliveries {
			f.send(node, d.Iface, message{kind: msgData, tuple: d.Tuple}, forward)
		}
		if deliveries != nil {
			clear(deliveries) // drop tuple refs before recycling
			*scratch = deliveries
		}
	case msgDemand:
		var streams []string
		if m.name != "" {
			streams = []string{m.name}
		}
		f.sendDemand(node, b.setDemand(m.prof, m.from, m.name == "", streams), forward)
	case msgAdvertise:
		fresh, demand := b.HandleAdvertise(m.name, m.from)
		if fresh {
			f.flood(node, m, forward)
		}
		f.sendDemand(node, demand, forward)
	case msgUnadvertise:
		if b.pruneStream(m.name) {
			f.flood(node, m, forward)
		}
	}
	return nil
}

// flood passes an advertisement or an unadvertisement on through every
// interface of node but the one it arrived on, in interface order.
func (f *Fabric) flood(node int, m message, forward func(peer int, m message)) {
	tb := &f.tables[node]
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	for _, h := range tb.hops {
		if h.iface != m.from {
			h.pass(m, forward)
		}
	}
}

// sendDemand passes a broker's demand updates on.
func (f *Fabric) sendDemand(node int, fws []Forward, forward func(peer int, m message)) {
	for _, fw := range fws {
		f.send(node, fw.Iface, message{kind: msgDemand, name: fw.Stream, prof: fw.Prof}, forward)
	}
}

// send passes one message on through interface iface of node; an
// interface detached meanwhile drops the message.
func (f *Fabric) send(node int, iface IfaceID, m message, forward func(peer int, m message)) {
	tb := &f.tables[node]
	tb.mu.RLock()
	var h hop // the zero hop: detached
	if i, ok := tb.find(iface); ok {
		h = tb.hops[i]
	}
	tb.mu.RUnlock()
	h.pass(m, forward)
}

// pass hands one message to where h leads: a client takes tuples only;
// a message for a neighbour is charged on the link and handed to
// forward with the interface it arrives on; the zero hop drops it.
// flood calls it under the table's read lock: an (un)advertisement runs
// no client callback, and forward takes no table lock.
func (h hop) pass(m message, forward func(peer int, m message)) {
	switch {
	case h.client != nil:
		if m.kind == msgData {
			h.client.receive(m.tuple)
		}
	case h.link != nil:
		switch m.kind {
		case msgData:
			h.link.dataMsgs.Add(1)
			h.link.dataBytes.Add(int64(m.tuple.WireSize() + DataHeaderBytes))
		case msgDemand:
			h.link.ctrlMsgs.Add(1)
			h.link.ctrlBytes.Add(int64(demandWireSize(m.name, m.prof)))
		case msgAdvertise, msgUnadvertise:
			h.link.ctrlMsgs.Add(1)
			h.link.ctrlBytes.Add(int64(AdvertBytes + len(m.name)))
		}
		m.from = h.peerIface
		forward(h.peer, m)
	}
}

// SetCatalog installs a stream catalog on every broker as the
// schema-drift guard for compiled routing. Call it at assembly, before
// traffic flows.
func (f *Fabric) SetCatalog(reg *stream.Registry) {
	for _, b := range f.brokers {
		b.SetCatalog(reg)
	}
}

// Stats returns per-link counters sorted by (A, B). Each counter is read
// atomically, but while LiveNet carries traffic the snapshot is not a
// consistent cut across links; quiesce first for exact readouts.
func (f *Fabric) Stats() []*LinkStats {
	out := make([]*LinkStats, 0, len(f.links))
	for _, l := range f.links {
		out = append(out, &LinkStats{
			A: l.a, B: l.b, DelayMs: l.delayMs,
			DataBytes: l.dataBytes.Load(), DataMsgs: l.dataMsgs.Load(),
			CtrlBytes: l.ctrlBytes.Load(), CtrlMsgs: l.ctrlMsgs.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TotalDataBytes sums tuple traffic over all overlay links; like Stats,
// exact once the network is quiet.
func (f *Fabric) TotalDataBytes() int64 {
	var total int64
	for _, l := range f.links {
		total += l.dataBytes.Load()
	}
	return total
}

// demandWireSize estimates the size of a message carrying one stream's
// demand (withdrawn when p is nil or lacks the stream).
func demandWireSize(name string, p *profile.Profile) int {
	size := SubscribeBaseSize + len(name)
	if p != nil {
		size += AttrNameBytes * len(p.AttrsFor(name))
		for _, cj := range p.FilterFor(name) {
			size += ConstraintBytes * len(cj)
		}
	}
	return size
}
