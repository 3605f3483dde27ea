package cbn

import (
	"fmt"
	"sort"

	"cosmos/internal/obs"
	"cosmos/internal/overlay"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// Assumed wire overheads (bytes) for message accounting; the simulator is
// what the paper itself used to evaluate the CBN ("The CBN is simulated
// in the experiments", §5).
const (
	DataHeaderBytes   = 16
	AdvertBytes       = 32
	SubscribeBaseSize = 48
	ConstraintBytes   = 24
	AttrNameBytes     = 12
)

// LinkStats accumulates traffic counters for one undirected overlay link.
type LinkStats struct {
	A, B    int
	DelayMs float64
	// DataBytes / DataMsgs count tuple traffic; CtrlBytes / CtrlMsgs
	// count advertisements and subscriptions.
	DataBytes int64
	DataMsgs  int64
	CtrlBytes int64
	CtrlMsgs  int64
}

// linkKey orders a node pair canonically.
type linkKey struct{ a, b int }

func mkLinkKey(a, b int) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// SimClient is an endpoint attached to a broker in a SimNet: a source, a
// processor, or a user proxy.
type SimClient struct {
	net   *SimNet
	Node  int
	iface IfaceID
	// OnTuple receives tuples delivered to this client (nil to discard).
	OnTuple func(stream.Tuple)
}

// Iface returns the broker interface this client occupies — needed to
// withdraw subscriptions via Broker.Unsubscribe.
func (c *SimClient) Iface() IfaceID { return c.iface }

// SetOnTuple installs the delivery callback, mirroring LiveClient so the
// system layer can assemble against either transport.
func (c *SimClient) SetOnTuple(fn func(stream.Tuple)) { c.OnTuple = fn }

// Close stops delivery to this client, mirroring LiveClient (SimClients
// hold no resources beyond the callback).
func (c *SimClient) Close() { c.OnTuple = nil }

// endpoint describes where one broker interface leads.
type endpoint struct {
	isClient bool
	client   *SimClient
	peerNode int
	link     linkKey
}

// event is one in-flight message.
type event struct {
	node  int
	from  IfaceID
	kind  int // 0 data, 1 subscribe, 2 advertise
	tuple stream.Tuple
	prof  *profile.Profile
	name  string
}

// SimNet is a deterministic, synchronous CBN over an overlay: messages
// are processed in FIFO order until quiescence, and per-link traffic is
// accounted. It is single-threaded by design (determinism for the
// experiments); LiveNet provides the concurrent variant.
type SimNet struct {
	brokers   []*Broker
	endpoints []map[IfaceID]endpoint
	nextIface []IfaceID
	links     map[linkKey]*LinkStats
	// queue/qhead form a FIFO with an explicit head index: consuming an
	// event advances qhead instead of re-slicing, so a long cascade does
	// not strand the consumed prefix behind the slice header, and the
	// backing array is reused once drained.
	queue []event
	qhead int
	// reverse maps an outgoing (node, iface) to the arrival iface on the
	// peer broker.
	reverse map[route]IfaceID
	// metrics, when non-nil, observes the route stage (nil-safe).
	metrics *obs.Metrics
	// ctrlErr retains the first control-plane drain failure (advert or
	// subscription cascade), since Advertise/Subscribe have no error
	// return; Err surfaces it instead of letting it vanish.
	ctrlErr error
}

// Err reports the first control-plane failure (a failed advertisement
// or subscription flood) observed by this network, or nil.
func (n *SimNet) Err() error { return n.ctrlErr }

// SetMetrics attaches the observability hub; each broker routing hop
// counts one route-stage event (sampled for latency) against it.
func (n *SimNet) SetMetrics(m *obs.Metrics) { n.metrics = m }

// NewSimNet builds a network of n brokers with no links.
func NewSimNet(n int) *SimNet {
	net := &SimNet{
		brokers:   make([]*Broker, n),
		endpoints: make([]map[IfaceID]endpoint, n),
		nextIface: make([]IfaceID, n),
		links:     map[linkKey]*LinkStats{},
		reverse:   map[route]IfaceID{},
	}
	for i := 0; i < n; i++ {
		net.brokers[i] = NewBroker(i)
		net.endpoints[i] = map[IfaceID]endpoint{}
	}
	return net
}

// NewSimNetFromTree builds a network whose links mirror a dissemination
// tree's edges.
func NewSimNetFromTree(t *overlay.Tree) *SimNet {
	net := NewSimNet(t.NumNodes())
	for v := 0; v < t.NumNodes(); v++ {
		if v == t.Root {
			continue
		}
		net.AddLink(v, t.Parent[v], t.LinkDelay[v])
	}
	return net
}

// NumNodes returns the broker count.
func (n *SimNet) NumNodes() int { return len(n.brokers) }

// Broker exposes a node's broker (for tests and inspection).
func (n *SimNet) Broker(node int) *Broker { return n.brokers[node] }

// allocIface claims the next interface ID on a node.
func (n *SimNet) allocIface(node int) IfaceID {
	id := n.nextIface[node]
	n.nextIface[node]++
	n.brokers[node].AttachIface(id)
	return id
}

// AddLink joins two brokers with an undirected overlay link.
func (n *SimNet) AddLink(a, b int, delayMs float64) {
	key := mkLinkKey(a, b)
	if _, dup := n.links[key]; dup {
		return
	}
	n.links[key] = &LinkStats{A: key.a, B: key.b, DelayMs: delayMs}
	ia := n.allocIface(a)
	ib := n.allocIface(b)
	n.endpoints[a][ia] = endpoint{peerNode: b, link: key}
	n.endpoints[b][ib] = endpoint{peerNode: a, link: key}
	// Remember the reverse interface for delivery addressing.
	n.reverse[route{a, ia}] = ib
	n.reverse[route{b, ib}] = ia
}

type route struct {
	node  int
	iface IfaceID
}

// AttachClient attaches a client endpoint to a node.
func (n *SimNet) AttachClient(node int) *SimClient {
	c := &SimClient{net: n, Node: node, iface: n.allocIface(node)}
	n.endpoints[node][c.iface] = endpoint{isClient: true, client: c}
	return c
}

// Advertise announces a stream from this client's node; the advert floods
// the overlay.
func (c *SimClient) Advertise(streamName string) {
	c.net.enqueue(event{node: c.Node, from: c.iface, kind: 2, name: streamName})
	if err := c.net.drain(); err != nil && c.net.ctrlErr == nil {
		c.net.ctrlErr = err
	}
}

// Subscribe submits a data-interest profile from this client.
func (c *SimClient) Subscribe(p *profile.Profile) {
	c.net.enqueue(event{node: c.Node, from: c.iface, kind: 1, prof: p})
	if err := c.net.drain(); err != nil && c.net.ctrlErr == nil {
		c.net.ctrlErr = err
	}
}

// Publish injects a datagram from this client.
func (c *SimClient) Publish(t stream.Tuple) error {
	c.net.enqueue(event{node: c.Node, from: c.iface, kind: 0, tuple: t})
	return c.net.drain()
}

func (n *SimNet) enqueue(e event) { n.queue = append(n.queue, e) }

// drainCompactThreshold is the consumed-prefix length past which drain
// compacts mid-cascade; a variable so tests can lower it.
var drainCompactThreshold = 1024

// drain processes queued events to quiescence.
func (n *SimNet) drain() error {
	for n.qhead < len(n.queue) {
		// Compact once the consumed prefix dominates the queue, bounding
		// memory during unboundedly long cascades.
		if n.qhead >= drainCompactThreshold && n.qhead*2 >= len(n.queue) {
			n.compactQueue()
		}
		e := n.queue[n.qhead]
		n.queue[n.qhead] = event{} // release tuple/profile references
		n.qhead++
		if err := n.process(e); err != nil {
			n.compactQueue()
			return err
		}
	}
	n.queue = n.queue[:0]
	n.qhead = 0
	return nil
}

// compactQueue drops the consumed prefix, keeping pending events.
func (n *SimNet) compactQueue() {
	if n.qhead == 0 {
		return
	}
	m := copy(n.queue, n.queue[n.qhead:])
	for i := m; i < len(n.queue); i++ {
		n.queue[i] = event{}
	}
	n.queue = n.queue[:m]
	n.qhead = 0
}

func (n *SimNet) process(e event) error {
	b := n.brokers[e.node]
	switch e.kind {
	case 0: // data
		start := n.metrics.StageStart(obs.StageRoute)
		deliveries, err := b.RouteTuple(e.tuple, e.from)
		n.metrics.StageEnd(obs.StageRoute, start)
		n.metrics.TraceMark(int64(e.tuple.Ts), obs.StageRoute)
		if err != nil {
			return err
		}
		for _, d := range deliveries {
			ep, ok := n.endpoints[e.node][d.Iface]
			if !ok {
				return fmt.Errorf("cbn: node %d has no endpoint for iface %d", e.node, d.Iface)
			}
			if ep.isClient {
				if ep.client.OnTuple != nil {
					ep.client.OnTuple(d.Tuple)
				}
				continue
			}
			ls := n.links[ep.link]
			ls.DataMsgs++
			ls.DataBytes += int64(d.Tuple.WireSize() + DataHeaderBytes)
			n.enqueue(event{node: ep.peerNode, from: n.peerIface(e.node, d.Iface), kind: 0, tuple: d.Tuple})
		}
	case 1: // subscribe
		for _, fw := range b.HandleSubscribe(e.prof, e.from) {
			ep := n.endpoints[e.node][fw.Iface]
			if ep.isClient {
				continue // clients do not route subscriptions
			}
			ls := n.links[ep.link]
			ls.CtrlMsgs++
			ls.CtrlBytes += int64(profileWireSize(fw.Prof))
			n.enqueue(event{node: ep.peerNode, from: n.peerIface(e.node, fw.Iface), kind: 1, prof: fw.Prof})
		}
	case 2: // advertise
		adverts, subs := b.HandleAdvertise(e.name, e.from)
		for _, a := range adverts {
			ep := n.endpoints[e.node][a.Iface]
			if ep.isClient {
				continue
			}
			ls := n.links[ep.link]
			ls.CtrlMsgs++
			ls.CtrlBytes += int64(AdvertBytes + len(a.Stream))
			n.enqueue(event{node: ep.peerNode, from: n.peerIface(e.node, a.Iface), kind: 2, name: a.Stream})
		}
		for _, fw := range subs {
			ep := n.endpoints[e.node][fw.Iface]
			if ep.isClient {
				continue
			}
			ls := n.links[ep.link]
			ls.CtrlMsgs++
			ls.CtrlBytes += int64(profileWireSize(fw.Prof))
			n.enqueue(event{node: ep.peerNode, from: n.peerIface(e.node, fw.Iface), kind: 1, prof: fw.Prof})
		}
	}
	return nil
}

// peerIface resolves the arrival interface on the peer for a message sent
// out of (node, iface).
func (n *SimNet) peerIface(node int, iface IfaceID) IfaceID {
	return n.reverse[route{node, iface}]
}

// SetCatalog installs a stream catalog on every broker as the
// schema-drift guard for compiled routing.
func (n *SimNet) SetCatalog(reg *stream.Registry) {
	for _, b := range n.brokers {
		b.SetCatalog(reg)
	}
}

// PruneStream garbage-collects a retired stream's state on every broker
// (simulating the TTL expiry of a long-running deployment).
func (n *SimNet) PruneStream(name string) {
	for _, b := range n.brokers {
		b.PruneStream(name)
	}
}

// Stats returns per-link counters sorted by (A, B).
func (n *SimNet) Stats() []*LinkStats {
	out := make([]*LinkStats, 0, len(n.links))
	for _, ls := range n.links {
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TotalDataBytes sums tuple traffic over all links.
func (n *SimNet) TotalDataBytes() int64 {
	var total int64
	for _, ls := range n.links {
		total += ls.DataBytes
	}
	return total
}

// profileWireSize estimates a subscription message's size.
func profileWireSize(p *profile.Profile) int {
	size := SubscribeBaseSize
	for _, s := range p.Streams {
		size += len(s)
		if attrs := p.AttrsFor(s); attrs != nil {
			size += AttrNameBytes * len(attrs)
		}
		for _, cj := range p.FilterFor(s) {
			size += ConstraintBytes * len(cj)
		}
	}
	return size
}
