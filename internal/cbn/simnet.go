package cbn

import (
	"cosmos/internal/overlay"
	"cosmos/internal/stream"
)

// SimClient is an endpoint attached to a broker in a SimNet: a source, a
// processor, or a user proxy.
type SimClient struct {
	endpoint
	net *SimNet
	// OnTuple receives tuples delivered to this client (nil to discard):
	// each covered tuple in the layout its broker routed it, every column
	// the demand names and perhaps more (only links project), with values
	// shared with the routed tuple; bind columns by name, never write them.
	OnTuple func(stream.Tuple)
}

// SetOnTuple installs the delivery callback, mirroring LiveClient so the
// system layer can assemble against either transport.
func (c *SimClient) SetOnTuple(fn func(stream.Tuple)) { c.OnTuple = fn }

// Close withdraws the client's demand and detaches it: its broker stops
// delivering to it.
func (c *SimClient) Close() {
	c.SetDemand(nil)
	c.net.detach(c.Node, c.iface)
}

func (c *SimClient) receive(t stream.Tuple) {
	if c.OnTuple != nil {
		c.OnTuple(t)
	}
}

// event is one queued message and the node it is at.
type event struct {
	node int
	message
}

// SimNet runs a Fabric deterministically on the caller's goroutine: a
// client's message, and every message it causes, is processed in FIFO
// order until the network is quiet, before the call returns. It is
// single-threaded by design (determinism for the experiments), so its
// callers serialise — core.System does so under its own lock. LiveNet
// runs the same fabric concurrently.
type SimNet struct {
	Fabric
	// queue/qhead form a FIFO with an explicit head index: consuming an
	// event advances qhead instead of re-slicing, so a long cascade does
	// not strand the consumed prefix behind the slice header, and the
	// backing array is reused once drained.
	queue []event
	qhead int
	// forward queues a message at a node; built once, so routing
	// allocates no closure per message.
	forward func(node int, m message)
	// scratch holds one delivery slice per nesting depth of run, which
	// routing recycles. A delivery callback that publishes re-enters run
	// one level deeper, so it never touches the slice an outer step is
	// still passing on.
	scratch [][]Delivery
	depth   int
	// slab is the one gapped link projections are cut from, at every
	// depth: steps run one at a time, serialised by whoever drives the
	// net.
	slab stream.Slab
	// ctrlErr retains the first control-plane drain failure (advert or
	// demand cascade), since Advertise, SetDemand and Subscribe have no
	// error return; Err surfaces it instead of letting it vanish.
	ctrlErr error
}

// Err reports the first control-plane failure (a failed advertisement
// or demand cascade) observed by this network, or nil.
func (n *SimNet) Err() error { return n.ctrlErr }

// NewSimNet builds a network of n brokers with no links.
func NewSimNet(n int) *SimNet {
	net := &SimNet{Fabric: newFabric(n)}
	net.forward = func(node int, m message) {
		net.queue = append(net.queue, event{node: node, message: m})
	}
	return net
}

// NewSimNetFromTree builds a network whose links mirror a dissemination
// tree's edges.
func NewSimNetFromTree(t *overlay.Tree) *SimNet {
	net := NewSimNet(t.NumNodes())
	for v := 0; v < t.NumNodes(); v++ {
		if v != t.Root {
			net.AddLink(v, t.Parent[v], t.LinkDelay[v])
		}
	}
	return net
}

// AddLink joins two brokers with an undirected overlay link.
func (n *SimNet) AddLink(a, b int, delayMs float64) { n.addLink(a, b, delayMs) }

// AttachClient attaches a client endpoint to a node.
func (n *SimNet) AttachClient(node int) *SimClient {
	c := &SimClient{endpoint: endpoint{Node: node, control: n.control}, net: n}
	c.iface = n.attach(node, hop{client: c})
	return c
}

// Publish injects a datagram from this client. The error is the first
// routing error the cascade met; the rest of the cascade still runs.
func (c *SimClient) Publish(t stream.Tuple) error {
	return c.net.run(c.Node, message{from: c.iface, kind: msgData, tuple: t})
}

// control runs a control message, keeping the first failure for Err.
func (n *SimNet) control(node int, m message) {
	if err := n.run(node, m); err != nil && n.ctrlErr == nil {
		n.ctrlErr = err
	}
}

// drainCompactThreshold is the consumed-prefix length past which run
// compacts mid-cascade; a variable so tests can lower it.
var drainCompactThreshold = 1024

// run injects a message at node and processes queued messages until the
// network is quiet, returning the first routing error. A delivery
// callback that publishes re-enters run, which drains the queue from
// where it stands with its own scratch; the outer loop then finds the
// queue empty.
func (n *SimNet) run(node int, m message) error {
	n.forward(node, m)
	depth := n.depth
	if depth == len(n.scratch) {
		n.scratch = append(n.scratch, nil)
	}
	n.depth++
	defer func() { n.depth-- }()
	scratch := n.scratch[depth]
	var first error
	for n.qhead < len(n.queue) {
		// Compact once the consumed prefix dominates the queue, bounding
		// memory during unboundedly long cascades.
		if n.qhead >= drainCompactThreshold && n.qhead*2 >= len(n.queue) {
			n.compactQueue()
		}
		e := n.queue[n.qhead]
		n.queue[n.qhead] = event{} // release tuple/profile references
		n.qhead++
		if err := n.step(e.node, e.message, &scratch, &n.slab, n.forward); err != nil && first == nil {
			first = err
		}
	}
	n.scratch[depth] = scratch
	n.queue = n.queue[:0]
	n.qhead = 0
	return first
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
