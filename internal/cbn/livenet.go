package cbn

import (
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cosmos/internal/handoff"
	"cosmos/internal/overlay"
	"cosmos/internal/stream"
)

// LiveNet runs each broker of a Fabric on its own goroutine — the
// concurrent counterpart of SimNet used by core.LiveSystem and the
// examples. Both schedule the same Fabric, so SimNet remains the
// deterministic differential reference for everything LiveNet delivers.
//
// # Ingress, egress and backpressure
//
// The three message surfaces have deliberately different elasticity:
//
//   - Client ingress is bounded by per-node credits (WithInboxCap,
//     default 1024): an injection holds a credit until the node's broker
//     has processed the message, so publishing into a node whose broker
//     has a full backlog blocks. That is the backpressure surface — a
//     slow broker throttles its publishers (e.g. exec.Runtime workers
//     emitting results) instead of dropping tuples or buffering them
//     without bound.
//   - Broker-to-broker forwarding is elastic: each node's mailbox is a
//     handoff.Queue, so it grows as needed and a broker never blocks
//     sending to a peer. Brokers therefore always make progress, which
//     rules out the routing deadlock that bounded links would allow the
//     moment traffic flows both ways across a tree edge (data up toward
//     processors, results down toward users). This mirrors SimNet,
//     whose event queue is also unbounded; per-link credit flow control
//     is future work.
//   - Client egress is elastic: deliveries to a client are queued on the
//     client's handoff.Queue and handed to its callback by a dedicated
//     pump goroutine, in arrival order. A slow client never stalls a
//     broker, which breaks the cycle broker → processor ingest → worker
//     → broker that synchronous delivery would close into a deadlock.
//
// Both elastic queues keep memory under handoff's one retention rule.
//
// Clients may attach at any time, before or after Start — core.LiveSystem
// attaches a client per source, processor and query proxy as they appear.
// Links are topology and must be in place before Start.
//
// # Ordering
//
// Per client, Publish calls are injected in call order, every node
// mailbox and overlay hop is FIFO, and the delivery pump preserves
// arrival order, so tuples published by one client reach any given
// subscriber in publish order. No order holds between different
// publishers.
type LiveNet struct {
	Fabric
	nodes []*liveNode
	// forward queues a message on a peer's mailbox; built once, so
	// routing allocates no closure per message.
	forward func(peer int, m message)

	inboxCap int

	mu      sync.Mutex
	started bool // guarded by mu
	stopped bool // guarded by mu
	wg      sync.WaitGroup
	// pumps counts running client pumps, closed clients' included.
	pumps sync.WaitGroup
	quit  chan struct{}

	stopping atomic.Bool

	// pending counts messages accepted but not yet fully processed —
	// including client deliveries queued on a pump. injected counts every
	// client injection ever accepted; together they let Quiesce callers
	// detect stabilisation (see core.LiveSystem.Quiesce).
	pending  atomic.Int64
	injected atomic.Int64
	idle     chan struct{}
}

// QueueDepths gauges each node's mailbox backlog at snapshot time.
func (n *LiveNet) QueueDepths() []int {
	out := make([]int, len(n.nodes))
	for i, nd := range n.nodes {
		out[i] = nd.q.Len()
	}
	return out
}

// liveNode is one node's mailbox.
type liveNode struct {
	net *LiveNet

	// scratch is the delivery buffer routing recycles, and slab the one
	// gapped link projections are cut from; both owned by the node's
	// single event-loop goroutine, never shared.
	scratch []Delivery
	slab    stream.Slab

	// q is the elastic mailbox the node's broker drains. It is closed
	// when the broker panics (or the net stops): messages routed to the
	// node from then on are black-holed with their accounting settled,
	// so the rest of the network keeps running and quiescing.
	q handoff.Queue[liveMsg]

	// credits bounds the node's backlog of client-injected messages:
	// inject acquires, the broker releases after processing.
	credits chan struct{}
}

// liveMsg is a message in a node's mailbox; credit marks a
// client-injected one, whose ingress credit the broker returns after
// processing it.
type liveMsg struct {
	message
	credit bool
}

// push appends to the node's mailbox and wakes its broker; never blocks.
// Pushes to a dead node settle the message's accounting (credit and
// pending count) and drop it — black-hole semantics, as any CBN shows
// for a failed broker.
func (nd *liveNode) push(m liveMsg) {
	if !nd.q.Push(m) {
		nd.settle(m)
	}
}

// settle returns a message's ingress credit, if it holds one, and marks
// it processed.
func (nd *liveNode) settle(m liveMsg) {
	if m.credit {
		<-nd.credits
	}
	nd.net.done()
}

// LiveClient is a client endpoint of a LiveNet: a source, a processor
// ingress/egress port, or a user proxy. Publish, Advertise, Unadvertise,
// SetDemand and Subscribe are safe for concurrent use; deliveries arrive
// on the client's pump goroutine, one at a time, in arrival order. The
// pump starts lazily on the first callback installation or delivery, so
// publish-only clients (e.g. per-worker egress) park no goroutine.
type LiveClient struct {
	endpoint
	net *LiveNet
	q   handoff.Queue[stream.Tuple] // deliveries the pump has not taken

	mu      sync.Mutex
	onTuple func(stream.Tuple) // guarded by mu
	running bool               // guarded by mu
	closed  bool               // guarded by mu
}

// SetOnTuple installs the delivery callback; safe to call concurrently.
// As with SimClient.OnTuple, a delivered tuple is the routed one, every
// column the demand names and perhaps more (only links project), with
// shared values: bind columns by name, never write them.
func (c *LiveClient) SetOnTuple(fn func(stream.Tuple)) {
	c.mu.Lock()
	c.onTuple = fn
	c.mu.Unlock()
	if fn != nil {
		c.startPump()
	}
}

// startPump starts the delivery pump once, unless the client is closed
// or the network stopped.
func (c *LiveClient) startPump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.running && !c.closed && c.net.addPump() {
		c.running = true
		go c.pump()
	}
}

// receive hands a delivery to the client's pump.
func (c *LiveClient) receive(t stream.Tuple) {
	c.net.pending.Add(1)
	if !c.q.Push(t) {
		c.net.done() // closed: dropped
		return
	}
	c.startPump()
}

// pump is the client's delivery loop: it invokes the callback on each
// taken delivery outside the client lock, marking each delivery done
// for quiescence accounting only after the callback returns. Once the
// client is closed it settles what is still queued without delivering
// it, and exits when the queue is drained.
func (c *LiveClient) pump() {
	defer c.net.pumps.Done()
	for {
		batch := c.q.Take()
		if len(batch) == 0 {
			return
		}
		c.mu.Lock()
		fn, closed := c.onTuple, c.closed
		c.mu.Unlock()
		for _, t := range batch {
			if fn != nil && !closed && !c.deliverSafe(fn, t) {
				// The callback panicked: fail this client only. The rest
				// of the batch and whatever queued meanwhile are settled
				// undelivered.
				c.shutdown()
				c.net.detach(c.Node, c.iface)
				closed = true
			}
			c.net.done()
		}
	}
}

// deliverSafe invokes the delivery callback, containing panics: a
// panicking consumer reports false instead of taking the process down.
func (c *LiveClient) deliverSafe(fn func(stream.Tuple), t stream.Tuple) (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("cbn: client delivery callback panicked (client failed): %v\n%s",
				rec, debug.Stack())
		}
	}()
	fn(t)
	return true
}

// shutdown closes the client, dropping queued deliveries: a running
// pump settles them on its way out, otherwise shutdown does. It does
// not wait for the pump; LiveNet.Stop does, through LiveNet.pumps.
func (c *LiveClient) shutdown() {
	c.mu.Lock()
	settle := !c.closed && !c.running // no pump ever starts now
	c.closed = true
	c.mu.Unlock()
	c.q.Close()
	if settle {
		for batch := c.q.TryTake(); len(batch) > 0; batch = c.q.TryTake() {
			for range batch {
				c.net.done()
			}
		}
	}
}

// Close withdraws the client's demand and detaches it: the broker stops
// delivering to it, its pump (if any) winds down, and queued deliveries
// are dropped. The withdrawal propagates asynchronously, like any
// demand update. Close does not wait for an in-flight delivery
// callback, so it is safe to call while holding locks the callback
// might need. Publish after Close still works until the network stops;
// idempotent and safe while brokers route concurrently.
func (c *LiveClient) Close() {
	c.SetDemand(nil)
	c.net.detach(c.Node, c.iface)
	c.shutdown()
}

// LiveNetOption configures a LiveNet at construction.
type LiveNetOption func(*LiveNet)

// WithInboxCap bounds each node's backlog of client-injected messages.
// Smaller caps apply backpressure sooner: a publisher into a node whose
// broker is that many messages behind blocks until it catches up. The
// default is 1024.
func WithInboxCap(c int) LiveNetOption {
	return func(n *LiveNet) {
		if c > 0 {
			n.inboxCap = c
		}
	}
}

// NewLiveNet builds a network of n brokers with no links.
func NewLiveNet(n int, opts ...LiveNetOption) *LiveNet {
	net := &LiveNet{
		Fabric:   newFabric(n),
		nodes:    make([]*liveNode, n),
		inboxCap: 1024,
		quit:     make(chan struct{}),
		idle:     make(chan struct{}, 1),
	}
	for _, opt := range opts {
		opt(net)
	}
	for i := range net.nodes {
		net.nodes[i] = &liveNode{net: net, credits: make(chan struct{}, net.inboxCap)}
	}
	net.forward = func(peer int, m message) {
		net.pending.Add(1)
		net.nodes[peer].push(liveMsg{message: m})
	}
	return net
}

// NewLiveNetFromTree builds a network whose links mirror a dissemination
// tree's edges, delays included — the live counterpart of
// NewSimNetFromTree.
func NewLiveNetFromTree(t *overlay.Tree, opts ...LiveNetOption) *LiveNet {
	net := NewLiveNet(t.NumNodes(), opts...)
	for v := 0; v < t.NumNodes(); v++ {
		if v != t.Root {
			net.addLink(v, t.Parent[v], t.LinkDelay[v])
		}
	}
	return net
}

// AddLink joins two brokers; links are topology and must be in place
// before Start.
func (n *LiveNet) AddLink(a, b int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("cbn: cannot add links after Start")
	}
	n.addLink(a, b, 0)
	return nil
}

// AttachClient attaches a client endpoint at a node; safe before or
// after Start, and while brokers route concurrently.
func (n *LiveNet) AttachClient(node int) (*LiveClient, error) {
	if node < 0 || node >= n.NumNodes() {
		return nil, fmt.Errorf("cbn: node %d out of range", node)
	}
	c := &LiveClient{net: n}
	// Control messages are injected like publishes: they wait for an
	// ingress credit, and the change propagates asynchronously.
	c.endpoint = endpoint{Node: node, control: func(node int, m message) { n.inject(node, m) }}
	// Attaching under n.mu puts a client in the interface table Stop
	// walks, or refuses it.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return nil, fmt.Errorf("cbn: live network stopped")
	}
	c.iface = n.attach(node, hop{client: c})
	return c, nil
}

// addPump counts a client pump about to start, refusing once the net
// has stopped: Stop waits for every pump counted.
func (n *LiveNet) addPump() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.stopped {
		n.pumps.Add(1)
	}
	return !n.stopped
}

// Start launches one goroutine per broker.
func (n *LiveNet) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.stopped {
		return
	}
	n.started = true
	for i := range n.nodes {
		n.wg.Add(1)
		go n.run(i)
	}
}

// Stop terminates the broker goroutines and client pumps and waits for
// them, closed clients' pumps included; queued messages and deliveries
// are dropped. Idempotent.
func (n *LiveNet) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	n.stopping.Store(true)
	close(n.quit)
	for _, nd := range n.nodes {
		nd.q.Close()
	}
	n.wg.Wait()
	for i := range n.tables {
		tb := &n.tables[i]
		tb.mu.RLock()
		for _, h := range tb.hops {
			if c, ok := h.client.(*LiveClient); ok {
				c.shutdown()
			}
		}
		tb.mu.RUnlock()
	}
	n.pumps.Wait()
}

// run is the per-broker event loop: drain the node mailbox FIFO,
// returning ingress credits as client-injected messages complete.
func (n *LiveNet) run(node int) {
	defer n.wg.Done()
	nd := n.nodes[node]
	for {
		batch := nd.q.Take()
		if len(batch) == 0 || n.stopping.Load() {
			return
		}
		for i, m := range batch {
			if !n.stepSafe(node, m.message) {
				n.failNode(node, batch[i:])
				return
			}
			nd.settle(m)
		}
	}
}

// stepSafe runs one message through the node's broker, containing
// panics: a panicking broker reports false instead of taking the process
// down. A routing error drops the tuple, as in any CBN: routing is
// asynchronous, so there is no caller to return it to.
func (n *LiveNet) stepSafe(node int, m message) (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("cbn: broker %d panicked (node failed): %v\n%s",
				node, rec, debug.Stack())
		}
	}()
	nd := n.nodes[node]
	_ = n.step(node, m, &nd.scratch, &nd.slab, n.forward)
	return true
}

// failNode marks a node dead after its broker panicked and settles the
// accounting of every message it will never process: the unprocessed
// tail of the current batch plus anything still queued. Later pushes
// and injections to the node are black-holed (see liveNode.push), so
// the rest of the network keeps flowing and Quiesce still converges.
// The failure domain is the one broker: no other node, client or pump
// is affected.
func (n *LiveNet) failNode(node int, unsettled []liveMsg) {
	nd := n.nodes[node]
	nd.q.Close()
	for _, m := range unsettled {
		nd.settle(m)
	}
	for batch := nd.q.TryTake(); len(batch) > 0; batch = nd.q.TryTake() {
		for _, m := range batch {
			nd.settle(m)
		}
	}
}

// done marks one message as fully processed and signals idleness.
func (n *LiveNet) done() {
	if n.pending.Add(-1) == 0 {
		select {
		case n.idle <- struct{}{}:
		default:
		}
	}
}

// inject submits a client-originated message, blocking while the node's
// ingress credits are exhausted (backpressure). It reports false once
// the net stops.
func (n *LiveNet) inject(node int, m message) bool {
	nd := n.nodes[node]
	select {
	case nd.credits <- struct{}{}:
	case <-n.quit:
		return false
	}
	n.injected.Add(1)
	n.pending.Add(1)
	nd.push(liveMsg{message: m, credit: true})
	return true
}

// Quiesce blocks until every accepted message — including client
// deliveries queued on pumps — has been fully processed. Only meaningful
// when no client is concurrently publishing; core.LiveSystem combines it
// with Injected to build a system-wide stabilisation barrier.
func (n *LiveNet) Quiesce() {
	for n.pending.Load() > 0 {
		select {
		case <-n.idle:
		case <-n.quit:
			return
		}
	}
}

// Injected returns the total number of client injections accepted so
// far. Two equal reads bracketing a Quiesce prove the network moved no
// new messages in between — the stabilisation test used by
// core.LiveSystem.Quiesce.
func (n *LiveNet) Injected() int64 { return n.injected.Load() }

// Publish injects a datagram, blocking while the node's ingress credits
// are exhausted. The error reports only a stopped network; routing is
// asynchronous, so routing failures surface as dropped tuples, as in
// any CBN.
func (c *LiveClient) Publish(t stream.Tuple) error {
	if !c.net.inject(c.Node, message{from: c.iface, kind: msgData, tuple: t}) {
		return fmt.Errorf("cbn: live network stopped")
	}
	return nil
}
