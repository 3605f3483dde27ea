package cbn

import (
	"fmt"
	"log"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"cosmos/internal/obs"
	"cosmos/internal/overlay"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// LiveNet runs each broker on its own goroutine — the concurrent
// counterpart of SimNet used by core.LiveSystem and the examples.
// Protocol behaviour is identical: both drive the same Broker logic, so
// SimNet remains the deterministic differential reference for
// everything LiveNet delivers.
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
//   - Broker-to-broker forwarding is elastic: each node's mailbox grows
//     as needed and a broker never blocks sending to a peer. Brokers
//     therefore always make progress, which rules out the routing
//     deadlock that bounded links would allow the moment traffic flows
//     both ways across a tree edge (data up toward processors, results
//     down toward users). This mirrors SimNet, whose event queue is
//     also unbounded; per-link credit flow control is future work.
//   - Client egress is elastic: deliveries to a client are queued on an
//     unbounded per-client buffer and handed to the client's callback by
//     a dedicated pump goroutine, in arrival order. A slow client never
//     stalls a broker, which breaks the cycle broker → processor ingest
//     → worker → broker that synchronous delivery would close into a
//     deadlock.
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
	brokers []*Broker
	nodes   []*liveNode

	inboxCap int

	mu      sync.Mutex
	clients []*LiveClient // guarded by mu
	started bool          // guarded by mu
	stopped bool          // guarded by mu
	wg      sync.WaitGroup
	quit    chan struct{}

	stopping atomic.Bool

	// links holds one atomic counter block per undirected overlay link,
	// shared by both direction endpoints; Stats snapshots them.
	links []*liveLinkStats

	// pending counts messages accepted but not yet fully processed —
	// including client deliveries queued on a pump. injected counts every
	// client injection ever accepted; together they let Quiesce callers
	// detect stabilisation (see core.LiveSystem.Quiesce).
	pending  atomic.Int64
	injected atomic.Int64
	idle     chan struct{}

	// metrics, when non-nil, observes the route stage (nil-safe).
	metrics *obs.Metrics
}

// SetMetrics attaches the observability hub; each broker routing hop
// counts one route-stage event (sampled for latency) against it. Call
// before Start.
func (n *LiveNet) SetMetrics(m *obs.Metrics) { n.metrics = m }

// QueueDepths gauges each node's mailbox backlog at snapshot time.
func (n *LiveNet) QueueDepths() []int {
	out := make([]int, len(n.nodes))
	for i, nd := range n.nodes {
		nd.mu.Lock()
		out[i] = len(nd.queue)
		nd.mu.Unlock()
	}
	return out
}

// liveNode is one node's mailbox and attachment state.
type liveNode struct {
	net *LiveNet

	// epMu guards the attachment maps so clients can attach while broker
	// goroutines route concurrently.
	epMu      sync.RWMutex
	endpoints map[IfaceID]liveEndpoint // guarded by epMu
	// reverse maps an outgoing iface to the arrival iface on the peer.
	// Guarded by epMu.
	reverse   map[IfaceID]IfaceID
	nextIface IfaceID // guarded by epMu

	// scratch is the delivery buffer RouteTupleInto recycles; owned by
	// the node's single event-loop goroutine, never shared.
	scratch []Delivery

	// mu/cond guard the elastic mailbox the node's broker drains.
	mu    sync.Mutex
	cond  *sync.Cond
	queue []liveMsg // guarded by mu
	// dead marks a node whose broker goroutine exited after a panic;
	// messages routed to it are black-holed with their accounting
	// settled, so the rest of the network keeps running and quiescing.
	// Guarded by mu.
	dead bool

	// credits bounds the node's backlog of client-injected messages:
	// inject acquires, the broker releases after processing.
	credits chan struct{}
}

// push appends to the node's mailbox and wakes its broker; never blocks.
// Pushes to a dead node settle the message's accounting (credit and
// pending count) and drop it — black-hole semantics, as any CBN shows
// for a failed broker.
func (nd *liveNode) push(m liveMsg) {
	nd.mu.Lock()
	if nd.dead {
		nd.mu.Unlock()
		if m.credit {
			<-nd.credits
		}
		nd.net.done()
		return
	}
	nd.queue = append(nd.queue, m)
	nd.cond.Signal()
	nd.mu.Unlock()
}

type liveEndpoint struct {
	isClient bool
	client   *LiveClient
	peerNode int
	// link is the undirected counter block of the overlay link this
	// endpoint sends over; nil for client endpoints.
	link *liveLinkStats
}

// liveLinkStats accumulates one undirected link's traffic counters.
// Brokers on both ends increment concurrently, hence the atomics; Stats
// snapshots them into the LinkStats shape SimNet reports.
type liveLinkStats struct {
	a, b      int
	dataBytes atomic.Int64
	dataMsgs  atomic.Int64
	ctrlBytes atomic.Int64
	ctrlMsgs  atomic.Int64
}

type liveMsg struct {
	from  IfaceID
	kind  int // 0 data, 1 subscribe, 2 advertise
	tuple stream.Tuple
	prof  *profile.Profile
	name  string
	// credit marks a client-injected message whose ingress credit the
	// broker returns after processing.
	credit bool
}

// LiveClient is a client endpoint of a LiveNet: a source, a processor
// ingress/egress port, or a user proxy. Publish/Advertise/Subscribe are
// safe for concurrent use; deliveries arrive on the client's pump
// goroutine, one at a time, in arrival order. The pump starts lazily on
// the first callback installation or delivery, so publish-only clients
// (e.g. per-worker egress) park no goroutine.
type LiveClient struct {
	net   *LiveNet
	Node  int
	iface IfaceID

	mu      sync.Mutex
	cond    *sync.Cond
	onTuple func(stream.Tuple) // guarded by mu
	queue   []stream.Tuple     // guarded by mu
	running bool               // guarded by mu
	closed  bool               // guarded by mu
	stopped chan struct{}      // guarded by mu
}

// SetOnTuple installs the delivery callback; safe to call concurrently.
func (c *LiveClient) SetOnTuple(fn func(stream.Tuple)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onTuple = fn
	if fn != nil {
		c.ensurePumpLocked()
	}
}

// ensurePumpLocked starts the delivery pump once. Callers hold c.mu.
func (c *LiveClient) ensurePumpLocked() {
	if !c.running && !c.closed {
		c.running = true
		go c.pump()
	}
}

// Iface returns the broker interface this client occupies — needed to
// withdraw subscriptions via Broker.Unsubscribe.
func (c *LiveClient) Iface() IfaceID { return c.iface }

// enqueue hands a delivery to the client's pump.
func (c *LiveClient) enqueue(t stream.Tuple) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.net.pending.Add(1)
	c.queue = append(c.queue, t)
	c.ensurePumpLocked()
	c.cond.Signal()
	c.mu.Unlock()
}

// pump is the client's delivery loop: it drains the elastic queue and
// invokes the callback outside the client lock, marking each delivery
// done for quiescence accounting only after the callback returns.
func (c *LiveClient) pump() {
	defer close(c.stopped)
	// Double-buffer the queue: the drained batch is zeroed and swapped
	// back in as the next fill buffer, so steady-state delivery does
	// not reallocate the queue every cycle.
	var spare []stream.Tuple
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			dropped := len(c.queue)
			c.queue = nil
			c.mu.Unlock()
			for i := 0; i < dropped; i++ {
				c.net.done()
			}
			return
		}
		batch := c.queue
		c.queue = spare
		fn := c.onTuple
		c.mu.Unlock()
		for i, t := range batch {
			if fn != nil && !c.deliverSafe(fn, t) {
				// The callback panicked: settle the rest of the batch,
				// fail this client only, and loop back so the closed
				// branch drains whatever queued meanwhile and exits.
				for range batch[i:] {
					c.net.done()
				}
				c.fail()
				break
			}
			c.net.done()
		}
		for i := range batch {
			batch[i] = stream.Tuple{} // drop refs before recycling
		}
		spare = batch[:0]
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

// fail closes the client after a callback panic and detaches it from
// its node, so the broker stops delivering to it. The failure domain is
// this one client; brokers and other clients are unaffected.
func (c *LiveClient) fail() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	nd := c.net.nodes[c.Node]
	nd.epMu.Lock()
	delete(nd.endpoints, c.iface)
	nd.epMu.Unlock()
}

// shutdown closes the client, dropping queued deliveries. When wait is
// set it blocks until a running pump has exited (used by LiveNet.Stop,
// which guarantees no goroutine outlives it); callers that may hold
// locks a delivery callback could need pass wait=false.
func (c *LiveClient) shutdown(wait bool) {
	c.mu.Lock()
	if c.closed {
		running := c.running
		c.mu.Unlock()
		if wait && running {
			<-c.stopped // pump may still be winding down after fail()
		}
		return
	}
	c.closed = true
	running := c.running
	var dropped int
	if !running {
		// No pump to drain the queue; settle accounting here.
		dropped = len(c.queue)
		c.queue = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if running {
		if wait {
			<-c.stopped // the pump drops and settles its queue on exit
		}
		return
	}
	for i := 0; i < dropped; i++ {
		c.net.done()
	}
}

// stop shuts the pump down and waits for it; used by LiveNet.Stop.
func (c *LiveClient) stop() { c.shutdown(true) }

// Close detaches the client: the broker stops delivering to it, its
// pump (if any) winds down, and queued deliveries are dropped. It does
// not wait for an in-flight delivery callback, so it is safe to call
// while holding locks the callback might need. Publish after Close
// still works until the network stops; idempotent and safe while
// brokers route concurrently.
func (c *LiveClient) Close() {
	nd := c.net.nodes[c.Node]
	nd.epMu.Lock()
	delete(nd.endpoints, c.iface)
	nd.epMu.Unlock()
	c.shutdown(false)
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
		brokers:  make([]*Broker, n),
		nodes:    make([]*liveNode, n),
		inboxCap: 1024,
		quit:     make(chan struct{}),
		idle:     make(chan struct{}, 1),
	}
	for _, opt := range opts {
		opt(net)
	}
	for i := 0; i < n; i++ {
		net.brokers[i] = NewBroker(i)
		nd := &liveNode{
			net:       net,
			endpoints: map[IfaceID]liveEndpoint{},
			reverse:   map[IfaceID]IfaceID{},
			credits:   make(chan struct{}, net.inboxCap),
		}
		nd.cond = sync.NewCond(&nd.mu)
		net.nodes[i] = nd
	}
	return net
}

// NewLiveNetFromTree builds a network whose links mirror a dissemination
// tree's edges — the live counterpart of NewSimNetFromTree (LiveNet does
// not model link delays).
func NewLiveNetFromTree(t *overlay.Tree, opts ...LiveNetOption) *LiveNet {
	net := NewLiveNet(t.NumNodes(), opts...)
	for v := 0; v < t.NumNodes(); v++ {
		if v != t.Root {
			// Links precede Start by construction; the error is impossible.
			_ = net.AddLink(v, t.Parent[v])
		}
	}
	return net
}

// NumNodes returns the broker count.
func (n *LiveNet) NumNodes() int { return len(n.brokers) }

// allocIface claims the next interface on a node. Callers hold nd.epMu.
func (n *LiveNet) allocIface(node int) IfaceID {
	nd := n.nodes[node]
	id := nd.nextIface
	nd.nextIface++
	n.brokers[node].AttachIface(id)
	return id
}

// AddLink joins two brokers; links are topology and must be in place
// before Start.
func (n *LiveNet) AddLink(a, b int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("cbn: cannot add links after Start")
	}
	na, nb := n.nodes[a], n.nodes[b]
	na.epMu.Lock()
	ia := n.allocIface(a)
	na.epMu.Unlock()
	nb.epMu.Lock()
	ib := n.allocIface(b)
	nb.epMu.Unlock()
	ls := &liveLinkStats{a: a, b: b}
	if ls.a > ls.b {
		ls.a, ls.b = ls.b, ls.a
	}
	n.links = append(n.links, ls)
	na.epMu.Lock()
	na.endpoints[ia] = liveEndpoint{peerNode: b, link: ls}
	na.reverse[ia] = ib
	na.epMu.Unlock()
	nb.epMu.Lock()
	nb.endpoints[ib] = liveEndpoint{peerNode: a, link: ls}
	nb.reverse[ib] = ia
	nb.epMu.Unlock()
	return nil
}

// AttachClient attaches a client endpoint at a node; safe before or
// after Start, and while brokers route concurrently.
func (n *LiveNet) AttachClient(node int) (*LiveClient, error) {
	if node < 0 || node >= len(n.brokers) {
		return nil, fmt.Errorf("cbn: node %d out of range", node)
	}
	c := &LiveClient{net: n, Node: node, stopped: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	nd := n.nodes[node]
	nd.epMu.Lock()
	c.iface = n.allocIface(node)
	nd.endpoints[c.iface] = liveEndpoint{isClient: true, client: c}
	nd.epMu.Unlock()
	// The stopped check and the registration share one critical section,
	// so a client either lands in the list Stop tears down or is refused.
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		nd.epMu.Lock()
		delete(nd.endpoints, c.iface)
		nd.epMu.Unlock()
		return nil, fmt.Errorf("cbn: live network stopped")
	}
	n.clients = append(n.clients, c)
	n.mu.Unlock()
	return c, nil
}

// Start launches one goroutine per broker.
func (n *LiveNet) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.stopped {
		return
	}
	n.started = true
	for i := range n.brokers {
		n.wg.Add(1)
		go n.run(i)
	}
}

// Stop terminates the broker goroutines and client pumps and waits for
// them; queued messages and deliveries are dropped. Idempotent.
func (n *LiveNet) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	clients := n.clients
	n.mu.Unlock()
	n.stopping.Store(true)
	close(n.quit)
	for _, nd := range n.nodes {
		nd.mu.Lock()
		nd.cond.Broadcast()
		nd.mu.Unlock()
	}
	n.wg.Wait()
	for _, c := range clients {
		c.stop()
	}
}

// run is the per-broker event loop: drain the node mailbox FIFO,
// returning ingress credits as client-injected messages complete.
func (n *LiveNet) run(node int) {
	defer n.wg.Done()
	b := n.brokers[node]
	nd := n.nodes[node]
	// Double-buffer the mailbox: each drained batch is zeroed and
	// swapped back as the next fill buffer, so steady-state routing
	// does not reallocate the queue every drain cycle.
	var spare []liveMsg
	for {
		nd.mu.Lock()
		for len(nd.queue) == 0 && !n.stopping.Load() {
			nd.cond.Wait()
		}
		if n.stopping.Load() {
			nd.mu.Unlock()
			return
		}
		batch := nd.queue
		nd.queue = spare
		nd.mu.Unlock()
		for i, m := range batch {
			if !n.processSafe(b, node, m) {
				n.failNode(node, batch[i:])
				return
			}
			if m.credit {
				<-nd.credits
			}
			n.done()
		}
		for i := range batch {
			batch[i] = liveMsg{} // drop refs before recycling
		}
		spare = batch[:0]
	}
}

// processSafe runs one message through the broker, containing panics:
// a panicking broker reports false instead of taking the process down.
func (n *LiveNet) processSafe(b *Broker, node int, m liveMsg) (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("cbn: broker %d panicked (node failed): %v\n%s",
				node, rec, debug.Stack())
		}
	}()
	n.process(b, node, m)
	return true
}

// failNode marks a node dead after its broker panicked and settles the
// accounting of every message it will never process: the unprocessed
// tail of the current batch plus anything still queued. Later pushes
// and injections to the node are black-holed (see liveNode.push and
// inject), so the rest of the network keeps flowing and Quiesce still
// converges. The failure domain is the one broker: no other node,
// client or pump is affected.
func (n *LiveNet) failNode(node int, unsettled []liveMsg) {
	nd := n.nodes[node]
	nd.mu.Lock()
	nd.dead = true
	queued := nd.queue
	nd.queue = nil
	nd.mu.Unlock()
	settle := func(m liveMsg) {
		if m.credit {
			<-nd.credits
		}
		n.done()
	}
	for _, m := range unsettled {
		settle(m)
	}
	for _, m := range queued {
		settle(m)
	}
}

// process runs one message through the node's broker and forwards the
// consequences.
func (n *LiveNet) process(b *Broker, node int, m liveMsg) {
	switch m.kind {
	case 0:
		// The node's event loop is single-threaded, so the delivery
		// scratch slice is recycled across tuples: steady-state routing
		// allocates only the projected tuples themselves.
		nd := n.nodes[node]
		// Every broker loop records route events concurrently: stripe the
		// count by node so the counting stays uncontended.
		start := n.metrics.StageStartAt(obs.StageRoute, node)
		deliveries, err := b.RouteTupleInto(m.tuple, m.from, nd.scratch)
		n.metrics.StageEnd(obs.StageRoute, start)
		n.metrics.TraceMark(int64(m.tuple.Ts), obs.StageRoute)
		if err == nil {
			for _, d := range deliveries {
				n.emit(node, d.Iface, liveMsg{kind: 0, tuple: d.Tuple})
			}
		}
		for i := range deliveries {
			deliveries[i] = Delivery{} // drop tuple refs before recycling
		}
		if deliveries != nil {
			nd.scratch = deliveries
		}
	case 1:
		for _, fw := range b.HandleSubscribe(m.prof, m.from) {
			n.emit(node, fw.Iface, liveMsg{kind: 1, prof: fw.Prof})
		}
	case 2:
		adverts, subs := b.HandleAdvertise(m.name, m.from)
		for _, a := range adverts {
			n.emit(node, a.Iface, liveMsg{kind: 2, name: a.Stream})
		}
		for _, fw := range subs {
			n.emit(node, fw.Iface, liveMsg{kind: 1, prof: fw.Prof})
		}
	}
}

// emit routes an outgoing message to the proper peer mailbox or client
// pump; never blocks (both surfaces are elastic), so a broker always
// makes progress.
func (n *LiveNet) emit(node int, iface IfaceID, m liveMsg) {
	nd := n.nodes[node]
	nd.epMu.RLock()
	ep, ok := nd.endpoints[iface]
	rev := nd.reverse[iface]
	nd.epMu.RUnlock()
	if !ok {
		return
	}
	if ep.isClient {
		if m.kind == 0 {
			ep.client.enqueue(m.tuple)
		}
		return
	}
	// Broker-to-broker hop: account the message on its overlay link,
	// mirroring SimNet's per-link data/control split.
	switch m.kind {
	case 0:
		ep.link.dataMsgs.Add(1)
		ep.link.dataBytes.Add(int64(m.tuple.WireSize() + DataHeaderBytes))
	case 1:
		ep.link.ctrlMsgs.Add(1)
		ep.link.ctrlBytes.Add(int64(profileWireSize(m.prof)))
	case 2:
		ep.link.ctrlMsgs.Add(1)
		ep.link.ctrlBytes.Add(int64(AdvertBytes + len(m.name)))
	}
	m.from = rev
	n.pending.Add(1)
	n.nodes[ep.peerNode].push(m)
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
func (n *LiveNet) inject(node int, iface IfaceID, m liveMsg) bool {
	nd := n.nodes[node]
	nd.mu.Lock()
	dead := nd.dead
	nd.mu.Unlock()
	if dead {
		// The node's broker failed: black-hole the injection without
		// consuming a credit the dead broker would never return. Count
		// it so the Injected/Quiesce stabilisation test stays balanced.
		n.injected.Add(1)
		return true
	}
	select {
	case nd.credits <- struct{}{}:
	case <-n.quit:
		return false
	}
	m.from = iface
	m.credit = true
	n.injected.Add(1)
	n.pending.Add(1)
	nd.push(m)
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

// SetCatalog installs a stream catalog on every broker as the
// schema-drift guard for compiled routing.
func (n *LiveNet) SetCatalog(reg *stream.Registry) {
	for _, b := range n.brokers {
		b.SetCatalog(reg)
	}
}

// PruneStream garbage-collects a retired stream's state on every broker;
// safe while the network runs (the broker control plane is locked).
func (n *LiveNet) PruneStream(name string) {
	for _, b := range n.brokers {
		b.PruneStream(name)
	}
}

// Stats returns per-link counters sorted by (A, B) — the live
// counterpart of SimNet.Stats (LiveNet models no link delays, so DelayMs
// is zero). Each counter is read atomically, but the snapshot is not a
// consistent cut across links while traffic flows; call it after a
// Quiesce for exact readouts.
func (n *LiveNet) Stats() []*LinkStats {
	out := make([]*LinkStats, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, &LinkStats{
			A: l.a, B: l.b,
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

// TotalDataBytes sums tuple traffic over all overlay links, as
// SimNet.TotalDataBytes does; like Stats, it is exact after a Quiesce.
func (n *LiveNet) TotalDataBytes() int64 {
	var total int64
	for _, l := range n.links {
		total += l.dataBytes.Load()
	}
	return total
}

// Broker exposes a node's broker.
func (n *LiveNet) Broker(node int) *Broker { return n.brokers[node] }

// Advertise announces a stream from the client's node.
func (c *LiveClient) Advertise(streamName string) {
	c.net.inject(c.Node, c.iface, liveMsg{kind: 2, name: streamName})
}

// Subscribe submits a profile from the client's node.
func (c *LiveClient) Subscribe(p *profile.Profile) {
	c.net.inject(c.Node, c.iface, liveMsg{kind: 1, prof: p})
}

// Publish injects a datagram, blocking while the node's ingress credits
// are exhausted. The error reports only a stopped network; routing is
// asynchronous, so routing failures surface as dropped tuples, as in
// any CBN.
func (c *LiveClient) Publish(t stream.Tuple) error {
	if !c.net.inject(c.Node, c.iface, liveMsg{kind: 0, tuple: t}) {
		return fmt.Errorf("cbn: live network stopped")
	}
	return nil
}
