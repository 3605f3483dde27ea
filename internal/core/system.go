package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"cosmos/internal/cbn"
	"cosmos/internal/cql"
	"cosmos/internal/merge"
	"cosmos/internal/obs"
	"cosmos/internal/overlay"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

// edgesPerNode is the overlay's power-law attachment parameter;
// maxCandidates bounds the merging optimiser's candidate scan.
const edgesPerNode, maxCandidates = 2, 64

// Options configures a System.
type Options struct {
	// Nodes is the overlay size (default 64).
	Nodes int
	// Seed drives topology and placement randomness (deterministic).
	Seed int64
	// ProcessorNodes places processors explicitly; when empty,
	// Processors (default 1) nodes are drawn at random.
	ProcessorNodes []int
	Processors     int
	// Mode selects representative-predicate composition.
	Mode merge.Mode
	// Placement selects the query-distribution policy.
	Placement PlacementPolicy
	// Tree overrides topology generation with an explicit dissemination
	// tree (Nodes is then ignored). Used by experiments
	// that need an exact overlay shape, e.g. Figure 3.
	Tree *overlay.Tree
	// DisableMerging turns the query-merging optimiser off: every query
	// forms its own group (the "Non-Share" baseline of Figure 3).
	DisableMerging bool
	// CheckpointEvery captures plan state every N consumed tuples per
	// processor for query-layer fault tolerance; 0 disables periodic
	// checkpoints (FailProcessor then restarts plans cold).
	CheckpointEvery int
	// ExecWorkers sets each processor's execution-runtime worker-pool
	// size on a LiveSystem. 0 (default) runs plans inline on the
	// data-delivery goroutine — the only mode NewSystem accepts, since
	// the simulated network is single-threaded. > 0 runs the sharded
	// runtime: the processor's delivery pump enqueues each tuple on the
	// owning workers' queues, and the workers publish results straight
	// into the network. Per-plan (hence per-query) result order is
	// preserved; cross-query interleaving is not.
	ExecWorkers int
	// OnPlanError observes plan execution failures (schema drift between
	// the data layer and an installed plan); may be nil, and must be safe
	// for concurrent use when ExecWorkers > 0. Each processor also counts
	// them (Processor.PlanErrors). On the synchronous System it runs
	// inside a publish cascade, under the System lock, so it must not
	// call the System (FailProcessor included): that deadlocks. Hand such
	// work to another goroutine.
	OnPlanError func(procID int, planID string, err error)
	// Obs configures the observability plane shared by every component
	// of the system (stage counters, sampled latency histograms, tuple
	// tracing). The zero value means always-on counters, default latency
	// sampling (obs.DefaultSampleEvery), tracing off.
	Obs obs.Options
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 64
	}
	if o.Processors == 0 {
		o.Processors = 1
	}
	return o
}

// System is an in-process COSMOS deployment. The data layer is one
// cbn.Fabric scheduled either by the deterministic single-threaded
// SimNet (NewSystem) or by the concurrent LiveNet (NewLiveSystem); all
// query management, distribution, merging and delivery components are
// shared between the two transports.
//
// Every method is safe for concurrent use on either transport. The
// synchronous System serialises itself: a Publish runs its whole cascade
// — routing, plans, deliveries — under the lock its control operations
// hold, so callers need no lock of their own. Result callbacks and
// Options.OnPlanError run inside that cascade, so on the synchronous
// System they must not call back into it: sync.Mutex is not re-entrant,
// and such a call deadlocks. On a LiveSystem they run on pump or worker
// goroutines that hold no System lock.
type System struct {
	mu   sync.Mutex
	opts Options
	reg  *stream.Registry
	topo *topology.Graph
	tree *overlay.Tree
	// net is the overlay under either transport and attach hands out its
	// clients; live is the concurrent transport, nil on the synchronous
	// System.
	net    *cbn.Fabric
	attach func(node int) (netClient, error)
	live   *cbn.LiveNet
	obs    *obs.Metrics // the system-wide observability hub, never nil
	rng    *rand.Rand

	procs   []*Processor
	sources map[string]*SourcePort  // guarded by mu
	queries map[string]*QueryHandle // guarded by mu
	proxies map[proxyKey]*proxy     // guarded by mu
	nextQID int                     // guarded by mu
}

// ErrSyncWorkers is NewSystem's refusal of Options.ExecWorkers > 0: the
// synchronous System runs every plan inline, and a worker pool needs the
// concurrent network of NewLiveSystem.
var ErrSyncWorkers = errors.New("core: the synchronous System runs plans inline; ExecWorkers needs NewLiveSystem")

// NewSystem builds the overlay (power-law topology, MST dissemination
// tree), the simulated CBN, and the processors. The result is
// deterministic and single-threaded — the differential reference for
// LiveSystem. Plans run inline, so ExecWorkers > 0 is refused with
// ErrSyncWorkers.
func NewSystem(opts Options) (*System, error) {
	if opts.ExecWorkers > 0 {
		return nil, ErrSyncWorkers
	}
	return newSystem(opts, false)
}

func newSystem(opts Options, live bool) (*System, error) {
	opts = opts.withDefaults()
	var tree *overlay.Tree
	var g *topology.Graph // nil when an explicit tree is supplied
	if opts.Tree != nil {
		tree = opts.Tree
		opts.Nodes = tree.NumNodes()
	} else {
		var err error
		g, err = topology.GeneratePowerLaw(opts.Nodes, edgesPerNode, opts.Seed)
		if err != nil {
			return nil, err
		}
		tree, err = overlay.MST(g, 0)
		if err != nil {
			return nil, err
		}
	}
	s := &System{
		opts:    opts,
		reg:     stream.NewRegistry(),
		topo:    g,
		tree:    tree,
		obs:     obs.New(opts.Obs),
		rng:     rand.New(rand.NewSource(opts.Seed + 17)),
		sources: map[string]*SourcePort{},
		queries: map[string]*QueryHandle{},
		proxies: map[proxyKey]*proxy{},
	}
	if live {
		s.live = cbn.NewLiveNetFromTree(tree)
		s.net = &s.live.Fabric
		s.attach = func(node int) (netClient, error) { return s.live.AttachClient(node) }
	} else {
		sim := cbn.NewSimNetFromTree(tree)
		s.net = &sim.Fabric
		s.attach = func(node int) (netClient, error) { return sim.AttachClient(node), nil }
	}
	s.net.SetMetrics(s.obs)
	nodes := opts.ProcessorNodes
	if len(nodes) == 0 {
		for i := 0; i < opts.Processors; i++ {
			nodes = append(nodes, s.rng.Intn(opts.Nodes))
		}
	}
	fail := func(err error) (*System, error) {
		// Release what partial assembly started (client pumps, runtimes).
		for _, p := range s.procs {
			p.rt.Close()
		}
		if s.live != nil {
			s.live.Stop()
		}
		return nil, err
	}
	for i, node := range nodes {
		if node < 0 || node >= opts.Nodes {
			return fail(fmt.Errorf("core: processor node %d out of range", node))
		}
		p, err := newProcessor(s, i, node)
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, p)
	}
	if s.live != nil {
		s.live.Start()
	}
	return s, nil
}

// Catalog exposes the flooded schema registry.
func (s *System) Catalog() *stream.Registry { return s.reg }

// Tree exposes the dissemination tree (for inspection and examples).
func (s *System) Tree() *overlay.Tree { return s.tree }

// Processors lists the system's processors.
func (s *System) Processors() []*Processor { return s.procs }

// Obs exposes the system's observability hub (never nil): stage
// counters, sampled latency histograms and — when Options.Obs enabled
// it — the retained tuple traces.
func (s *System) Obs() *obs.Metrics { return s.obs }

// netClient is the client surface of the data layer a system component
// (source port, processor, delivery proxy) holds — satisfied by both
// cbn.SimClient (synchronous, deterministic) and cbn.LiveClient
// (concurrent). Publish must be safe for concurrent use on the live
// transport; on the simulated transport the single-threaded network
// imposes single-caller discipline, which System honours by running
// every plan inline on the publishing goroutine, under its lock.
type netClient interface {
	Advertise(streamName string)
	// Unadvertise retires an advertised stream once its last tuple is
	// published: every broker forgets the stream.
	Unadvertise(streamName string)
	// SetDemand replaces the attachment's whole demand (nil: none).
	SetDemand(p *profile.Profile)
	// Publish hands one tuple into the network. Both implementations
	// are audited ingest boundaries: SimClient routes synchronously
	// through the (hotpath-checked) broker, LiveClient enqueues on the
	// ingress ring under its credit budget.
	//
	//cosmos:hotpath-ok
	Publish(t stream.Tuple) error
	SetOnTuple(fn func(stream.Tuple))
	Iface() cbn.IfaceID
	// Close withdraws the attachment's demand and releases it (delivery
	// stops; on the live transport the pump goroutine and broker
	// endpoint are reclaimed).
	Close()
}

// SourcePort publishes one source stream into the data layer.
type SourcePort struct {
	Node   int
	info   *stream.Info
	client netClient
	obs    *obs.Metrics
	// serial is the synchronous System's lock, nil on the live one: a
	// publish there runs the network cascade and the plans inline, so it
	// serialises with every other operation that drives them.
	serial *sync.Mutex
	// errSchema is the rejection error for tuples that do not carry the
	// registered schema, precomputed so the Publish fast path never
	// formats.
	errSchema error
}

// Stream returns the name of the stream this port publishes.
func (p *SourcePort) Stream() string { return p.info.Schema.Stream }

// Schema returns the schema of the stream this port publishes.
func (p *SourcePort) Schema() *stream.Schema { return p.info.Schema }

// RegisterStream attaches a data source at a node: the schema is flooded
// into the catalog and the stream advertised through the CBN.
func (s *System) RegisterStream(info *stream.Info, node int) (*SourcePort, error) {
	if node < 0 || node >= s.opts.Nodes {
		return nil, fmt.Errorf("core: source node %d out of range", node)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	name := info.Schema.Stream
	if _, dup := s.sources[name]; dup {
		return nil, fmt.Errorf("core: stream %q already registered", name)
	}
	if err := s.reg.Register(info); err != nil {
		return nil, err
	}
	client, err := s.attach(node)
	if err != nil {
		return nil, err
	}
	port := &SourcePort{
		Node:      node,
		info:      info,
		client:    client,
		obs:       s.obs,
		errSchema: fmt.Errorf("core: tuple does not carry the registered schema %s", info.Schema),
	}
	if s.live == nil {
		port.serial = &s.mu
	}
	port.client.Advertise(name)
	s.sources[name] = port
	return port, nil
}

// Source returns the port of a registered source stream; sources stay
// registered for the system's lifetime, so the port is valid until then.
func (s *System) Source(name string) (*SourcePort, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.sources[name]
	return p, ok
}

// Publish injects one tuple of the port's stream. This is the data
// path's door: the tuple must carry the registered schema — the pointer,
// or a layout-equal copy — because everything downstream (routing
// tables, plan adapters, codecs) is compiled against that layout and has
// no name-resolved evaluator to fall back to.
//
//cosmos:hotpath
func (p *SourcePort) Publish(t stream.Tuple) error {
	if t.Schema != p.info.Schema && !p.info.Schema.Equal(t.Schema) {
		return p.errSchema
	}
	if p.serial != nil {
		p.serial.Lock()
		defer p.serial.Unlock()
	}
	// Ingest is the head of the data path: the trace sampler decides
	// here whether this tuple is followed, and the stage timing covers
	// the hand-off into the network client (on the live transport that
	// includes the ingress-credit wait — the backpressure signal).
	p.obs.TraceSample(int64(t.Ts), t.Schema.Stream)
	// Sources publish concurrently: stripe the count by attachment node.
	start := p.obs.StageStartAt(obs.StageIngest, p.Node)
	err := p.client.Publish(t)
	p.obs.StageEnd(obs.StageIngest, start)
	return err
}

// Submit registers a continuous query on behalf of a user attached at
// userNode. Results arrive on onResult with the query's own output
// schema (stream name = the returned handle's tag). The query is routed
// to a processor by the distribution policy, merged into a query group
// when beneficial, and its results re-tightened from the group's
// representative stream. It is SubmitTo with a sink of the query's own.
//
// A result's Values are shared with the routed tuple and the other
// subscribers of its delivery, so they are read-only: onResult may keep
// them but never write to them (Tuple.Clone gives a writable copy).
//
// onResult is called serially, under the query's delivery-proxy lock, so
// it must not cancel or submit a query of its own group on either
// transport. On the synchronous System it also runs under the System
// lock inside the publishing call, so it must not call the System at
// all (Cancel, Submit, Demand, a SourcePort's Publish, ...): that
// deadlocks. Hand such work to another goroutine; it runs once the
// publish returns.
func (s *System) Submit(text string, userNode int, onResult func(stream.Tuple)) (*QueryHandle, error) {
	return s.SubmitTo(text, userNode, &funcSink{fn: onResult}, nil)
}

// SubmitTo is Submit for a sink whose queries share delivery proxies:
// the query's results reach sink through the proxy of (sink, its group,
// userNode), where sub is handed back as the query's Member.Sub. The
// sink's Receiver obeys Submit's callback restrictions (see Receiver).
func (s *System) SubmitTo(text string, userNode int, sink Sink, sub any) (*QueryHandle, error) {
	if userNode < 0 || userNode >= s.opts.Nodes {
		return nil, fmt.Errorf("core: user node %d out of range", userNode)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bound, err := cql.AnalyzeString(text, s.reg)
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("q%05d", s.nextQID)
	s.nextQID++

	proc := s.place(bound, userNode)
	if proc == nil {
		return nil, fmt.Errorf("core: no processor alive")
	}
	h := &QueryHandle{
		Tag:      tag,
		UserNode: userNode,
		sys:      s,
		proc:     proc,
		bound:    bound,
		sink:     sink,
		sub:      sub,
	}
	s.queries[tag] = h

	gs, kept, err := proc.accept(tag, bound)
	if err != nil {
		delete(s.queries, tag)
		return nil, err
	}
	// A join that keeps the representative leaves every co-member's
	// binding exact: only the newcomer binds, and only its proxy's demand
	// changes. The second member is the exception, as the first leaves
	// the singleton binding (the plan's own layout) for the member one.
	if kept && len(gs.memberTags) > 2 {
		if err := h.refresh(gs, false); err != nil {
			return nil, fmt.Errorf("core: refreshing %s: %w", tag, err)
		}
		h.px.setDemand()
		return h, nil
	}
	if err := s.refreshGroupLocked(gs); err != nil {
		return nil, err
	}
	return h, nil
}

// refreshGroupLocked rebuilds delivery state for every member of a group
// after its representative (or result schema) changed, then sets the
// demand of each proxy the members use, once, in member order.
func (s *System) refreshGroupLocked(gs *groupState) error {
	singleton := len(gs.memberTags) == 1
	var proxies []*proxy // in member order, for a deterministic cascade
	seen := map[*proxy]bool{}
	for _, tag := range gs.memberTags {
		h, ok := s.queries[tag]
		if !ok {
			continue
		}
		if err := h.refresh(gs, singleton); err != nil {
			return fmt.Errorf("core: refreshing %s: %w", tag, err)
		}
		if !seen[h.px] {
			seen[h.px] = true
			proxies = append(proxies, h.px)
		}
	}
	for _, px := range proxies {
		px.setDemand()
	}
	return nil
}

// Cancel removes a query: the processor's group shrinks (or disappears).
// When the group keeps its representative only the leaver's proxy
// changes, its demand; otherwise the remaining members are refreshed.
// The lone survivor of an owned group is refreshed too, back to the
// singleton binding, the converse of the second member's join: its
// group's kept representative is equivalent to its own query and has its
// layout. An adopted group's frozen representative need not be, so its
// survivors keep the member binding.
func (s *System) Cancel(h *QueryHandle) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queries[h.Tag]; !ok {
		return fmt.Errorf("core: unknown query %s", h.Tag)
	}
	delete(s.queries, h.Tag)
	px := s.leaveProxyLocked(h)
	gs, kept, err := h.proc.remove(h.Tag)
	switch {
	case err != nil:
		return err
	case gs == nil:
		return nil
	case !kept, len(gs.memberTags) == 1 && !gs.adopted:
		return s.refreshGroupLocked(gs)
	case px != nil:
		px.setDemand()
	}
	return nil
}

// Queries returns the number of live queries.
func (s *System) Queries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queries)
}

// InjectPlanPanic arms a one-shot panic in the plan executing the given
// query — the system-level entry of the exec runtime's fault-injection
// hook, for containment tests: the next tuple the plan processes makes
// it panic, which the runtime contains to that plan (surfaced as a
// PlanErrors increment on its processor) while every other plan, query
// and session keeps running. Reports whether the query (and its plan)
// was found alive. Note the plan may be shared: panicking it degrades
// every query merged into the same group.
func (s *System) InjectPlanPanic(tag string) bool {
	s.mu.Lock()
	h, ok := s.queries[tag]
	s.mu.Unlock()
	if !ok {
		return false
	}
	gs := h.proc.groupOf(tag)
	return gs != nil && h.proc.rt.InjectPanic(gs.plan)
}

// Quiesce is the system-wide stabilisation barrier: it blocks until no
// tuple is in flight anywhere — the network, delivery pumps, worker
// queues. Call it when no source is concurrently publishing; it is
// meant for tests, checkpoint boundaries and experiment readouts, never
// for the steady-state data path (a LiveSystem delivers results
// continuously without it). On the simulated transport every publish
// has finished its cascade by the time it returns, so there is nothing
// to wait for.
//
// On the live transport each pass waits for the network to go idle and
// then drains every worker pool. An idle network means every delivery
// callback has returned, so each tuple a processor was handed sits on a
// worker queue the drain empties; any result it produced was injected
// before the drain returned. A pass that injected nothing new (the
// Injected count is unchanged) therefore ends with no tuple anywhere.
func (s *System) Quiesce() {
	if s.live == nil {
		return
	}
	prev := int64(-1)
	for {
		s.live.Quiesce()
		for _, p := range s.procs {
			p.rt.Barrier()
		}
		cur := s.live.Injected()
		if cur == prev {
			return
		}
		prev = cur
	}
}

// NetStats exposes per-link CBN counters, sorted by (A, B) — the same
// fabric counters on both transports (on the live one Quiesce first for
// an exact cut).
func (s *System) NetStats() []*cbn.LinkStats { return s.net.Stats() }

// TotalDataBytes sums tuple traffic over all overlay links.
func (s *System) TotalDataBytes() int64 { return s.net.TotalDataBytes() }
