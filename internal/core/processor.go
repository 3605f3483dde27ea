package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cosmos/internal/cost"
	"cosmos/internal/cql"
	"cosmos/internal/exec"
	"cosmos/internal/ft"
	"cosmos/internal/merge"
	"cosmos/internal/profile"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
)

// Processor is a COSMOS server equipped with a stream processing engine
// (paper §1: "Some of these servers are only used to route data across
// the network while others are equipped with stream processing engines
// and hence are able to process complex continuous queries").
//
// Its query-management module (paper Figure 2) analyses incoming
// queries, groups them with the merging optimiser, installs (or
// replaces) the representative query in the SPE, and maintains the
// processor's demand — the union of its groups' input profiles, which
// pulls source streams in — and the advertisements that push result
// streams out and the unadvertisements that retire them. When checkpointing is enabled it periodically captures
// plan state for query-layer fault tolerance.
type Processor struct {
	ID   int
	Node int

	sys    *System
	client netClient
	rt     *exec.Runtime
	opt    *merge.Optimizer
	est    cost.Estimator
	cp     *ft.Checkpointer

	// planErrs counts plan execution failures surfaced by the runtime.
	planErrs atomic.Int64

	mu sync.Mutex
	// groups holds the live query groups, owned and adopted, by plan ID,
	// and byTag each group's members by query tag. Only setGroup and
	// FailProcessor change them. Guarded by mu.
	groups map[string]*groupState
	byTag  map[string]*groupState
	// readers lists, per stream, the live groups whose input reads it,
	// in plan order: the parts a narrowing re-unions. setInput keeps it.
	// Guarded by mu.
	readers map[string][]*groupState
	// demand is the union of the live groups' inputs, as last set on
	// the client. Guarded by mu.
	demand          *profile.Profile
	load            int  // guarded by mu
	alive           bool // guarded by mu
	consumeCount    int  // guarded by mu
	checkpointEvery int
}

// groupState is the processor-side record of one query group.
type groupState struct {
	id           int
	plan         string // engine plan ID, unique system-wide
	version      int
	resultStream string // "" until the group is first installed
	rep          *cql.Bound
	memberTags   []string
	// input is the profile of the source data rep reads (paper §4);
	// empty once the group is gone.
	input *profile.Profile
	// adopted marks a group taken over from a failed processor: unknown
	// to the optimiser, it serves and shrinks but takes no new members.
	adopted bool
}

// resultStreamName derives the versioned result stream name of a group.
// The version bumps whenever the group's representative changes (a
// membership change that keeps the representative keeps the name): the
// fresh name retires the old plan generation's name, its in-flight
// results and its schema at once (old names stop carrying data when the
// old plan is replaced, and their unadvertisement, following the last
// result, clears them from every broker).
func resultStreamName(procID, groupID, version int) string {
	return fmt.Sprintf("res-p%d-g%d-v%d", procID, groupID, version)
}

func newProcessor(s *System, id, node int) (*Processor, error) {
	minBenefit := 0.0
	if s.opts.DisableMerging {
		// An unattainable bar keeps every query in its own group — the
		// "Non-Share" baseline.
		minBenefit = 1e308
	}
	client, err := s.attach(node)
	if err != nil {
		return nil, err
	}
	p := &Processor{
		ID:     id,
		Node:   node,
		sys:    s,
		client: client,
		opt: merge.NewOptimizer(merge.Options{
			Mode:          s.opts.Mode,
			MaxCandidates: maxCandidates,
			MinBenefit:    minBenefit,
		}),
		cp:              ft.NewCheckpointer(),
		groups:          map[string]*groupState{},
		byTag:           map[string]*groupState{},
		readers:         map[string][]*groupState{},
		demand:          profile.New(),
		alive:           true,
		checkpointEvery: s.opts.CheckpointEvery,
	}
	// Results go back into the data layer through the processor's client;
	// a Publish error (routing failure, stopped network) drops the
	// result, as in any CBN. Per-plan order holds because the runtime
	// emits under the plan lock.
	cfg := exec.Config{
		Workers: s.opts.ExecWorkers,
		Emit:    func(t stream.Tuple) { _ = client.Publish(t) },
		OnError: p.onPlanError,
		Metrics: s.obs,
	}
	if s.opts.ExecWorkers > 0 { // live only: NewSystem refuses workers
		// Each worker publishes through its own network client, so a
		// plan's results enter the network on its owning worker's
		// connection — per-plan emission order carries end to end, and a
		// full broker channel throttles exactly that worker.
		egress := make([]netClient, s.opts.ExecWorkers)
		for i := range egress {
			c, err := s.attach(node)
			if err != nil {
				return nil, err
			}
			egress[i] = c
		}
		cfg.EmitForWorker = func(worker int) exec.Sink {
			c := egress[worker]
			return func(t stream.Tuple) { _ = c.Publish(t) }
		}
	}
	p.rt = exec.New(cfg)
	p.client.SetOnTuple(p.consume)
	return p, nil
}

// consume feeds data-layer deliveries into the SPE and drives periodic
// checkpointing. It runs on the client's delivery goroutine — the
// LiveClient pump on the live transport — and hands each tuple straight
// to the runtime: inline with no workers, onto the owning workers'
// queues otherwise (a full queue blocks the pump: backpressure).
func (p *Processor) consume(t stream.Tuple) {
	p.mu.Lock()
	if !p.alive {
		p.mu.Unlock()
		return
	}
	p.consumeCount++
	capture := p.checkpointEvery > 0 && p.consumeCount%p.checkpointEvery == 0
	p.mu.Unlock()
	// Plan errors indicate schema drift between the data layer and the
	// installed plans; the runtime surfaces them through onPlanError (the
	// error counter and Options.OnPlanError) rather than crashing the
	// data path.
	_ = p.rt.Consume(t)
	if capture {
		p.captureAll()
	}
}

// onPlanError records a plan execution failure reported by the runtime.
func (p *Processor) onPlanError(planID string, err error) {
	p.planErrs.Add(1)
	if cb := p.sys.opts.OnPlanError; cb != nil {
		cb(p.ID, planID, err)
	}
}

// PlanErrors returns the number of plan execution failures observed.
func (p *Processor) PlanErrors() int64 { return p.planErrs.Load() }

// liveLocked lists the live groups, owned and adopted, in plan order.
// Callers hold p.mu.
func (p *Processor) liveLocked() []*groupState {
	return slices.SortedFunc(maps.Values(p.groups), byPlan)
}

// byPlan orders groups by plan ID, for deterministic iteration.
func byPlan(a, b *groupState) int { return strings.Compare(a.plan, b.plan) }

// groupOf finds the group serving a query tag; nil when none does.
func (p *Processor) groupOf(tag string) *groupState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byTag[tag]
}

// setMembersLocked makes tags gs's members. Callers hold p.mu.
func (p *Processor) setMembersLocked(gs *groupState, tags []string) {
	p.load += len(tags) - len(gs.memberTags)
	for _, tag := range gs.memberTags {
		delete(p.byTag, tag)
	}
	for _, tag := range tags {
		p.byTag[tag] = gs
	}
	gs.memberTags = tags
}

// planQueries resolves the member query tags and result stream served
// by an engine plan.
func (p *Processor) planQueries(planID string) (tags []string, resultStream string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gs := p.groups[planID]; gs != nil {
		return slices.Clone(gs.memberTags), gs.resultStream
	}
	return nil, ""
}

// captureAll snapshots every live plan into the checkpoint store. The
// cut is deterministic: WithPlan drains the plan's worker queue, which
// is FIFO behind the triggering tuple, so each snapshot reflects exactly
// the tuples delivered to this processor up to the trigger, in both
// synchronous and sharded modes. It quiesces one plan at a time —
// capture under live traffic never stops the world.
func (p *Processor) captureAll() {
	p.mu.Lock()
	live := p.liveLocked()
	p.mu.Unlock()
	for _, gs := range live {
		p.rt.WithPlan(gs.plan, func(plan *spe.Plan) { p.cp.Capture(plan) })
	}
}

// accept runs the query-management path for one new query: group it
// with the optimiser, then move the group to its new representative and
// membership. Returns the affected group and whether it kept its
// representative (see setGroup). Called under the system lock.
func (p *Processor) accept(tag string, b *cql.Bound) (*groupState, bool, error) {
	placement, err := p.opt.Add(tag, b)
	if err != nil {
		return nil, false, err
	}
	g := placement.Group
	plan := fmt.Sprintf("p%d-g%04d", p.ID, g.ID)
	p.mu.Lock()
	gs := p.groups[plan]
	p.mu.Unlock()
	if gs == nil {
		gs = &groupState{id: g.ID, plan: plan, input: profile.New()}
	}
	return p.setGroup(gs, g.Rep, memberTags(g))
}

// remove drops a query; returns the surviving group (nil when the group
// dissolved) and whether it kept its representative (see setGroup). An
// adopted group is unknown to the optimiser: it keeps its frozen
// representative, and survivors keep their re-tightening profiles, which
// remain exact. Called under the system lock.
func (p *Processor) remove(tag string) (*groupState, bool, error) {
	gs := p.groupOf(tag)
	switch {
	case gs == nil:
		return nil, false, fmt.Errorf("core: processor %d does not own %s", p.ID, tag)
	case gs.adopted:
		return p.setGroup(gs, gs.rep, slices.DeleteFunc(slices.Clone(gs.memberTags), func(m string) bool { return m == tag }))
	}
	survivor, _ := p.opt.Remove(tag)
	if survivor == nil {
		return p.setGroup(gs, nil, nil)
	}
	return p.setGroup(gs, survivor.Rep, memberTags(survivor))
}

// setGroup is the one transition of a group's record: gs is to serve
// tags through rep; it returns gs, or nil once the group dissolved, and
// whether gs kept its representative. With no members left the group
// dissolves: its plan, checkpoint, result stream and input are retired.
// The same representative — a join or a leave the optimiser found
// equivalent, or an adopted group shrinking — changes only the
// membership: no plan is installed, no version bumps and nothing is
// advertised or unadvertised, so the co-members' window state and result
// stream stand. Any other retires the old result stream, if any, and is
// installed under a fresh version. A retired stream is unadvertised
// through the processor's client once the old plan has been replaced or
// removed: the runtime emits under the plan's lock, so the old plan's
// last result is already in the node's mailbox, and FIFO links carry the
// unadvertisement to every broker behind it and behind the
// advertisement. Called under the system lock.
func (p *Processor) setGroup(gs *groupState, rep *cql.Bound, tags []string) (*groupState, bool, error) {
	p.mu.Lock()
	p.setMembersLocked(gs, tags)
	switch {
	case len(tags) == 0:
		p.rt.Remove(gs.plan)
		p.cp.Drop(gs.plan)
		delete(p.groups, gs.plan)
	case rep == gs.rep:
		p.mu.Unlock()
		return gs, true, nil
	default:
		p.groups[gs.plan] = gs
	}
	retired := gs.resultStream
	if retired != "" {
		p.sys.reg.Deregister(retired)
		gs.version++
	}
	if len(tags) == 0 {
		p.mu.Unlock()
		p.client.Unadvertise(retired)
		p.setInput(gs, profile.New())
		return nil, false, nil
	}
	gs.resultStream = resultStreamName(p.ID, gs.id, gs.version)
	gs.rep = rep
	p.mu.Unlock()
	err := p.installGroup(gs)
	if retired != "" {
		p.client.Unadvertise(retired)
	}
	if err != nil {
		return nil, false, err
	}
	return gs, false, nil
}

// installGroup (re)installs the representative plan under the group's
// current (versioned) result stream name, registers the schema, and sets
// the group's input. Each new version is advertised; older versions stop
// carrying data the moment the plan is replaced.
func (p *Processor) installGroup(gs *groupState) error {
	if _, err := p.rt.Install(gs.plan, gs.rep, gs.resultStream); err != nil {
		return err
	}
	p.cp.Register(gs.plan, gs.rep, gs.resultStream)
	// Register (or refresh) the result stream's schema and estimated
	// rate in the flooded catalog.
	est := p.est.OutputRate(gs.rep)
	resInfo := &stream.Info{
		Schema: gs.rep.OutSchema.Rename(gs.resultStream),
		Rate:   est.TuplesPerSec,
	}
	if err := p.sys.reg.Register(resInfo); err != nil {
		return err
	}
	p.client.Advertise(gs.resultStream)
	// Pull the representative's source data: compose the profile of
	// paper §4 ("For each query, a profile is composed for retrieving
	// the source data").
	p.setInput(gs, profile.FromQuery(gs.rep))
	return nil
}

// setInput makes in the group's input (empty: the group is gone) and
// sets the processor's demand again. An input that covers the old one
// only widens the union, so it is merged in; otherwise only the streams
// the old or new input reads are recomputed, each as the union over the
// live groups, owned and adopted, that read it, in plan order. Called
// under the system lock, once p.groups holds the change.
func (p *Processor) setInput(gs *groupState, in *profile.Profile) {
	p.mu.Lock()
	old, next := gs.input, p.demand.Clone()
	gs.input = in
	for _, s := range old.Streams {
		if p.readers[s] = dropGroup(p.readers[s], gs); len(p.readers[s]) == 0 {
			delete(p.readers, s)
		}
	}
	for _, s := range in.Streams {
		p.readers[s] = addGroup(p.readers[s], gs)
	}
	if in.CoversProfile(old) {
		next.Merge(in)
	} else {
		for _, s := range slices.Concat(old.Streams, in.Streams) {
			readers := p.readers[s]
			inputs := make([]*profile.Profile, len(readers))
			for i, g := range readers {
				inputs[i] = g.input
			}
			next.CopyStream(profile.UnionOn(s, inputs), s)
		}
	}
	p.demand = next
	p.mu.Unlock()
	p.client.SetDemand(next)
}

// addGroup inserts gs into a plan-ordered group list, unless it is there.
func addGroup(list []*groupState, gs *groupState) []*groupState {
	if i, found := slices.BinarySearchFunc(list, gs, byPlan); !found {
		list = slices.Insert(list, i, gs)
	}
	return list
}

// dropGroup removes gs from a plan-ordered group list, if it is there.
func dropGroup(list []*groupState, gs *groupState) []*groupState {
	if i, found := slices.BinarySearchFunc(list, gs, byPlan); found {
		list = slices.Delete(list, i, i+1)
	}
	return list
}

// Load returns the number of queries assigned to this processor.
func (p *Processor) Load() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.load
}

// Groups returns the number of live query groups (owned + adopted).
func (p *Processor) Groups() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.groups)
}

// Stats exposes the optimiser's merging statistics.
func (p *Processor) Stats() merge.Stats { return p.opt.Stats() }

func memberTags(g *merge.Group) []string {
	tags := make([]string, len(g.Members))
	for i, m := range g.Members {
		tags[i] = m.Tag
	}
	return tags
}
