// Package exec is the execution runtime of a COSMOS processor: it owns
// tuple dispatch between the data wrapper and the compiled plans of the
// stream processing engine (paper Figure 2). It shards execution so a
// multi-core processor saturates its cores the way the cooperative
// worker pools of modern stream engines do (Hazelcast Jet). The caller
// feeds it one tuple at a time; the worker queues are its only buffer.
//
// # Architecture
//
// The runtime mirrors the two-plane design of cbn.Broker and the
// compiled plan pipeline:
//
//   - Control plane (Install, Remove, Close): mutex-protected registry of
//     plan slots and a precomputed, immutable dispatch table — per
//     stream, the plans consuming it sorted by plan ID, pre-partitioned
//     by owning worker — published through an atomic.Pointer. A mutation
//     costs its change: it clones the table's stream map once and
//     rebuilds the entries of the streams the old and the new plan read,
//     nothing when they read the same ones.
//   - Data plane (Consume): loads the table lock-free; one map lookup
//     per tuple, no per-tuple sorting, no allocation on the dispatch
//     path. A tuple of a stream no plan consumes costs one pointer load
//     and one map lookup, and allocates nothing.
//
// Plan state is guarded by a per-plan mutex, not an engine-wide one:
// Push only touches plan-local state, so two plans never contend, and
// quiescing one plan (WithPlan, checkpoint capture) stalls neither the
// dispatch path nor unrelated plans.
//
// # Sharded mode and the ordering contract
//
// With Config.Workers > 0 each installed plan is pinned to one worker
// (round-robin at first Install), and tuples fan out to the workers
// owning the stream's plans over per-worker FIFO queues. The ordering
// contract is:
//
//   - Per-plan total order: every plan observes the tuples of all of its
//     input streams in exactly the order they were passed to Consume,
//     and its emissions preserve that order. This holds because a plan
//     lives on exactly one worker and the worker queue is FIFO.
//   - No cross-plan order: emissions of different plans interleave
//     arbitrarily, and Emit may be invoked concurrently (it must be safe
//     for concurrent use when Workers > 0).
//
// With Workers == 0 the runtime is synchronous: Consume pushes to every
// plan of the stream in ascending plan-ID order on the caller's
// goroutine — emissions, order and error returns byte-identical to a
// plain sequential Plan.Push loop (runtime_test.go's reference) — which
// keeps it the ordering reference for the sharded mode. Workers == 1
// yields the same global order, delivered asynchronously.
//
// # Emission sinks and backpressure
//
// Results leave the runtime through emission sinks. Config.Emit is the
// shared sink; Config.EmitForWorker optionally gives each worker its own
// (e.g. one cbn.LiveClient per worker, so a plan's results flow into the
// network on its owning worker's connection and per-plan emission order
// is preserved end to end). Sinks are invoked under the emitting plan's
// lock, on the worker's goroutine.
//
// Sinks may block — that is the backpressure path. A sink publishing
// into a full broker channel stalls exactly its worker; the worker's
// bounded queue then stalls dispatch (Consume blocks on the queue
// send), throttling ingestion instead of dropping or buffering
// tuples unboundedly. Other workers keep running.
//
// Plan execution errors are reported through Config.OnError in both
// modes; the synchronous mode additionally returns the first error and
// stops dispatching the tuple to the remaining plans.
package exec

import (
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cosmos/internal/cql"
	"cosmos/internal/obs"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
)

// errNoSchema rejects schema-less tuples.
var errNoSchema = errors.New("exec: tuple without schema")

// PanicError reports a plan that panicked during execution. The runtime
// contains the panic: the plan is degraded to an errored (dead) state —
// surfaced through Config.OnError with this error — while every other
// plan, the worker pool, and the process keep running.
type PanicError struct {
	PlanID string
	Value  interface{} // the recovered panic value
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: plan %s panicked: %v", e.PlanID, e.Value)
}

// Sink consumes result tuples on the data path. Implementations are
// audited boundaries: the runtime's discard sink, the delivery proxy's
// handoff and the transport pump all carry their own benchmarks, so the
// hot-path checker treats any Sink call as vouched for.
//
//cosmos:hotpath-ok
type Sink func(stream.Tuple)

// Config parameterises a Runtime.
type Config struct {
	// Workers is the worker-pool size. 0 runs every plan synchronously
	// on the consuming goroutine (the sequential reference mode); > 0
	// pins each plan to one of Workers shards.
	Workers int
	// QueueLen bounds each worker's task queue (backpressure); default
	// 128 tasks.
	QueueLen int
	// Emit receives every result tuple. Must be safe for concurrent use
	// when Workers > 0 (per-plan emission order is preserved; cross-plan
	// interleaving is arbitrary). Nil discards results. Emit may block:
	// a blocked sink throttles its worker (see the package comment).
	Emit Sink
	// EmitForWorker, when non-nil, resolves a dedicated sink per worker
	// at startup: worker i emits through EmitForWorker(i). A nil sink
	// falls back to Emit. The synchronous mode (Workers == 0) always
	// uses Emit. Per-worker sinks carry per-plan emission order into the
	// sink because each plan is pinned to one worker.
	EmitForWorker func(worker int) Sink
	// OnError observes plan execution failures (schema drift between the
	// data layer and an installed plan). Called with the plan ID, or ""
	// for dispatch-level failures (schema-less tuple). May be nil.
	OnError func(planID string, err error)
	// Metrics, when non-nil, receives per-push exec-stage counts and
	// sampled latency plus trace marks; per-plan counters are kept
	// either way (they ride under the plan lock for free). See
	// Runtime.StatsSnapshot.
	Metrics *obs.Metrics
}

// Runtime hosts compiled plans and dispatches tuples to them.
type Runtime struct {
	emit    Sink
	onError func(string, error)
	metrics *obs.Metrics
	workers []*worker
	quit    chan struct{}
	wg      sync.WaitGroup

	// table is the compiled dispatch state read lock-free by the data
	// plane; each control-plane mutation publishes a copy with the
	// entries of the streams it touched rebuilt. nil once closed.
	table atomic.Pointer[dispatchTable]

	mu         sync.RWMutex
	slots      map[string]*planSlot // guarded by mu
	nextWorker int                  // guarded by mu
	closed     bool                 // guarded by mu
}

// planSlot is the runtime-side holder of one installed plan. The slot
// mutex is the plan's execution lock: Push, snapshot capture and plan
// replacement all run under it.
type planSlot struct {
	id string
	w  *worker // owning worker; nil in synchronous mode
	// inputs lists the streams whose dispatch entries hold the slot,
	// sorted: its plan's input streams as of the last Install. It
	// outlives the plan, so a dead slot's Remove still finds its
	// entries. The runtime's mu, not the slot's, covers it.
	inputs []string

	mu          sync.Mutex
	plan        *spe.Plan // guarded by mu
	dead        bool      // guarded by mu
	injectPanic bool      // guarded by mu; one-shot fault-injection: panic on the next push

	// Per-plan series, guarded by mu (incrementing under the lock the
	// push already holds costs nothing extra).
	pushes, emits, errs int64         // guarded by mu
	lat                 obs.Histogram // guarded by mu

	// out is the plan's emission buffer, reused push after push and
	// cleared once emitted so it pins no tuple's values. Its size is the
	// largest emission of a single push.
	out []stream.Tuple // guarded by mu
}

// dispatchTable is one immutable snapshot of the per-stream dispatch
// state.
type dispatchTable struct {
	streams map[string]*streamEntry
}

// streamEntry lists the plans consuming one stream.
type streamEntry struct {
	// slots is sorted by plan ID — the synchronous dispatch order.
	slots []*planSlot
	// shards partitions slots by owning worker (each preserving plan-ID
	// order), precomputed so sharded dispatch is one queue send per
	// worker with no per-tuple grouping.
	shards []shard
}

type shard struct {
	w     *worker
	slots []*planSlot
}

// task is one unit of worker work: a tuple against the worker's slots
// for its stream, or a drain barrier.
type task struct {
	slots []*planSlot
	t     stream.Tuple
	done  chan struct{} // barrier marker; all other fields empty
}

type worker struct {
	r      *Runtime
	idx    int
	ch     chan task
	emit   Sink         // this worker's emission sink
	tuples atomic.Int64 // tuples dispatched through this worker
}

// New builds a runtime. Close must be called to release the worker pool
// when Workers > 0.
func New(cfg Config) *Runtime {
	if cfg.Emit == nil {
		cfg.Emit = func(stream.Tuple) {}
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 128
	}
	r := &Runtime{
		emit:    cfg.Emit,
		onError: cfg.OnError,
		metrics: cfg.Metrics,
		quit:    make(chan struct{}),
		slots:   map[string]*planSlot{},
	}
	r.table.Store(&dispatchTable{streams: map[string]*streamEntry{}})
	for i := 0; i < cfg.Workers; i++ {
		sink := cfg.Emit
		if cfg.EmitForWorker != nil {
			if s := cfg.EmitForWorker(i); s != nil {
				sink = s
			}
		}
		w := &worker{r: r, idx: i, ch: make(chan task, cfg.QueueLen), emit: sink}
		r.workers = append(r.workers, w)
		r.wg.Add(1)
		go w.run()
	}
	return r
}

// Workers returns the worker-pool size (0 = synchronous).
func (r *Runtime) Workers() int { return len(r.workers) }

func (r *Runtime) reportError(planID string, err error) {
	if r.onError != nil {
		r.onError(planID, err)
	}
}

// Install compiles and registers a plan under an ID, returning the plan.
// Installing an existing ID replaces the old plan (used when a group's
// representative query widens) and keeps its worker pinning; a new ID is
// pinned round-robin. In sharded mode the old plan's worker queue is
// drained before the swap, so tuples enqueued before the replacement
// still reach the old plan, as they would in synchronous mode.
func (r *Runtime) Install(id string, b *cql.Bound, resultStream string) (*spe.Plan, error) {
	p, err := spe.Compile(id, b, resultStream)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	existing := r.slots[id]
	r.mu.RUnlock()
	if existing != nil && existing.w != nil {
		existing.w.flush()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("exec: runtime closed")
	}
	s, ok := r.slots[id]
	if !ok {
		s = &planSlot{id: id}
		if len(r.workers) > 0 {
			s.w = r.workers[r.nextWorker%len(r.workers)]
			r.nextWorker++
		}
		r.slots[id] = s
	}
	s.mu.Lock()
	s.plan = p
	s.dead = false
	s.mu.Unlock()
	r.relinkLocked(s, p.InputStreams())
	return p, nil
}

// Remove uninstalls a plan, dead or alive: its slot leaves the registry
// and the dispatch table. Tuples already queued for the plan's worker
// are skipped the moment Remove returns.
func (r *Runtime) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.slots[id]
	if !ok {
		return
	}
	delete(r.slots, id)
	s.mu.Lock()
	s.dead = true
	s.plan = nil
	s.mu.Unlock()
	r.relinkLocked(s, nil)
}

// relinkLocked moves slot s's dispatch entries from the streams it is
// listed under to streams (sorted) and publishes the result: one clone
// of the stream map, with fresh entries for the streams it enters or
// leaves. A slot whose streams are unchanged — a plan replaced by one
// reading the same inputs — leaves the table as it is. A slot whose plan
// died by panic keeps its entries, which push skips, until its Remove or
// the Install that revives it. Callers hold r.mu.
func (r *Runtime) relinkLocked(s *planSlot, streams []string) {
	old := s.inputs
	s.inputs = streams
	tbl := r.table.Load()
	if tbl == nil || slices.Equal(old, streams) {
		return // closed, or nothing to move
	}
	next := maps.Clone(tbl.streams)
	for _, name := range old {
		if !slices.Contains(streams, name) {
			r.setEntry(next, name, s, false)
		}
	}
	for _, name := range streams {
		if !slices.Contains(old, name) {
			r.setEntry(next, name, s, true)
		}
	}
	r.table.Store(&dispatchTable{streams: next})
}

// setEntry replaces one stream's entry in streams with a fresh one
// holding its slots with s added (add) or taken out, in plan-ID order
// and partitioned by owning worker; a stream left without slots loses
// its entry. Published entries are never written. Callers hold r.mu.
func (r *Runtime) setEntry(streams map[string]*streamEntry, name string, s *planSlot, add bool) {
	var cur []*planSlot
	if e := streams[name]; e != nil {
		cur = e.slots
	}
	i, found := slices.BinarySearchFunc(cur, s.id, func(x *planSlot, id string) int { return strings.Compare(x.id, id) })
	rest := cur[i:]
	if found {
		rest = cur[i+1:]
	}
	slots := make([]*planSlot, 0, len(cur)+1)
	slots = append(slots, cur[:i]...)
	if add {
		slots = append(slots, s)
	}
	slots = append(slots, rest...)
	if len(slots) == 0 {
		delete(streams, name)
		return
	}
	e := &streamEntry{slots: slots}
	for _, w := range r.workers {
		var mine []*planSlot
		for _, x := range slots {
			if x.w == w {
				mine = append(mine, x)
			}
		}
		if len(mine) > 0 {
			e.shards = append(e.shards, shard{w: w, slots: mine})
		}
	}
	streams[name] = e
}

// Plans lists installed plan IDs, sorted.
func (r *Runtime) Plans() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.slots))
	for id := range r.slots {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Plan returns an installed plan. The plan may be executing concurrently
// in sharded mode; use WithPlan to observe or mutate its state.
func (r *Runtime) Plan(id string) (*spe.Plan, bool) {
	r.mu.RLock()
	s := r.slots[id]
	r.mu.RUnlock()
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil, false
	}
	return s.plan, true
}

// WithPlan quiesces one plan — not the world — and runs fn on it: in
// sharded mode the plan's worker queue is drained first, then fn runs
// under the plan's own lock while every other plan keeps executing.
// Checkpoint capture uses this to snapshot consistently without
// stalling unrelated plans.
func (r *Runtime) WithPlan(id string, fn func(*spe.Plan)) bool {
	r.mu.RLock()
	s := r.slots[id]
	r.mu.RUnlock()
	if s == nil {
		return false
	}
	if s.w != nil {
		s.w.flush()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return false
	}
	fn(s.plan)
	return true
}

// Drain blocks until every tuple enqueued for the plan before the call
// has been processed. A no-op in synchronous mode; false when the plan
// is not installed.
func (r *Runtime) Drain(id string) bool {
	r.mu.RLock()
	s := r.slots[id]
	r.mu.RUnlock()
	if s == nil {
		return false
	}
	if s.w != nil {
		s.w.flush()
	}
	return true
}

// Barrier blocks until every tuple enqueued before the call — for any
// plan — has been processed. A no-op in synchronous mode.
func (r *Runtime) Barrier() {
	for _, w := range r.workers {
		w.flush()
	}
}

// Close stops the worker pool. Tuples still queued are dropped; call
// Barrier first for a graceful drain. The runtime accepts no work after
// Close.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.table.Store(nil)
	r.mu.Unlock()
	close(r.quit)
	r.wg.Wait()
}

// Consume feeds one tuple to every plan registered for its stream. In
// synchronous mode plans run in ascending plan-ID order and the first
// plan error is returned (remaining plans are skipped); in sharded mode
// the tuple is queued to the owning workers and errors surface through
// OnError only. Either way a failing tuple never affects the next one.
func (r *Runtime) Consume(t stream.Tuple) error {
	if t.Schema == nil {
		r.reportError("", errNoSchema)
		return errNoSchema
	}
	tbl := r.table.Load()
	if tbl == nil {
		return nil
	}
	e := tbl.streams[t.Schema.Stream]
	if e == nil {
		return nil
	}
	if len(r.workers) == 0 {
		return r.pushAll(e.slots, t)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.w.send(task{slots: sh.slots, t: t})
	}
	return nil
}

// pushAll is the synchronous dispatch loop (plan-ID order, first error
// aborts).
func (r *Runtime) pushAll(slots []*planSlot, t stream.Tuple) error {
	for _, s := range slots {
		if err := s.push(r, r.emit, t); err != nil {
			return err
		}
	}
	return nil
}

// push runs one tuple through one plan under the plan's lock, emitting
// its results in order through the given sink (the runtime's shared sink
// in synchronous mode, the owning worker's sink in sharded mode). A
// panic inside the plan (or the sink) is contained: the slot degrades
// to dead — skipping all further tuples — and the failure surfaces as a
// *PanicError through OnError (and the return value, synchronous mode),
// exactly like any other plan error. The worker survives.
//
//cosmos:hotpath
func (s *planSlot) push(r *Runtime, emit Sink, t stream.Tuple) (err error) {
	m := r.metrics
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return nil
	}
	// Stripe the exec count by owning worker: sharded workers push
	// concurrently and must not contend on one counter line.
	hint := 0
	if s.w != nil {
		hint = s.w.idx
	}
	start := m.StageStartAt(obs.StageExec, hint)
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				s.dead = true
				s.plan, s.out = nil, nil
				//lint:ignore hotpath panic containment is the cold branch; capturing the stack is the point
				err = &PanicError{PlanID: s.id, Value: rec, Stack: debug.Stack()}
			}
		}()
		if s.injectPanic {
			s.injectPanic = false
			panic("exec: injected fault")
		}
		s.out, err = s.plan.PushAppend(s.out[:0], t)
		if err == nil {
			s.emits += int64(len(s.out))
			for _, res := range s.out {
				emit(res)
			}
		}
		clear(s.out)
	}()
	s.pushes++
	if err != nil {
		s.errs++
	}
	if d := m.StageEnd(obs.StageExec, start); d != 0 {
		s.lat.Observe(d)
	}
	s.mu.Unlock()
	if m.TraceOn() {
		m.TraceMark(int64(t.Ts), obs.StageExec)
	}
	if err != nil {
		//lint:ignore hotpath error reporting is the cold branch
		r.reportError(s.id, err)
	}
	return err
}

// InjectPanic arms a one-shot panic on the plan's next push — the
// runtime's fault-injection hook for containment tests. Reports whether
// the plan is installed (and alive).
func (r *Runtime) InjectPanic(id string) bool {
	r.mu.RLock()
	s := r.slots[id]
	r.mu.RUnlock()
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return false
	}
	s.injectPanic = true
	return true
}

// send enqueues a task, bailing out if the runtime is closing.
func (w *worker) send(tk task) {
	select {
	case w.ch <- tk:
	case <-w.r.quit:
	}
}

// flush waits until the worker has processed everything queued before
// the call.
func (w *worker) flush() {
	done := make(chan struct{})
	select {
	case w.ch <- task{done: done}:
	case <-w.r.quit:
		return
	}
	select {
	case <-done:
	case <-w.r.quit:
	}
}

// run is the worker loop: FIFO over the task queue, so every plan pinned
// here observes its tuples in enqueue order.
func (w *worker) run() {
	defer w.r.wg.Done()
	for {
		select {
		case <-w.r.quit:
			return
		case tk := <-w.ch:
			w.exec(tk)
		}
	}
}

func (w *worker) exec(tk task) {
	if tk.done != nil {
		close(tk.done)
		return
	}
	w.tuples.Add(1)
	for _, s := range tk.slots {
		_ = s.push(w.r, w.emit, tk.t) // error already reported; plans are independent
	}
}
