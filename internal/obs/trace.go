package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one stage mark on a traced tuple's path. At is
// nanoseconds on the package monotonic clock (compare to Trace.Start).
type TraceEvent struct {
	Stage string
	At    int64
}

// Trace follows one sampled tuple from Source.Publish onward. Key is
// the tuple's application timestamp (stream.Tuple.Ts), which survives
// plan execution for select/project plans and result delivery — so a
// trace typically shows ingest → route* → exec → deliver [→ wire].
// Operators that synthesise new timestamps (aggregate windows, joins
// taking the max of their inputs) break the key chain; such traces end
// at the last stage that saw the original timestamp. Route appears once
// per broker hop.
type Trace struct {
	Key    int64 // application timestamp of the traced tuple
	Stream string
	Start  int64 // Now() at sampling (in Source.Publish)
	Events []TraceEvent
}

// End returns the offset from Start to the last recorded event, or 0
// for an event-less trace.
func (t Trace) End() time.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return time.Duration(t.Events[len(t.Events)-1].At - t.Start)
}

// StageSpan is one entry of a trace's per-stage latency breakdown.
type StageSpan struct {
	Stage  string
	Offset time.Duration // elapsed from Trace.Start to this mark
}

// Breakdown stitches the trace's events into per-stage offsets from
// publish, in event order — the per-tuple latency breakdown.
func (t Trace) Breakdown() []StageSpan {
	out := make([]StageSpan, len(t.Events))
	for i, e := range t.Events {
		out[i] = StageSpan{Stage: e.Stage, Offset: time.Duration(e.At - t.Start)}
	}
	return out
}

// tracer is the sampled-tuple tracing engine inside Metrics. When
// disabled (every == 0) the mark path is a single immutable field test.
// When enabled, sampling stays systematic (every N-th publish, phase
// set by the seed) so runs are reproducible, and the active set is a
// bounded FIFO keyed by tuple timestamp.
type tracer struct {
	every int64 // immutable after init; 0 = off
	cap   int
	tick  atomic.Int64

	mu     sync.Mutex
	active map[int64]*Trace // guarded by mu
	order  []int64          // guarded by mu; insertion order for FIFO eviction
}

func (tr *tracer) init(o Options) {
	tr.every = int64(o.TraceEvery)
	if tr.every < 0 {
		tr.every = 0
	}
	tr.cap = o.TraceCap
	if tr.cap <= 0 {
		tr.cap = 256
	}
	if tr.every > 0 {
		tr.tick.Store(o.TraceSeed % tr.every)
		//lint:ignore lockguard init runs inside New before the Metrics pointer is published; no concurrent access exists yet
		tr.active = make(map[int64]*Trace)
	}
}

// TraceSample ticks the trace sampler for one published tuple and, when
// the tuple is chosen, opens a trace for it. Call once per
// Source.Publish, before the publish proper.
//
//cosmos:hotpath
func (m *Metrics) TraceSample(key int64, stream string) {
	if m == nil || m.tracer.every == 0 {
		return
	}
	tr := &m.tracer
	if tr.tick.Add(1)%tr.every != 0 {
		return
	}
	t := &Trace{Key: key, Stream: stream, Start: Now()}
	tr.mu.Lock()
	if _, dup := tr.active[key]; !dup {
		if len(tr.order) >= tr.cap {
			evict := tr.order[0]
			tr.order = tr.order[1:]
			delete(tr.active, evict)
		}
		tr.active[key] = t
		tr.order = append(tr.order, key)
	}
	tr.mu.Unlock()
}

// TraceMark records stage s on the trace of the tuple keyed by key, if
// that tuple is being traced. When tracing is off this is one field
// test — cheap enough for every hot-path call site. The mark is stamped
// under the tracer lock, so a trace's events are in time order even when
// two goroutines mark the same key at once (a downstream broker routing
// a result while the processor that emitted it marks exec).
//
//cosmos:hotpath
func (m *Metrics) TraceMark(key int64, s Stage) {
	if m == nil || m.tracer.every == 0 {
		return
	}
	tr := &m.tracer
	tr.mu.Lock()
	if t := tr.active[key]; t != nil {
		t.Events = append(t.Events, TraceEvent{Stage: s.String(), At: Now()})
	}
	tr.mu.Unlock()
}

// TraceOn reports whether tracing is enabled.
//
//cosmos:hotpath
func (m *Metrics) TraceOn() bool { return m != nil && m.tracer.every > 0 }

// Traces snapshots the retained traces, oldest first. Event slices are
// copied; the result is safe to hold.
func (m *Metrics) Traces() []Trace {
	if m == nil || m.tracer.every == 0 {
		return nil
	}
	tr := &m.tracer
	tr.mu.Lock()
	out := make([]Trace, 0, len(tr.order))
	for _, key := range tr.order {
		if t := tr.active[key]; t != nil {
			c := *t
			c.Events = append([]TraceEvent(nil), t.Events...)
			out = append(out, c)
		}
	}
	tr.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
