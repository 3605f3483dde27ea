// Package obs is the observability plane of the system: lock-free
// counters and gauges, fixed-bucket log-linear latency histograms, and
// sampled per-tuple tracing, threaded through every stage of the data
// path (client ingest, broker routing, plan execution, result delivery,
// and the TCP wire).
//
// # Design contract
//
// The data path is the product; observation must not tax it. The rules:
//
//   - Counting is always on and costs one uncontended atomic add per
//     event — the same counter doubles as the sampling clock.
//   - Latency timing is sampled 1-in-SampleEvery (systematic, not
//     random: deterministic replay stays deterministic). Unsampled
//     events pay zero clock reads; sampled events pay two monotonic
//     reads and one histogram Observe. Nothing on the record path
//     allocates — the compiled hot paths keep their 0–3 allocs/tuple.
//   - Tracing is off by default (TraceEvery == 0). When off, a trace
//     mark is one nil/field check with no atomics. When on, 1-in-
//     TraceEvery published tuples (seedable phase) are followed through
//     the stages keyed by their application timestamp.
//
// All methods are safe on a nil *Metrics and degrade to no-ops, so
// instrumented call sites need no conditionals.
//
// Snapshots (StageStats, HistSnapshot, WireStats, Trace) are plain
// data: gob- and json-encodable, so the same stats shape travels over
// the TCP transport unchanged.
package obs

import (
	"sync/atomic"
	"time"
)

// epoch anchors the package monotonic clock; Now readings are
// comparable within a process only.
var epoch = time.Now()

// Now returns nanoseconds since the process epoch on the monotonic
// clock (immune to wall-clock steps).
//
//cosmos:hotpath
func Now() int64 { return int64(time.Since(epoch)) }

// Counter is a lock-free monotonically increasing event counter.
type Counter struct{ v atomic.Int64 }

//cosmos:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

//cosmos:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

//cosmos:hotpath
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value (queue depth, connections).
type Gauge struct{ v atomic.Int64 }

//cosmos:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

//cosmos:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

//cosmos:hotpath
func (g *Gauge) Load() int64 { return g.v.Load() }

// Stage identifies one hop of the tuple data path.
type Stage uint8

const (
	// StageIngest: Source.Publish handing a tuple to the network client.
	StageIngest Stage = iota
	// StageRoute: one broker routing a tuple to its link/local targets.
	StageRoute
	// StageExec: one compiled plan executing one tuple push.
	StageExec
	// StageDeliver: a matched result crossing a query's delivery proxy
	// to the subscriber callback.
	StageDeliver
	// StageWire: a result batch written to a TCP session's wire.
	StageWire
	// NumStages bounds the per-stage arrays.
	NumStages
)

var stageNames = [NumStages]string{"ingest", "route", "exec", "deliver", "wire"}

//cosmos:hotpath
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// DefaultSampleEvery is the default 1-in-N latency sampling period. At
// typical tuple rates it keeps the histogram statistically dense within
// seconds while amortising the two clock reads to noise.
const DefaultSampleEvery = 512

// Options configures a Metrics instance.
type Options struct {
	// SampleEvery is the latency sampling period: every SampleEvery-th
	// event per stage is timed. 0 means DefaultSampleEvery; negative
	// disables latency sampling entirely (counters stay on).
	SampleEvery int
	// TraceEvery enables per-tuple tracing of every TraceEvery-th
	// published tuple. 0 (the default) disables tracing.
	TraceEvery int
	// TraceSeed offsets the systematic trace sampler's phase, so
	// repeated runs can trace different tuple cohorts deterministically.
	TraceSeed int64
	// TraceCap bounds retained traces (FIFO eviction); 0 means 256.
	TraceCap int
}

// NumStripes shards each stage's tick counter. Hot stages are recorded
// from many goroutines at once (one delivery proxy per subscriber, one
// broker per overlay node), and a single shared counter would make
// them false-share one cache line; striping keeps the counting cost at
// one *uncontended* atomic add. Each stripe is an independent
// systematic sampling clock, so the overall sampled fraction stays
// 1-in-sampleEvery. Power of two: stripe hints are reduced by masking.
const NumStripes = 16

// stripedTick is one cache-line-padded shard of a stage counter.
type stripedTick struct {
	n atomic.Int64
	_ [7]int64
}

// stageState is one stage's always-on counter (doubling as the sampling
// clock, striped against recorder contention) plus its sampled latency
// histogram. The histogram is shared: only 1-in-sampleEvery events
// touch it, which amortises its contention to noise.
type stageState struct {
	ticks [NumStripes]stripedTick
	lat   Histogram
}

// count sums the stripes — the stage's exact event count.
func (st *stageState) count() int64 {
	var n int64
	for i := range st.ticks {
		n += st.ticks[i].n.Load()
	}
	return n
}

// Metrics is the per-system observability hub. One instance is shared
// by every component of a core.System (brokers, processors, delivery
// proxies, the transport server).
type Metrics struct {
	sampleEvery int64 // 0 = sampling disabled; immutable
	stages      [NumStages]stageState
	tracer      tracer
}

// New builds a Metrics hub. A nil result is never returned; callers may
// still hold a nil *Metrics (fully disabled) — every method tolerates
// it.
func New(o Options) *Metrics {
	se := int64(o.SampleEvery)
	switch {
	case se == 0:
		se = DefaultSampleEvery
	case se < 0:
		se = 0
	}
	m := &Metrics{sampleEvery: se}
	m.tracer.init(o)
	return m
}

// StageStart counts one event at stage s on stripe 0. When the event
// is chosen for latency sampling it returns the start timestamp to
// pass to StageEnd; otherwise (and on a nil receiver) it returns 0.
// Call sites with a natural concurrent identity (worker, proxy, broker
// node, session) should use StageStartAt instead.
//
//cosmos:hotpath
func (m *Metrics) StageStart(s Stage) int64 { return m.StageStartAt(s, 0) }

// StageStartAt is StageStart on the stripe selected by hint (reduced
// modulo NumStripes). Distinct concurrent recorders should pass
// distinct hints so their counting never contends on one cache line.
//
//cosmos:hotpath
func (m *Metrics) StageStartAt(s Stage, hint int) int64 {
	if m == nil {
		return 0
	}
	n := m.stages[s].ticks[hint&(NumStripes-1)].n.Add(1)
	if m.sampleEvery > 0 && n%m.sampleEvery == 0 {
		return Now()
	}
	return 0
}

// StageStartN counts n events at stage s on stripe 0 (batch call
// sites). The batch is timed when it crosses a sampling boundary.
//
//cosmos:hotpath
func (m *Metrics) StageStartN(s Stage, n int64) int64 { return m.StageStartNAt(s, n, 0) }

// StageStartNAt is StageStartN on the stripe selected by hint.
//
//cosmos:hotpath
func (m *Metrics) StageStartNAt(s Stage, n int64, hint int) int64 {
	if m == nil || n <= 0 {
		return 0
	}
	c := m.stages[s].ticks[hint&(NumStripes-1)].n.Add(n)
	if m.sampleEvery > 0 && c/m.sampleEvery != (c-n)/m.sampleEvery {
		return Now()
	}
	return 0
}

// StageEnd completes a sampled timing started by StageStart/StageStartN
// and returns the observed duration (0 when the event was unsampled).
//
//cosmos:hotpath
func (m *Metrics) StageEnd(s Stage, start int64) int64 {
	if m == nil || start == 0 {
		return 0
	}
	d := Now() - start
	if d < 0 {
		d = 0
	}
	m.stages[s].lat.Observe(d)
	return d
}

// StageCount returns the number of events counted at stage s (summed
// over the stripes).
func (m *Metrics) StageCount(s Stage) int64 {
	if m == nil {
		return 0
	}
	return m.stages[s].count()
}

// StageLatency snapshots stage s's sampled latency histogram.
func (m *Metrics) StageLatency(s Stage) HistSnapshot {
	if m == nil {
		return HistSnapshot{}
	}
	return m.stages[s].lat.Snapshot()
}

// SampleEvery reports the effective latency sampling period (0 =
// sampling disabled).
//
//cosmos:hotpath
func (m *Metrics) SampleEvery() int64 {
	if m == nil {
		return 0
	}
	return m.sampleEvery
}

// StageStats is the exported per-stage series: total event count, how
// many were latency-sampled, and the sampled latency distribution.
type StageStats struct {
	Stage   string
	Count   int64
	Sampled uint64
	Lat     HistSnapshot
}

// StageSnapshots returns one StageStats per stage, in Stage order.
func (m *Metrics) StageSnapshots() []StageStats {
	if m == nil {
		return nil
	}
	out := make([]StageStats, NumStages)
	for s := Stage(0); s < NumStages; s++ {
		lat := m.stages[s].lat.Snapshot()
		out[s] = StageStats{
			Stage:   s.String(),
			Count:   m.stages[s].count(),
			Sampled: lat.Count,
			Lat:     lat,
		}
	}
	return out
}

// WireStats is the TCP transport's series, filled by the daemon-side
// server (nil in embedded backends).
type WireStats struct {
	// Connections is the number of live client sessions.
	Connections int
	// Results / Batches / Bytes count result tuples, result 'D' frames,
	// and their payload bytes written since start. Bytes is the result
	// path alone: what clients publish counts below.
	Results int64
	Batches int64
	Bytes   int64
	// QueueDepth is the instantaneous sum of pending results across all
	// session result pumps.
	QueueDepth int
	// IngestTuples / IngestFrames / IngestBytes count the tuples clients
	// published over TCP and the server handed to their source ports,
	// the publish 'D' frames that carried them, and those frames'
	// payload bytes; AckBytes is what the acks answering them cost on the
	// way back.
	IngestTuples int64
	IngestFrames int64
	IngestBytes  int64
	AckBytes     int64
	// PublishWindow is the calling connection's own gauge, filled in by a
	// remote Client.Stats (a daemon-side snapshot leaves it zero): encoded
	// bytes Publish accepted that the server has not acknowledged yet.
	PublishWindow int
}
