package load

import (
	"sync"
	"sync/atomic"
	"time"

	"cosmos/internal/obs"
)

// Recorder is the delivery-side ledger of a paced run: per-subscription
// sequence tracking (loss, duplication, reordering) plus the shared
// end-to-end latency histogram. Latency is measured from each tuple's
// *intended* publish offset (stamped by the pacer), so scheduling
// backlog on the publish side counts against delivery latency — the
// coordinated-omission guard's receiving half.
type Recorder struct {
	start     time.Time
	lat       obs.Histogram
	svc       obs.Histogram
	delivered atomic.Int64

	mu     sync.Mutex
	tracks []*Track // guarded by mu
}

// NewRecorder builds a recorder measuring latency against the given run
// epoch (the pacer's Start).
func NewRecorder(start time.Time) *Recorder {
	return &Recorder{start: start}
}

// Track is one subscription's sequence ledger. Deliveries must arrive
// with strictly increasing sequence numbers advancing by the track's
// stride: a repeat or regression counts as a duplicate, a forward jump
// counts the skipped sequences as lost. By default the first delivery
// is free (a subscription joining mid-stream has no provable first due
// sequence); Expect pins the exact first due sequence for subscriptions
// settled behind a quiesced boundary, making the ledger exact end to
// end.
type Track struct {
	stride int64

	mu        sync.Mutex
	started   bool  // guarded by mu
	hasExpect bool  // guarded by mu
	expect    int64 // guarded by mu
	last      int64 // guarded by mu
	dups      int64 // guarded by mu
	holes     int64 // guarded by mu
	closed    bool  // guarded by mu
}

// NewTrack registers a subscription ledger expecting sequences to
// advance by stride (1 for a sub that sees every source tuple, 2 for
// e.g. an auction query matching every other close).
func (r *Recorder) NewTrack(stride int64) *Track {
	if stride <= 0 {
		stride = 1
	}
	t := &Track{stride: stride}
	r.mu.Lock()
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

// Observe records one delivery on a track: seq is the tuple's carried
// sequence number, pubNanos its intended publish offset from the run
// epoch, actNanos the offset at which it was actually published (< 0
// when the scenario cannot carry it). The intended-based measurement is
// the headline (coordinated-omission-safe: publish backlog counts); the
// actual-based one is the service latency of the delivery path alone.
// Safe for concurrent use across tracks and within one track.
func (r *Recorder) Observe(t *Track, seq, pubNanos, actNanos int64) {
	now := int64(time.Since(r.start))
	lat := now - pubNanos
	if lat < 0 {
		lat = 0
	}
	r.lat.Observe(lat)
	if actNanos >= 0 {
		svc := now - actNanos
		if svc < 0 {
			svc = 0
		}
		r.svc.Observe(svc)
	}
	r.delivered.Add(1)
	t.record(seq)
}

func (t *Track) record(seq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.started = true
		t.last = seq
		// A declared first due sequence turns a late-starting stream
		// into accounted loss instead of a free pass.
		if t.hasExpect && seq > t.expect {
			t.holes += (seq - t.expect) / t.stride
		}
		return
	}
	switch {
	case seq <= t.last:
		t.dups++
	case seq == t.last+t.stride:
		t.last = seq
	default:
		// Forward jump: every skipped stride slot was lost. A
		// misaligned jump (not a stride multiple) still rounds to at
		// least one loss.
		missed := (seq - t.last) / t.stride
		if missed < 2 {
			missed = 2
		}
		t.holes += missed - 1
		t.last = seq
	}
}

// Expect declares the track's exact first due sequence — for
// subscriptions whose propagation was settled (quiesced) before any
// matching tuple was published. Without it the first delivery is free
// and tail loss is only charged once the track has started.
func (t *Track) Expect(firstSeq int64) *Track {
	t.mu.Lock()
	t.hasExpect = true
	t.expect = firstSeq
	t.mu.Unlock()
	return t
}

// Close marks the track's subscription deliberately cancelled: it is
// exempt from tail-loss accounting (AddTailLoss) from then on.
func (t *Track) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// Closed reports whether the track was cancelled.
func (t *Track) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// AddTailLoss charges a still-open track for the distance between its
// last seen sequence and the stream's final sequence — deliveries that
// were due but never arrived before the drain deadline. A track that
// never started is charged from its declared first due sequence
// (Expect); without a declaration nothing is provably due, so it is
// only charged once it has delivered at least once.
func (t *Track) AddTailLoss(finalSeq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	from := t.last
	if !t.started {
		if !t.hasExpect {
			return
		}
		from = t.expect - t.stride
	}
	if finalSeq > from {
		t.holes += (finalSeq - from) / t.stride
	}
}

// Settled reports whether the track has seen every sequence due up to
// finalSeq — the drain loop's completion test. Closed tracks are always
// settled; an unstarted track is settled only when nothing was provably
// due (no declared start, or the declared start lies beyond finalSeq).
func (t *Track) Settled(finalSeq int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return true
	}
	if !t.started {
		return !t.hasExpect || finalSeq < t.expect
	}
	return t.last+t.stride > finalSeq
}

// Delivered returns the total deliveries observed across all tracks.
func (r *Recorder) Delivered() int64 { return r.delivered.Load() }

// Totals sums the per-track ledgers: lost sequence slots (in-stream
// holes plus charged tail loss) and duplicated/reordered deliveries.
func (r *Recorder) Totals() (lost, dups int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tracks {
		t.mu.Lock()
		lost += t.holes
		dups += t.dups
		t.mu.Unlock()
	}
	return lost, dups
}

// LatencySnapshot returns the end-to-end latency histogram (measured
// from intended publish times).
func (r *Recorder) LatencySnapshot() obs.HistSnapshot { return r.lat.Snapshot() }

// SvcSnapshot returns the service-latency histogram (measured from
// actual publish times); empty when the scenario does not stamp them.
func (r *Recorder) SvcSnapshot() obs.HistSnapshot { return r.svc.Snapshot() }
