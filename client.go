package cosmos

import (
	"context"
	"sync"

	"cosmos/internal/cbn"
	"cosmos/internal/core"
	"cosmos/internal/obs"
)

// Client is the transport-agnostic session surface of a COSMOS
// deployment: one programming model whether the system runs embedded in
// this process over the deterministic SimNet (Embed), embedded over the
// concurrent LiveNet (EmbedLive), or in a remote cosmosd daemon reached
// over TCP (Dial). The paper's point — consumers express interest
// through one profile abstraction regardless of where the query runs —
// carried onto the API: the same session code drives all three
// deployments, and the three backends deliver identical per-query result
// sequences for the same workload.
//
// A Client is safe for concurrent use on every backend (the
// synchronous System behind Embed serialises its own operations).
// Close tears down the client's sessions
// (every Subscription ends, every Source stops accepting); it
// does not stop an embedded deployment, whose owner keeps that
// responsibility (LiveSystem.Close), and for a remote deployment it
// closes only this connection, never the daemon.
type Client interface {
	// RegisterStream attaches a data source at an overlay node: the
	// schema floods into the catalog, the stream is advertised through
	// the CBN, and the returned Source publishes its tuples.
	RegisterStream(info *StreamInfo, node int) (Source, error)

	// Source returns the publish port of an already-registered stream —
	// the session-level counterpart of RegisterStream for processes
	// that publish into streams another session registered (the CBN
	// decouples the two: sources publish without knowing consumers, and
	// registration is one session's act on the shared catalog).
	Source(name string) (Source, error)

	// Submit registers the CQL continuous query on behalf of a user
	// attached at userNode and returns its live Subscription. The
	// subscription ends when ctx is done, Cancel is called, the client
	// closes, or the server side ends it (e.g. graceful daemon
	// shutdown); a nil ctx means background.
	Submit(ctx context.Context, cql string, userNode int) (*Subscription, error)

	// Catalog lists the deployment's registered streams — sources and
	// live result streams — sorted by name.
	Catalog() ([]*StreamInfo, error)

	// Stats snapshots deployment statistics: query/processor counts,
	// per-processor load, and per-link network counters (the same shape
	// on SimNet and LiveNet). Under live traffic the snapshot is not a
	// consistent cut; Quiesce first for exact readouts.
	Stats() (SystemStats, error)

	// Quiesce blocks until no tuple is in flight anywhere in the
	// deployment. It is a stabilisation barrier for tests, experiment
	// readouts and control-plane settling (subscription propagation is
	// asynchronous on concurrent transports) — never a data-path step:
	// results stream continuously without it. Only meaningful while no
	// source is concurrently publishing. It is also the publish barrier
	// of the client it is called on: what that client's sources accepted
	// before the call has been applied when it returns (see
	// Source.Publish).
	Quiesce() error

	// Close ends every subscription opened through this client (their
	// Results channels close after draining) and releases the client's
	// resources. Over Dial it first waits for the daemon to acknowledge
	// what Source.Publish accepted, and returns an error if the daemon
	// refused a tuple or some stayed unacknowledged. Idempotent.
	Close() error
}

// Source publishes one registered source stream into the data layer.
// Implementations are safe for concurrent use on every backend.
type Source interface {
	// Stream returns the source's stream name.
	Stream() string
	// Schema returns the stream's schema — what Publish validates
	// tuples against and what callers need to build them.
	Schema() *Schema
	// Publish injects one tuple of the source's stream. A tuple of
	// another layout than Schema's is refused by the call itself, on
	// every backend. Beyond that, a nil return means accepted, and how
	// far accepted reaches is the backend's: on Embed the routing
	// cascade has already run; on EmbedLive the tuple is in the source
	// node's inbox (Publish blocks while the node's ingress credits are
	// exhausted); over Dial it is encoded into the connection's publish
	// window, to be sent in order and acknowledged by the daemon later
	// (Publish blocks while the window is full — the daemon's pushback).
	// There a refusal by the daemon cannot fail the call that carried
	// the tuple: it is returned by the next Publish, by Quiesce and by
	// Close on that client, and sticks. Quiesce on the publishing
	// client is the barrier after which every accepted tuple has been
	// applied; Close waits for the acknowledgements too. With
	// WithResilience, accepted tuples survive a reconnect and are
	// applied exactly once by a daemon that still holds the session (at
	// most one window of them twice by one that restarted).
	Publish(t Tuple) error
}

// SystemStats is the deployment statistics snapshot Client.Stats
// reports — identical shape on every backend.
type SystemStats = core.SystemStats

// LinkStats holds one overlay link's traffic counters (data and control
// plane), accounted on both the simulated and the live network.
type LinkStats = cbn.LinkStats

// Observability surface: the per-stage / per-plan / per-worker series
// carried inside SystemStats (identical shape on every backend, gob-
// shipped verbatim over the TCP transport), plus the tuple-trace
// records retained when Options.Obs.TraceEvery > 0.
type (
	// StageStats is one data-path stage's series: total event count and
	// the sampled latency histogram (ingest, route, exec, deliver, wire).
	StageStats = obs.StageStats
	// HistSnapshot is a mergeable log-linear latency histogram snapshot;
	// Quantile(0.5|0.99|0.9999) reads p50/p99/p99.99.
	HistSnapshot = obs.HistSnapshot
	// PlanStats is one installed plan's execution series plus the
	// queries it serves.
	PlanStats = core.PlanStats
	// WorkerStats is one exec worker's queue gauge and throughput.
	WorkerStats = core.WorkerStats
	// WireStats is the TCP result path's series (daemon side only).
	WireStats = obs.WireStats
	// ObsOptions configures sampling and tracing (Options.Obs).
	ObsOptions = obs.Options
	// Trace is one sampled tuple's per-stage latency breakdown.
	Trace = obs.Trace
)

// Subscription is one live continuous query's result session. Results
// arrive on the Results channel in delivery order (per query, the total
// emission order of its plan — identical across backends for the same
// workload). The channel is fed through an elastic buffer, so a slow
// consumer never blocks the deployment's data path; it closes after the
// subscription ends AND the buffer has drained, at which point Err
// reports the terminal status.
//
// Consumers MUST drain Results until it closes — ranging over the
// channel does this naturally, and SubmitFunc does it for callback
// consumers. After Cancel (or context cancellation, client Close,
// server-side end) the already-buffered results are still delivered
// before the channel closes; a consumer that abandons the channel
// without draining parks the subscription's delivery goroutine and its
// buffer for the process lifetime.
type Subscription struct {
	out  chan Tuple
	done chan struct{} // closed when the pump exits (out is closed)

	// cancel is the backend hook tearing the query down; runs at most
	// once.
	cancel     func() error
	cancelOnce sync.Once
	cancelErr  error

	mu    sync.Mutex
	cond  *sync.Cond
	tag   string
	queue []Tuple
	gaps  []Gap
	ended bool
	err   error
}

// newSubscription builds a subscription and starts its delivery pump.
// The backend feeds it via push and terminates it via end; cancel is
// installed by the backend before the subscription is returned to the
// user.
func newSubscription() *Subscription {
	s := &Subscription{out: make(chan Tuple, 64), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

// Tag returns the query tag identifying this subscription in the
// deployment (the result stream carries the same name).
func (s *Subscription) Tag() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tag
}

func (s *Subscription) setTag(tag string) {
	s.mu.Lock()
	s.tag = tag
	s.mu.Unlock()
}

// Results returns the result channel. It closes after the subscription
// ends and every buffered result has been delivered.
func (s *Subscription) Results() <-chan Tuple { return s.out }

// Err returns the terminal status once Results has closed: nil after a
// clean end (Cancel, context cancellation, client Close, graceful
// server shutdown), the cause otherwise (e.g. a lost connection).
// Before the channel closes — including while buffered results are
// still draining after the terminating event — it returns nil.
func (s *Subscription) Err() error {
	select {
	case <-s.done:
	default:
		return nil // still delivering; no terminal status yet
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Cancel tears the query down. Buffered results still drain to the
// Results channel, which then closes. Idempotent; safe after the client
// closed (the teardown is then already done and Cancel reports nil).
func (s *Subscription) Cancel() error {
	s.cancelOnce.Do(func() {
		s.mu.Lock()
		ended := s.ended
		s.mu.Unlock()
		// An already-ended subscription (client Close, server-side end)
		// needs no backend teardown: Cancel is then a clean no-op.
		if !ended && s.cancel != nil {
			s.cancelErr = s.cancel()
		}
		s.end(nil)
	})
	return s.cancelErr
}

// Gaps reports the delivery gaps a resilient connection (Dial with
// WithResilience) recorded on this subscription: one entry per
// reconnect that lost results. A daemon that still holds the session
// resends whatever the outage kept from the subscriber, so results are
// exactly-once and no gap is recorded; results are lost — and a gap
// recorded — only when the daemon dropped them (more than a window of
// results while the session was away) or no longer knew the session (a
// restart, or its linger expired). Always empty on embedded backends and
// fail-fast connections. Safe to call at any time; the slice is a
// snapshot in reconnect order.
func (s *Subscription) Gaps() []Gap {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Gap, len(s.gaps))
	copy(out, s.gaps)
	return out
}

// addGap records a delivery gap (resilient remote backend only).
func (s *Subscription) addGap(g Gap) {
	s.mu.Lock()
	s.gaps = append(s.gaps, g)
	s.mu.Unlock()
}

// push enqueues one result; never blocks (the queue is elastic).
// Deliveries after the subscription ended are dropped.
func (s *Subscription) push(t Tuple) {
	s.mu.Lock()
	if !s.ended {
		s.queue = append(s.queue, t)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// end marks the subscription terminated; the first cause wins. The pump
// drains what is queued and closes the channel.
func (s *Subscription) end(err error) {
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.err = err
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// pump is the delivery loop: it moves batches from the elastic queue to
// the consumer channel, and closes the channel once the subscription has
// ended and the queue is dry.
func (s *Subscription) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.ended {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		ended := s.ended
		s.mu.Unlock()
		for _, t := range batch {
			s.out <- t
		}
		if ended {
			s.mu.Lock()
			drained := len(s.queue) == 0
			s.mu.Unlock()
			if drained {
				// done first: a consumer unblocked by the channel
				// close must observe the terminal status via Err.
				close(s.done)
				close(s.out)
				return
			}
		}
	}
}

// watchContext cancels the subscription when ctx ends; the watcher
// goroutine exits with the subscription.
func (s *Subscription) watchContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			_ = s.Cancel()
		case <-s.done:
		}
	}()
}

// SubmitFunc is the callback form of Client.Submit, kept as a thin
// adapter over the Subscription session: a goroutine drains the result
// channel into fn (per-query order preserved; fn runs on that single
// goroutine) until the subscription ends.
func SubmitFunc(ctx context.Context, c Client, cql string, userNode int, fn func(Tuple)) (*Subscription, error) {
	sub, err := c.Submit(ctx, cql, userNode)
	if err != nil {
		return nil, err
	}
	go func() {
		for t := range sub.Results() {
			fn(t)
		}
	}()
	return sub, nil
}
