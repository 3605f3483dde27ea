package cosmos

import (
	"context"

	"cosmos/internal/transport"
)

// Resilience tunes a remote client's reconnect/resubscribe machinery;
// pass it via WithResilience. See the field docs for defaults.
type Resilience = transport.Resilience

// Gap describes results lost across a reconnect — only ever results the
// daemon no longer had; Subscription.Gaps reports them.
type Gap = transport.Gap

// DialOption configures Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	resilience *Resilience
}

// WithResilience opts the connection into the reconnecting session
// machinery: on connection loss the client retries with exponential
// backoff + jitter, re-registers its streams when the server turned out
// to be fresh, and resumes the session at the server's new epoch: both
// directions — what Publish accepted, the results the subscriptions are
// owed — are exactly-once against a daemon that still holds the
// session, and what a daemon no longer had is recorded as a Gap on the
// Subscription instead of killing it; a consumer that cannot tolerate a
// gap checks Subscription.Gaps and cancels. Without this option (the
// zero state) a lost connection ends every subscription — the
// historical fail-fast behaviour.
func WithResilience(r Resilience) DialOption {
	return func(c *dialConfig) { c.resilience = &r }
}

// Dial returns a Client session over TCP to a cosmosd daemon. The
// daemon hosts the deployment (a LiveSystem by default, so the
// direct-publish data path carries results onto the wire with no
// stabilisation barrier); this client is one connection's view of it.
// Close ends this connection's subscriptions and releases the
// connection — the daemon keeps running.
func Dial(addr string, opts ...DialOption) (Client, error) {
	var cfg dialConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	tc, err := transport.DialConfig(addr, transport.Config{Resilience: cfg.resilience})
	if err != nil {
		return nil, err
	}
	return &remoteClient{tc: tc}, nil
}

// remoteClient implements Client over the internal/transport protocol.
// Subscription state lives in the transport client (which ends every
// subscription on connection loss or Close); this layer adapts its
// callback pairs onto Subscription sessions.
type remoteClient struct {
	tc *transport.Client
}

// The remote backend's Source is the transport's own: its Publish checks
// the tuple's layout against the source's schema before anything leaves
// the process, then accepts it into the connection's publish window (see
// Source.Publish in client.go).

func (c *remoteClient) RegisterStream(info *StreamInfo, node int) (Source, error) {
	if err := c.tc.Register(info, node); err != nil {
		return nil, err
	}
	return c.Source(info.Schema.Stream) // opened by the register: no second round trip
}

func (c *remoteClient) Source(name string) (Source, error) {
	// One control round trip resolves existence, opens the source on this
	// connection and fetches its schema, matching the embedded backends'
	// prompt unknown-stream error.
	src, err := c.tc.Source(name)
	if err != nil {
		return nil, err
	}
	return src, nil
}

func (c *remoteClient) Submit(ctx context.Context, cql string, userNode int) (*Subscription, error) {
	sub := newSubscription()
	// The callbacks run on the connection's read loop: push never
	// blocks (elastic buffer), so a slow consumer cannot stall other
	// subscriptions sharing the connection.
	tag, err := c.tc.Submit(cql, userNode, sub.push, sub.end, sub.addGap)
	if err != nil {
		sub.end(err)
		return nil, err
	}
	sub.setTag(tag)
	sub.cancel = func() error { return c.tc.Cancel(tag) }
	sub.watchContext(ctx)
	return sub, nil
}

func (c *remoteClient) Catalog() ([]*StreamInfo, error) { return c.tc.Catalog() }

func (c *remoteClient) Stats() (SystemStats, error) {
	st, err := c.tc.Stats()
	if err == nil && st.Wire != nil {
		st.Wire.PublishWindow = c.tc.PublishWindow()
	}
	return st, err
}

func (c *remoteClient) Quiesce() error { return c.tc.Quiesce() }

func (c *remoteClient) Close() error { return c.tc.Close() }
