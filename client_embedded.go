package cosmos

import (
	"context"
	"fmt"
	"sync"

	"cosmos/internal/core"
)

// Embed returns a Client session over an in-process synchronous System
// (SimNet): deterministic, single-threaded, the differential reference
// for the other backends. The caller keeps ownership of the system;
// Close tears down only this client's subscriptions. The System
// serialises its own operations, so the session is safe for concurrent
// use like the others, at the publishing throughput of one thread.
func Embed(sys *System) Client {
	return &embeddedClient{sys: sys, subs: map[*Subscription]*core.QueryHandle{}}
}

// EmbedLive returns a Client session over an in-process LiveSystem
// (LiveNet): results reach subscriptions while ingest continues, with
// the per-worker direct-publish data path beneath. The caller keeps
// ownership of the system — Close tears down this client's
// subscriptions, not the deployment (call LiveSystem.Close for that).
func EmbedLive(ls *LiveSystem) Client { return Embed(ls.System) }

// embeddedClient implements Client directly over core.System — one
// implementation for both in-process transports, since LiveSystem is a
// System deployed over the concurrent network.
type embeddedClient struct {
	sys *System

	mu     sync.Mutex
	subs   map[*Subscription]*core.QueryHandle
	closed bool
}

// embeddedSource wraps a source port into the session: publishes stop
// once the client closes, matching the remote backend.
type embeddedSource struct {
	c    *embeddedClient
	port *core.SourcePort
}

func (s embeddedSource) Stream() string  { return s.port.Stream() }
func (s embeddedSource) Schema() *Schema { return s.port.Schema() }
func (s embeddedSource) Publish(t Tuple) error {
	s.c.mu.Lock()
	closed := s.c.closed
	s.c.mu.Unlock()
	if closed {
		return fmt.Errorf("cosmos: client closed")
	}
	return s.port.Publish(t)
}

func (c *embeddedClient) RegisterStream(info *StreamInfo, node int) (Source, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("cosmos: client closed")
	}
	port, err := c.sys.RegisterStream(info, node)
	if err != nil {
		return nil, err
	}
	return embeddedSource{c: c, port: port}, nil
}

func (c *embeddedClient) Source(name string) (Source, error) {
	port, ok := c.sys.Source(name)
	if !ok {
		return nil, fmt.Errorf("cosmos: stream %q not registered", name)
	}
	return embeddedSource{c: c, port: port}, nil
}

func (c *embeddedClient) Submit(ctx context.Context, cql string, userNode int) (*Subscription, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("cosmos: client closed")
	}
	sub := newSubscription()
	h, err := c.sys.Submit(cql, userNode, sub.push)
	if err != nil {
		sub.end(err)
		return nil, err
	}
	sub.setTag(h.Tag)
	sub.cancel = func() error { return c.remove(sub, true) }
	c.mu.Lock()
	if c.closed {
		// Lost the race with Close: undo immediately.
		c.mu.Unlock()
		_ = c.sys.Cancel(h) // the query is ours alone; nothing else can have cancelled it
		sub.end(nil)
		return nil, fmt.Errorf("cosmos: client closed")
	}
	c.subs[sub] = h
	c.mu.Unlock()
	sub.watchContext(ctx)
	return sub, nil
}

// remove detaches one subscription from the system; inSystem guards the
// double-cancel race between Subscription.Cancel and Close.
func (c *embeddedClient) remove(sub *Subscription, inSystem bool) error {
	c.mu.Lock()
	h, ok := c.subs[sub]
	delete(c.subs, sub)
	c.mu.Unlock()
	if !ok || !inSystem {
		return nil
	}
	return c.sys.Cancel(h)
}

func (c *embeddedClient) Catalog() ([]*StreamInfo, error) {
	reg := c.sys.Catalog()
	var infos []*StreamInfo
	for _, name := range reg.Names() {
		if info, ok := reg.Lookup(name); ok {
			infos = append(infos, info)
		}
	}
	return infos, nil
}

func (c *embeddedClient) Stats() (SystemStats, error) {
	return c.sys.StatsSnapshot(), nil
}

func (c *embeddedClient) Quiesce() error {
	c.sys.Quiesce()
	return nil
}

func (c *embeddedClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	subs := c.subs
	c.subs = map[*Subscription]*core.QueryHandle{}
	c.mu.Unlock()
	for sub, h := range subs {
		_ = c.sys.Cancel(h)
		sub.end(nil)
	}
	return nil
}
