// Package faultnet wraps net.Conn and net.Listener with deterministic,
// seed-driven fault injection for resilience tests: connection drops at
// frame boundaries and mid-frame, added latency, stalls, and
// listener-level partitions. Any test that speaks TCP can route its
// traffic through a Proxy (or wrap its own listener) and get
// reproducible chaos from a seed instead of flaky timing tricks.
//
// Faults are decided by a single rand.Rand guarded by a mutex, so a
// given (seed, traffic shape) produces the same fault schedule across
// runs up to goroutine interleaving. Kill points are drawn uniformly
// from [KillEveryWrites/2, 3*KillEveryWrites/2) so resumes land at
// varied stream positions rather than a fixed cadence.
package faultnet

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the injected faults. The zero value injects nothing —
// the wrappers become transparent pass-throughs.
type Config struct {
	// Seed drives all randomised fault decisions. Two runs with the
	// same seed and traffic shape see the same fault schedule.
	Seed int64

	// KillEveryWrites, when > 0, severs the connection after roughly
	// this many server→client writes (frames). The exact count is
	// redrawn per connection from [n/2, 3n/2) so kills don't align
	// with a fixed stream position.
	KillEveryWrites int

	// MidFrameFraction is the probability (0..1) that a kill truncates
	// the final frame partway through instead of cutting cleanly at a
	// frame boundary — the receiver sees a short read mid-message.
	MidFrameFraction float64

	// CutAtBytes, when > 0, severs each connection after exactly this
	// many server→client bytes: the write that crosses the offset is
	// truncated at the precise byte and the connection killed. Unlike
	// KillEveryWrites (whole writes, jittered budgets), the cut lands
	// at a deterministic byte offset, so a test can provably truncate
	// inside a length-prefixed frame — the receiver holds a valid
	// prefix of the stream and nothing more.
	CutAtBytes int64

	// Latency delays every forwarded write by this much (both ways).
	Latency time.Duration

	// StallEvery, when > 0, pauses forwarding for StallFor after
	// roughly that many writes without killing the connection —
	// exercising heartbeat/idle-deadline paths.
	StallEvery int
	// StallFor is the stall duration (default 0 disables stalls even
	// when StallEvery is set).
	StallFor time.Duration
}

// ErrInjected is returned by wrapped conns whose connection was severed
// by an injected fault.
var ErrInjected = errors.New("faultnet: injected connection failure")

// injector owns the shared randomness and runtime switches for one
// Proxy or wrapped listener.
type injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	disabled    atomic.Bool // DisableFaults: stop injecting new faults
	partitioned atomic.Bool // Partition: refuse/sever all connections
	kills       atomic.Int64
}

func newInjector(cfg Config) *injector {
	return &injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// drawKillBudget picks the number of writes until the next kill for a
// fresh connection, or 0 when kills are disabled.
func (in *injector) drawKillBudget() int {
	n := in.cfg.KillEveryWrites
	if n <= 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	lo := n / 2
	if lo < 1 {
		lo = 1
	}
	return lo + in.rng.Intn(n) // [n/2, 3n/2)
}

func (in *injector) drawMidFrame() bool {
	if in.cfg.MidFrameFraction <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < in.cfg.MidFrameFraction
}

// drawTruncation picks how many bytes of an n-byte frame survive a
// mid-frame kill (at least 1, at most n-1 so the cut is visible).
func (in *injector) drawTruncation(n int) int {
	if n <= 1 {
		return n
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return 1 + in.rng.Intn(n-1)
}

func (in *injector) active() bool {
	return !in.disabled.Load()
}

// Conn wraps a net.Conn with fault injection on the Write path. Reads
// pass through untouched; severing the underlying conn surfaces on
// both directions naturally.
type Conn struct {
	net.Conn
	in *injector

	writes     atomic.Int64
	sent       atomic.Int64 // bytes forwarded, for CutAtBytes
	killBudget atomic.Int64 // writes remaining until an injected kill; <=0 disarmed
	killed     atomic.Bool
}

// WrapConn applies a fault profile to an existing connection. The
// returned conn shares the injector's seed stream with any sibling
// conns from the same listener/proxy.
func wrapConn(c net.Conn, in *injector) *Conn {
	fc := &Conn{Conn: c, in: in}
	fc.killBudget.Store(int64(in.drawKillBudget()))
	return fc
}

// Write forwards b, possibly delayed, truncated, or refused entirely
// according to the fault schedule.
func (c *Conn) Write(b []byte) (int, error) {
	if c.killed.Load() {
		return 0, ErrInjected
	}
	if c.in.partitioned.Load() && c.in.active() {
		c.kill()
		return 0, ErrInjected
	}
	if d := c.in.cfg.Latency; d > 0 && c.in.active() {
		time.Sleep(d)
	}
	if c.in.active() {
		if se, sf := c.in.cfg.StallEvery, c.in.cfg.StallFor; se > 0 && sf > 0 {
			if c.writes.Add(1)%int64(se) == 0 {
				time.Sleep(sf)
			}
		} else {
			c.writes.Add(1)
		}
		if budget := c.killBudget.Load(); budget > 0 {
			if c.killBudget.Add(-1) <= 0 {
				return c.killWrite(b)
			}
		}
		if cut := c.in.cfg.CutAtBytes; cut > 0 {
			sent := c.sent.Load()
			if sent+int64(len(b)) >= cut {
				// This write crosses the cut offset: forward the exact
				// prefix that reaches it, then sever.
				if keep := cut - sent; keep > 0 {
					_, _ = c.Conn.Write(b[:keep])
					c.sent.Add(keep)
				}
				c.kill()
				return 0, ErrInjected
			}
			c.sent.Add(int64(len(b)))
		}
	}
	return c.Conn.Write(b)
}

// killWrite executes an injected kill: either drop the frame whole or
// deliver a truncated prefix, then sever the connection.
func (c *Conn) killWrite(b []byte) (int, error) {
	if c.in.drawMidFrame() && len(b) > 1 {
		keep := c.in.drawTruncation(len(b))
		_, _ = c.Conn.Write(b[:keep])
	}
	c.kill()
	return 0, ErrInjected
}

func (c *Conn) kill() {
	if c.killed.CompareAndSwap(false, true) {
		c.in.kills.Add(1)
		_ = c.Conn.Close()
	}
}

// Listener wraps a net.Listener so every accepted conn carries the
// fault profile. Use it to fault-inject a server in-process; use Proxy
// to fault-inject a client's view of a remote server.
type Listener struct {
	net.Listener
	in *injector
}

// WrapListener applies a fault profile to a listener.
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, in: newInjector(cfg)}
}

// Accept waits for the next connection and wraps it. While partitioned,
// accepted connections are closed immediately.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.in.partitioned.Load() {
			_ = c.Close()
			continue
		}
		return wrapConn(c, l.in), nil
	}
}

// Kills reports how many connections the fault schedule has severed.
func (l *Listener) Kills() int { return int(l.in.kills.Load()) }

// Partition makes the listener drop new and existing traffic until
// Heal is called.
func (l *Listener) Partition() { l.in.partitioned.Store(true) }

// Heal ends a partition.
func (l *Listener) Heal() { l.in.partitioned.Store(false) }

// DisableFaults stops injecting new faults (existing connections keep
// flowing); used by tests to let a chaotic phase settle.
func (l *Listener) DisableFaults() { l.in.disabled.Store(true) }

// Proxy is a TCP proxy that forwards between clients and a target
// address, injecting faults on the server→client path (where result
// frames and publish acks flow) — or, built by NewUpstreamProxy, on the
// client→server path (where publish frames flow). Dial the proxy's Addr
// instead of the real server.
type Proxy struct {
	in       *injector
	ln       net.Listener
	target   string
	upstream bool // faults apply to client→server writes

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu; live client- and server-side conns
	closed bool                  // guarded by mu
	wg     sync.WaitGroup
}

// NewProxy listens on 127.0.0.1:0 and forwards every accepted
// connection to target with cfg's fault profile applied to the
// server→client byte stream.
func NewProxy(target string, cfg Config) (*Proxy, error) { return newProxy(target, cfg, false) }

// NewUpstreamProxy is NewProxy with cfg's fault profile applied to the
// client→server byte stream instead: kills count the client's writes and
// cuts land inside what it sends — a publisher's frames.
func NewUpstreamProxy(target string, cfg Config) (*Proxy, error) { return newProxy(target, cfg, true) }

func newProxy(target string, cfg Config, upstream bool) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{in: newInjector(cfg), ln: ln, target: target, upstream: upstream, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address; point clients here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Kills reports how many connections the fault schedule has severed.
func (p *Proxy) Kills() int { return int(p.in.kills.Load()) }

// Partition severs all live connections and refuses new ones until
// Heal; dials to the proxy still succeed but die immediately, like a
// network that eats packets.
func (p *Proxy) Partition() {
	p.in.partitioned.Store(true)
	p.mu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
}

// Heal ends a partition; new connections flow again.
func (p *Proxy) Heal() { p.in.partitioned.Store(false) }

// DisableFaults stops injecting new faults so in-flight traffic can
// settle; existing connections keep flowing.
func (p *Proxy) DisableFaults() { p.in.disabled.Store(true) }

// Close shuts the proxy down and severs everything through it.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.in.partitioned.Load() {
			_ = client.Close()
			continue
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = client.Close()
			_ = server.Close()
			return
		}
		p.conns[client] = struct{}{}
		p.conns[server] = struct{}{}
		p.mu.Unlock()
		// Faults apply to one direction: the injector wraps the conn
		// that direction's pipe writes to (the client-side conn for
		// server→client, the server-side one for an upstream proxy).
		var toClient, toServer io.Writer = client, server
		if p.upstream {
			toServer = wrapConn(server, p.in)
		} else {
			toClient = wrapConn(client, p.in)
		}
		p.wg.Add(2)
		go p.pipe(toClient, server, client, server)
		go p.pipe(toServer, client, client, server)
	}
}

// pipe copies src→dst until either side dies, then severs both so the
// endpoints see the failure promptly.
func (p *Proxy) pipe(dst io.Writer, src net.Conn, client, server net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	_, _ = io.CopyBuffer(dst, src, buf)
	_ = client.Close()
	_ = server.Close()
	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, server)
	p.mu.Unlock()
}
