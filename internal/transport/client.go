package transport

import (
	"bufio"
	crand "crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"cosmos/internal/stream"
)

// Client is a COSMOS service client: it registers streams, publishes
// tuples, and submits continuous queries over one TCP connection.
// Result tuples arrive asynchronously on per-query callbacks; a
// per-query end callback fires exactly once when the subscription
// terminates (local cancel, server shutdown, or connection loss).
// Publishing is pipelined through the connection's publish window — see
// Source.Publish for what its nil return means.
//
// A plain client (Dial) is fail-fast: connection loss ends every
// subscription with the error. A resilient client (DialConfig with a
// Resilience) instead reconnects with backoff and resumes its session at
// the server's new epoch — see Resilience. Calls made during an outage
// park until the connection is back (or the retry budget is spent); a
// call whose connection died mid-flight is retried on the next
// connection (at-least-once). Both data streams are exactly-once against
// a server that still holds the session: published tuples are resent
// from the server's applied sequence, results from the client's last
// contiguous one. Only a server that lost the session (a restart, the
// linger expired) or a window that overflowed while detached loses
// results, and each subscription reports that as a Gap.
type Client struct {
	addr      string
	res       Resilience
	resilient bool
	sessionID string
	hb        time.Duration

	// pub is the publish window. It has its own lock: Publish never
	// touches mu, and a Publish blocked on a full window never holds the
	// state lock the read loop needs.
	pub pubWindow

	mu         sync.Mutex
	cond       *sync.Cond              // broadcast on any state flip (up/terminal/failed/closed)
	conn       net.Conn                // guarded by mu
	w          *requestPump            // guarded by mu; the current connection's single writer
	readerDone chan struct{}           // guarded by mu; closed when the current connection's read loop exits
	up         bool                    // guarded by mu
	epoch      uint64                  // guarded by mu
	nextID     uint64                  // guarded by mu
	pending    map[uint64]*pendingCall // guarded by mu
	subs       map[string]*clientSub   // guarded by mu; by logical (first-assigned) tag
	byServer   map[string]*clientSub   // guarded by mu; by current server-side tag
	regs       []Request               // guarded by mu; stream registrations to replay on a fresh server
	sources    map[string]*Source      // guarded by mu; opened sources by stream name
	nextSrc    uint32                  // guarded by mu; last source id handed out
	dropTags   []string                // guarded by mu; server tags cancelled while disconnected
	owedGaps   []func()                // guarded by mu; gap reports a restore attempt learned, owed until one completes
	reconnects int                     // guarded by mu
	closed     bool                    // guarded by mu
	terminal   bool                    // guarded by mu; server announced graceful shutdown: loss is final
	failErr    error                   // guarded by mu; permanent failure (plain-client loss, retries exhausted)

	// The result stream as the read loop decodes it. Read loops run one
	// at a time (restore waits out the previous one), and the state
	// persists across them: delivery ids and sequences are per session.
	wireSubs   map[uint32]*wireSub // the read loop's alone
	lastResult uint64              // the read loop's alone; last contiguous result sequence

	stop      chan struct{} // closed by Close: aborts backoff waits and the pinger
	loops     sync.WaitGroup
	closeOnce sync.Once
	closeErr  error // written inside closeOnce
}

// pendingCall is one in-flight request. For a Submit, sub is registered
// by the READ LOOP the moment it processes the MsgOK — before it
// decodes any later frame — so a result or end push right behind the
// response can never slip through an unregistered window.
type pendingCall struct {
	ch    chan *Response
	sub   *clientSub
	hello bool // the read loop switches to framed reads when this OK arrives
}

// clientSub is one subscription's client-side state. The logical tag
// (the tag Submit returned) is stable across reconnects; the server
// tag changes when a reconnect had to resubmit from scratch.
type clientSub struct {
	cql      string
	userNode int
	onResult func(stream.Tuple)
	onEnd    func(error)
	onGap    func(Gap)

	mu      sync.Mutex
	logical string // guarded by mu
	server  string // guarded by mu
	ended   bool   // guarded by mu
}

// end fires onEnd exactly once.
func (cs *clientSub) end(err error) {
	cs.mu.Lock()
	if cs.ended {
		cs.mu.Unlock()
		return
	}
	cs.ended = true
	cs.mu.Unlock()
	if cs.onEnd != nil {
		cs.onEnd(err)
	}
}

// Sentinel state errors.
var (
	errClientClosed   = errors.New("transport: client closed")
	errServerShutdown = errors.New("transport: server shut down")
	errConnLost       = errors.New("transport: connection lost")
)

// Config tunes DialConfig.
type Config struct {
	// Resilience, when non-nil, turns on the reconnecting session
	// machinery with the given tuning (zero fields take defaults).
	// nil keeps the fail-fast behaviour of Dial.
	Resilience *Resilience
}

// Dial connects to a cosmosd server with fail-fast semantics.
func Dial(addr string) (*Client, error) { return DialConfig(addr, Config{}) }

// DialConfig connects with explicit configuration. The initial dial is
// always fail-fast (a wrong address should error immediately);
// resilience governs what happens after.
func DialConfig(addr string, cfg Config) (*Client, error) {
	c := &Client{
		addr:     addr,
		hb:       defaultHeartbeat,
		pending:  map[uint64]*pendingCall{},
		subs:     map[string]*clientSub{},
		byServer: map[string]*clientSub{},
		sources:  map[string]*Source{},
		wireSubs: map[uint32]*wireSub{},
		stop:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.pub.cond = sync.NewCond(&c.pub.mu)
	if cfg.Resilience != nil {
		c.resilient = true
		c.res = cfg.Resilience.withDefaults()
		c.hb = c.res.HeartbeatInterval
		var raw [12]byte
		if _, err := crand.Read(raw[:]); err != nil {
			return nil, fmt.Errorf("transport: session id: %v", err)
		}
		c.sessionID = hex.EncodeToString(raw[:])
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.w = newRequestPump(conn, &c.pub)
	c.up = true
	c.readerDone = make(chan struct{})
	c.loops.Add(1)
	go c.readLoop(conn, c.w, c.readerDone)
	// Every connection opens with a hello: it states the wire format
	// version and, for a resilient client, announces the resumable
	// session identity (plain clients send an empty one).
	hello, err, _ := c.roundTrip(&Request{Kind: MsgHello, SessionID: c.sessionID, WireVersion: wireVersion}, nil)
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("transport: hello: %v", err)
	}
	if err := checkWire(hello); err != nil {
		_ = c.Close()
		return nil, err
	}
	c.pub.attach(c.w, hello.Seq)
	if c.resilient {
		c.mu.Lock()
		c.epoch = 1
		c.mu.Unlock()
	}
	// Every client heartbeats so a server running with an idle timeout
	// never mistakes a quiet subscriber for a dead one.
	c.loops.Add(1)
	go c.pinger()
	return c, nil
}

// Close terminates the client; outstanding calls fail and every live
// subscription ends cleanly (onEnd(nil)). It first waits for the server
// to acknowledge what Publish accepted — for as long as the current
// connection can still deliver that; it does not wait out a reconnect —
// and returns an error if the server refused a published tuple or some
// stayed unacknowledged. A close during a reconnect backoff aborts the
// retry loop promptly. Idempotent.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.pub.drain()
		c.pub.fail(errClientClosed)
		c.mu.Lock()
		c.closed = true
		subs := c.dropSubsLocked()
		c.failPendingLocked()
		conn, w := c.conn, c.w
		c.cond.Broadcast()
		c.mu.Unlock()
		close(c.stop)
		// End subscriptions before the read loop can observe the closed
		// connection, so a user-initiated Close reads as a clean end,
		// not a connection error.
		for _, cs := range subs {
			cs.end(nil)
		}
		_ = conn.Close() // already tearing down; FIN errors are uninformative
		w.stop()
		c.loops.Wait()
	})
	return c.closeErr
}

// Reconnects reports how many times the client has re-established its
// session after a connection loss.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Epoch is the current session epoch (0 for plain clients, 1 after the
// initial hello, +1 per successful resume).
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// checkWire validates a hello OK: the server must speak this build's
// wire version. A violation (a server older than binary framing) is a
// protocol mismatch, reported by name instead of surfacing later as a
// decode error.
func checkWire(hello *Response) error {
	if hello.WireVersion != wireVersion {
		return fmt.Errorf("transport: server speaks wire version %d, this client speaks version %d (wire version mismatch)", hello.WireVersion, wireVersion)
	}
	return nil
}

// write queues one request on the current connection's writer, behind
// everything this client sent before it.
func (c *Client) write(req *Request) error {
	c.mu.Lock()
	w := c.w
	c.mu.Unlock()
	return w.enqueue(requestEntry{req: req})
}

// pinger sends a keepalive on the heartbeat interval while connected.
// A failed ping write is ignored — the read loop's deadline or decode
// error is the authoritative loss signal.
func (c *Client) pinger() {
	defer c.loops.Done()
	t := time.NewTicker(c.hb)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			up := c.up
			c.mu.Unlock()
			if up {
				_ = c.write(&Request{Kind: MsgPing})
			}
		}
	}
}

// ackEvery bounds the results a read loop leaves unacknowledged while
// more keep arriving.
const ackEvery = maxBatchTuples

// readLoop decodes what the server sends on conn, acknowledging results
// through w whenever it has read all that arrived.
func (c *Client) readLoop(conn net.Conn, w *requestPump, done chan struct{}) {
	defer c.loops.Done()
	defer close(done)
	// The decoder reads through an explicit bufio.Reader. gob never
	// over-reads from an io.ByteReader, so once the hello OK has been
	// decoded the loop can strip frame markers from the same reader
	// without losing buffered bytes — one decoder for the connection's
	// whole life (gob type definitions are sent once per stream;
	// restarting the decoder would desynchronise it).
	br := bufio.NewReaderSize(conn, 32<<10)
	dec := gob.NewDecoder(br)
	var idle time.Duration
	if c.resilient {
		idle = 3 * c.hb
	}
	// Nothing precedes the hello on a connection, and its OK is the last
	// unframed server→client message: bare gob until it arrives, marked
	// frames after.
	framed, acked := false, c.lastResult
	for {
		// Acknowledge what arrived when about to block, or once
		// ackEvery results went unacknowledged: a reader that never
		// catches up must still release the server's window.
		if c.lastResult > acked && (br.Buffered() == 0 || c.lastResult-acked >= ackEvery) {
			acked = c.lastResult
			w.ack(acked)
		}
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		marker, err := frameGob, error(nil)
		if framed {
			marker, err = br.ReadByte()
		}
		switch {
		case err != nil:
		case marker == frameGob:
			var resp Response
			if err = dec.Decode(&resp); err == nil && c.handleControl(&resp) && !framed {
				framed = true
				c.resumeResults(&resp)
				acked = c.lastResult
			}
		case marker == frameData || marker == frameSchema || marker == frameAck:
			err = c.readBinaryFrame(br, marker)
		default:
			err = fmt.Errorf("transport: unknown frame marker %#x (wire version mismatch?)", marker)
		}
		if err != nil {
			c.connLost(conn, err)
			return
		}
	}
}

// handleControl dispatches one gob control message: pushed ends and
// shutdown notices, or the response a pending call waits for. It reports
// whether the message was the OK of this connection's hello from a
// server speaking this build's wire version — from the next byte on, the
// stream is marker-framed.
func (c *Client) handleControl(resp *Response) (helloOK bool) {
	switch resp.Kind {
	case MsgEnd:
		c.handleEnd(resp)
		return false
	case MsgShutdown:
		// Graceful server shutdown: terminal on the wire. The MsgEnd
		// pushes that follow end each subscription cleanly; the client
		// must not reconnect-loop against the dying listener.
		c.mu.Lock()
		c.terminal = true
		c.cond.Broadcast()
		c.mu.Unlock()
		c.pub.fail(errServerShutdown)
		return false
	case MsgPong:
		return false
	}
	c.mu.Lock()
	pc := c.pending[resp.ID]
	delete(c.pending, resp.ID)
	// A server older than binary framing answers with a lower version
	// and keeps writing bare gob: stay unframed, DialConfig's checkWire
	// reports the mismatch.
	helloOK = pc != nil && pc.hello && resp.Kind == MsgOK && resp.WireVersion == wireVersion
	var lateEnd func()
	if pc != nil && pc.sub != nil {
		cs := pc.sub
		switch {
		case resp.Kind != MsgOK || resp.QueryTag == "":
			// Submit failed; no subscription came to exist.
		case c.closed:
			// Close already ended every subscription; ending this
			// one here keeps the exactly-once onEnd contract.
			lateEnd = func() { cs.end(nil) }
		default:
			cs.mu.Lock()
			if cs.logical == "" {
				cs.logical = resp.QueryTag
			}
			if cs.server != "" && cs.server != resp.QueryTag {
				delete(c.byServer, cs.server) // resubmitted under a new tag
			}
			cs.server = resp.QueryTag
			logical := cs.logical
			cs.mu.Unlock()
			c.subs[logical] = cs
			c.byServer[resp.QueryTag] = cs
		}
	}
	c.mu.Unlock()
	if lateEnd != nil {
		lateEnd()
	}
	if pc != nil {
		pc.ch <- resp
	}
	return helloOK
}

// resumeResults picks the result stream up where this connection's hello
// OK says it goes on: a server that did not hold the session starts a
// fresh stream, one that did resends from the client's last contiguous
// result or, when its window overflowed while detached, from the first
// it still holds.
func (c *Client) resumeResults(hello *Response) {
	switch {
	case hello.Epoch <= 1:
		c.lastResult, c.wireSubs = 0, map[uint32]*wireSub{}
	case hello.ResultSeq > c.lastResult+1:
		c.lastResult = hello.ResultSeq - 1
	}
}

// wireSub is the read loop's decode state for one delivery id,
// established by its 'S' frame.
type wireSub struct {
	arity   int
	members []wireMember
}

// readBinaryFrame consumes one length-prefixed binary frame (marker
// already read) into a pooled buffer and dispatches it. Any malformed
// byte returns an error — treated as connection loss, never a panic.
func (c *Client) readBinaryFrame(br *bufio.Reader, marker byte) error {
	bufp := getFrameBuf()
	defer putFrameBuf(bufp)
	b, err := readFrame(br, bufp)
	if err != nil {
		return err
	}
	switch marker {
	case frameAck:
		applied, refusal, err := decodeAck(b)
		if err != nil {
			return err
		}
		c.pub.ack(applied, refusal)
		return nil
	case frameSchema:
		id, arity, members, err := decodeSchemaFrame(b)
		if err != nil {
			return err
		}
		c.wireSubs[id] = &wireSub{arity: arity, members: members}
		return nil
	}
	return c.readResults(b)
}

// readResults decodes a result 'D' payload: each body once, into the
// frame's value arena, then each member it is for, aliasing the body's
// values or copied out (wireMember.lo) and checked against the member's
// schema before it is delivered. A frame that arrived before — a resend
// after a reconnect — is skipped whole; any other must continue the
// session's sequence.
func (c *Client) readResults(b []byte) error {
	id, count, first, err := decodeDataHeader(b)
	if err != nil {
		return err
	}
	if count == 0 {
		return fmt.Errorf("transport: empty data frame")
	}
	if first+uint64(count)-1 <= c.lastResult {
		return nil
	}
	if first != c.lastResult+1 {
		return fmt.Errorf("transport: result sequence %d does not continue %d", first, c.lastResult)
	}
	ws := c.wireSubs[id]
	if ws == nil {
		return fmt.Errorf("transport: data frame for unannounced delivery %d", id)
	}
	k := len(ws.members)
	pos := dataHeaderSize
	mapBytes := bitmapBytes(k)
	arena, err := frameArena(count, ws.arity, mapBytes, len(b)-pos)
	if err != nil {
		return err
	}
	var copied []stream.Value
	for i := 0; i < count; i++ {
		if len(b)-pos < mapBytes {
			return fmt.Errorf("transport: truncated match bitmap")
		}
		hits := b[pos : pos+mapBytes]
		if k > 1 && hits[mapBytes-1]>>((k-1)%8+1) != 0 {
			return fmt.Errorf("transport: match bitmap names members beyond the delivery's %d", k)
		}
		values := arena[i*ws.arity : (i+1)*ws.arity : (i+1)*ws.arity]
		ts, next, err := decodeValues(b, pos+mapBytes, values)
		if err != nil {
			return err
		}
		pos = next
		for j := range ws.members {
			if k > 1 && hits[j/8]&(1<<(j%8)) == 0 {
				continue
			}
			m := &ws.members[j]
			var vals []stream.Value
			if m.lo >= 0 {
				vals = values[m.lo : m.lo+len(m.idx) : m.lo+len(m.idx)]
			} else {
				from := len(copied)
				for _, col := range m.idx {
					copied = append(copied, values[col])
				}
				vals = copied[from:len(copied):len(copied)]
			}
			t, err := stream.NewTuple(m.schema, ts, vals...)
			if err != nil {
				return fmt.Errorf("transport: decoded result rejected: %v", err)
			}
			if m.cs == nil {
				// An 'S' frame can precede the submit OK naming its tag; the
				// first result cannot. None found: cancelled meanwhile.
				c.mu.Lock()
				m.cs = c.byServer[m.tag]
				c.mu.Unlock()
			}
			if m.cs != nil {
				m.cs.deliver(t)
			}
		}
		c.lastResult++
	}
	if pos != len(b) {
		return fmt.Errorf("transport: %d trailing bytes in data frame", len(b)-pos)
	}
	return nil
}

// deliver hands a result to the callback unless the subscription ended.
func (cs *clientSub) deliver(t stream.Tuple) {
	cs.mu.Lock()
	ended, fn := cs.ended, cs.onResult
	cs.mu.Unlock()
	if !ended && fn != nil {
		fn(t)
	}
}

func (c *Client) handleEnd(resp *Response) {
	c.mu.Lock()
	cs := c.byServer[resp.QueryTag]
	if cs != nil {
		c.forgetLocked(cs)
	}
	c.mu.Unlock()
	if cs == nil {
		return
	}
	var err error
	if resp.Error != "" {
		err = fmt.Errorf("transport: server: %s", resp.Error)
	}
	cs.end(err)
}

// connLost is the read loop's exit path: decide whether the loss is
// final (plain client, closed, terminal shutdown, retries exhausted)
// or retryable (resilient client — kick the reconnect loop and keep
// the subscriptions alive, parked).
func (c *Client) connLost(conn net.Conn, err error) {
	c.mu.Lock()
	if conn != c.conn {
		// A stale generation already replaced by a reconnect.
		c.mu.Unlock()
		return
	}
	wasUp := c.up
	c.up = false
	// Whatever made the read fail, this connection is over: closing it
	// unblocks a writer stuck on a dead peer, and the writer goes with it.
	_ = conn.Close()
	c.w.close()
	c.pub.detach()
	retryable := c.resilient && !c.closed && !c.terminal && c.failErr == nil
	if !retryable && !c.closed && !c.terminal && c.failErr == nil {
		c.failErr = fmt.Errorf("transport: connection lost: %v", err)
	}
	if c.failErr != nil {
		c.pub.fail(c.failErr)
	}
	c.failPendingLocked()
	var ended []*clientSub
	clean := c.closed || c.terminal
	if !retryable {
		ended = c.dropSubsLocked()
	}
	if retryable && wasUp {
		// First observer of this outage: start the reconnect loop.
		// (A loss during the resume phase keeps the existing loop.)
		c.loops.Add(1)
		go c.reconnectLoop()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cs := range ended {
		if clean {
			cs.end(nil)
		} else {
			cs.end(fmt.Errorf("transport: connection lost: %v", err))
		}
	}
}

// failPermanent records an unrecoverable resilience failure and ends
// every subscription with it.
func (c *Client) failPermanent(err error) {
	c.mu.Lock()
	if c.closed || c.terminal || c.failErr != nil {
		c.mu.Unlock()
		return
	}
	c.failErr = err
	c.pub.fail(err)
	ended := c.dropSubsLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cs := range ended {
		cs.end(err)
	}
}

// dropSubsLocked forgets every subscription and returns them, to be
// ended outside the lock. Callers hold c.mu.
func (c *Client) dropSubsLocked() []*clientSub {
	subs := slices.Collect(maps.Values(c.subs))
	c.subs, c.byServer = map[string]*clientSub{}, map[string]*clientSub{}
	return subs
}

// failPendingLocked fails every call in flight. Callers hold c.mu.
func (c *Client) failPendingLocked() {
	for id, pc := range c.pending {
		delete(c.pending, id)
		close(pc.ch)
	}
}

// forget drops cs from the subscription indexes and returns its server
// tag.
func (c *Client) forget(cs *clientSub) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forgetLocked(cs)
}

// forgetLocked is forget for callers that hold c.mu.
func (c *Client) forgetLocked(cs *clientSub) string {
	cs.mu.Lock()
	server, logical := cs.server, cs.logical
	cs.mu.Unlock()
	delete(c.subs, logical)
	delete(c.byServer, server)
	return server
}

// reconnectLoop re-establishes the session after a loss: exponential
// backoff + jitter between attempts, aborted promptly by Close, bounded
// by MaxRetries per outage.
func (c *Client) reconnectLoop() {
	defer c.loops.Done()
	lastErr := errors.New("connection lost")
	for attempt := 1; ; attempt++ {
		if c.res.MaxRetries > 0 && attempt > c.res.MaxRetries {
			c.failPermanent(fmt.Errorf("transport: reconnect failed after %d attempts: %v", c.res.MaxRetries, lastErr))
			return
		}
		select {
		case <-time.After(c.res.backoff(attempt)):
		case <-c.stop:
			return
		}
		c.mu.Lock()
		done := c.closed || c.terminal || c.failErr != nil
		c.mu.Unlock()
		if done {
			return
		}
		conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.restore(conn); err != nil {
			lastErr = err
			_ = conn.Close()
			c.mu.Lock()
			done := c.closed || c.terminal || c.failErr != nil
			c.mu.Unlock()
			if done {
				return
			}
			continue
		}
		return
	}
}

// restore runs the re-establishment protocol on a fresh connection: the
// hello (adopt whatever the server still has of the session, and resend
// both streams from where the other end stands), replay stream
// registrations when the server is fresh, re-open the sources and
// resend the publish window, then resubmit every subscription the
// server no longer holds (gap unknown). Any failure aborts the whole
// attempt; the reconnect loop retries it, and the gaps the aborted
// attempt learned stay owed to the attempt that completes.
func (c *Client) restore(conn net.Conn) error {
	// Wait out the previous connection's read loop first: it may still be
	// decoding buffered frames, and the hello below reports how far the
	// result stream got. The drain is bounded: the socket is closed (or
	// dead), so only the finite buffer remains.
	c.mu.Lock()
	prev, prevW := c.readerDone, c.w
	c.mu.Unlock()
	<-prev
	// The previous writer too: it reads the publish window's chunks, which
	// are about to be handed to the new one.
	prevW.stop()
	last := c.lastResult // no read loop runs: restore may read it
	done := make(chan struct{})
	c.mu.Lock()
	if c.closed || c.terminal {
		c.mu.Unlock()
		return errClientClosed
	}
	c.conn = conn
	c.readerDone = done
	w := newRequestPump(conn, &c.pub)
	c.w = w
	c.loops.Add(1)
	regs := slices.Clone(c.regs)
	var live []*clientSub
	var tags []string
	for _, cs := range c.subs {
		cs.mu.Lock()
		if !cs.ended && cs.server != "" {
			live = append(live, cs)
			tags = append(tags, cs.server)
		}
		cs.mu.Unlock()
	}
	sources := slices.Collect(maps.Values(c.sources))
	c.mu.Unlock()
	go c.readLoop(conn, w, done)

	hello, err, _ := c.roundTrip(&Request{Kind: MsgHello, SessionID: c.sessionID, ResumeTags: tags,
		LastSeq: c.pub.ackedSeq(), ResultSeq: last, WireVersion: wireVersion}, nil)
	if err != nil {
		return err
	}
	if err := checkWire(hello); err != nil {
		// A version mismatch will not heal by retrying (the server
		// changed under us): fail the session rather than loop.
		c.failPermanent(err)
		return err
	}
	epoch := hello.Epoch
	adopted := make(map[string]bool, len(hello.Tags))
	for _, tag := range hello.Tags {
		adopted[tag] = true
	}
	// The read loop has taken up the result stream where the OK says;
	// what lay between is gone for every subscription the hello adopted.
	var gap *Gap
	if epoch > 1 && hello.ResultSeq > last+1 {
		gap = &Gap{Epoch: epoch, From: last + 1, To: hello.ResultSeq - 1}
	}
	if len(adopted) == 0 {
		// Nothing survived server-side (fresh server, or the session
		// lingered out): replay stream registrations so resubmits and
		// later publishes find their streams. "already registered"
		// means the stream survived (same server, session expired) or
		// another client re-registered it first — both fine.
		for i := range regs {
			if _, err, _ := c.roundTrip(&regs[i], nil); err != nil &&
				!strings.Contains(err.Error(), "already registered") {
				return err
			}
		}
	}
	// Source ids are per connection server-side: bind them again, then let
	// the window go out from where the server says it stands. A stream
	// some other client has yet to re-register fails the attempt, like a
	// resubmit below; the loop retries.
	for _, src := range sources {
		if _, err, _ := c.roundTrip(&Request{Kind: MsgOpenSource, Stream: src.Stream(), Source: src.id}, nil); err != nil {
			return err
		}
	}
	c.pub.attach(w, hello.Seq)
	// The hello or resubmit that reveals a gap moves the session on, so
	// a later attempt cannot learn it again: it is owed until one
	// completes.
	oweGap := func(cs *clientSub, gap Gap) {
		c.mu.Lock()
		c.owedGaps = append(c.owedGaps, func() { c.applyGap(cs, gap) })
		c.mu.Unlock()
	}
	for i, cs := range live {
		if adopted[tags[i]] {
			if gap != nil {
				oweGap(cs, *gap)
			}
			continue
		}
		if _, err, _ := c.roundTrip(&Request{Kind: MsgSubmit, CQL: cs.cql, UserNode: cs.userNode}, cs); err != nil {
			// Retryable too: after a server restart another client
			// may not have re-registered the streams yet.
			return err
		}
		oweGap(cs, Gap{Epoch: epoch, Unknown: true})
	}
	c.mu.Lock()
	if w.dead() {
		// The connection died after the last round trip. Its read loop
		// saw the session still coming up and left the retry to this
		// loop, so the attempt fails instead of reporting a dead session
		// up; what it learned stays owed to the next one.
		c.mu.Unlock()
		return errors.New("transport: connection lost while resuming")
	}
	c.epoch = epoch
	c.up = true
	c.reconnects++
	drops, gaps := c.dropTags, c.owedGaps
	c.dropTags, c.owedGaps = nil, nil
	c.cond.Broadcast()
	c.mu.Unlock()
	// Gap callbacks — this attempt's and those a failed attempt left
	// owed — and the cleanup of tags cancelled while down run after the
	// session is up (they may issue calls of their own).
	for _, report := range gaps {
		report()
	}
	for _, tag := range drops {
		// Best-effort: the hello already cancelled unresumed tags, so
		// "unknown query" here is the common, fine, answer.
		_, _, _ = c.roundTrip(&Request{Kind: MsgCancel, QueryTag: tag}, nil)
	}
	return nil
}

// applyGap reports a delivery gap per the configured policy.
func (c *Client) applyGap(cs *clientSub, gap Gap) {
	if cs.onGap != nil {
		cs.onGap(gap)
	}
	if c.res.OnGap != GapError {
		return
	}
	_, _, _ = c.roundTrip(&Request{Kind: MsgCancel, QueryTag: c.forget(cs)}, nil)
	cs.end(fmt.Errorf("transport: delivery %s", gap))
}

// stateErr maps the client's current state to the error a failed call
// should surface.
func (c *Client) stateErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateErrLocked(errConnLost)
}

// stateErrLocked is the error a final state — closed, shut down,
// failed — makes calls fail with, and otherwise when it is none. Callers
// hold c.mu.
func (c *Client) stateErrLocked(otherwise error) error {
	switch {
	case c.closed:
		return errClientClosed
	case c.terminal:
		return errServerShutdown
	case c.failErr != nil:
		return c.failErr
	}
	return otherwise
}

// waitReady parks until the session is usable, or reports the terminal
// state error. Plain clients never park: any loss sets failErr.
func (c *Client) waitReady() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.up && c.stateErrLocked(nil) == nil {
		c.cond.Wait()
	}
	return c.stateErrLocked(nil)
}

// roundTrip sends one request on the current connection and waits for
// its response, without parking: internal restore traffic uses it while
// the session is down. connFail reports whether the failure was
// connection-level (retryable under resilience) rather than a server
// error.
func (c *Client) roundTrip(req *Request, sub *clientSub) (resp *Response, err error, connFail bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed, false
	}
	c.nextID++
	req.ID = c.nextID
	pc := &pendingCall{ch: make(chan *Response, 1), sub: sub, hello: req.Kind == MsgHello}
	c.pending[req.ID] = pc
	c.mu.Unlock()
	if err := c.write(req); err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: write: %v", err), true
	}
	r, ok := <-pc.ch
	if !ok {
		err := c.stateErr()
		return nil, err, errors.Is(err, errConnLost)
	}
	if r.Kind == MsgError {
		return nil, fmt.Errorf("transport: server: %s", r.Error), false
	}
	return r, nil, false
}

// call sends a request and waits for its response, parking across
// outages and retrying calls whose connection died mid-flight (which
// makes such calls at-least-once under resilience).
func (c *Client) call(req *Request) (*Response, error) { return c.callSub(req, nil) }

func (c *Client) callSub(req *Request, sub *clientSub) (*Response, error) {
	for {
		if err := c.waitReady(); err != nil {
			return nil, err
		}
		resp, err, connFail := c.roundTrip(req, sub)
		if err == nil {
			return resp, nil
		}
		if !connFail || !c.resilient {
			return nil, err
		}
	}
}

// Register announces a source stream hosted at an overlay node and, in
// the same round trip, opens it for publishing on this connection:
// Source(name) afterwards costs nothing. A resilient client records the
// registration for replay: after a reconnect to a fresh server it is
// repeated before anything is resubmitted.
func (c *Client) Register(info *stream.Info, node int) error {
	name := info.Schema.Stream
	req := &Request{Kind: MsgRegister, Info: ToWireInfo(info), Node: node, Source: c.newSourceID()}
	if _, err := c.call(req); err != nil {
		return err
	}
	c.mu.Lock()
	c.sources[name] = newSource(c, req.Source, info.Schema)
	if c.resilient {
		reg := Request{Kind: MsgRegister, Info: req.Info, Node: node, Source: req.Source}
		if i := slices.IndexFunc(c.regs, func(r Request) bool { return r.Info.Schema.Stream == name }); i >= 0 {
			c.regs[i] = reg
		} else {
			c.regs = append(c.regs, reg)
		}
	}
	c.mu.Unlock()
	return nil
}

func (c *Client) newSourceID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSrc++
	return c.nextSrc
}

// Source returns the publish port of a registered stream: the one
// Register opened, or — for a stream another session registered — one
// opened now by a control round trip that fetches the catalog's schema.
// An unknown stream fails here, promptly, not on a later Publish.
func (c *Client) Source(name string) (*Source, error) {
	c.mu.Lock()
	src := c.sources[name]
	c.mu.Unlock()
	if src != nil {
		return src, nil
	}
	id := c.newSourceID()
	resp, err := c.call(&Request{Kind: MsgOpenSource, Stream: name, Source: id})
	if err != nil {
		return nil, err
	}
	if len(resp.Infos) != 1 {
		return nil, fmt.Errorf("transport: open source %q: server sent %d catalog entries", name, len(resp.Infos))
	}
	info, err := FromWireInfo(resp.Infos[0])
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if src := c.sources[name]; src != nil {
		return src, nil // a concurrent open won; the spare id stays unused
	}
	src = newSource(c, id, info.Schema)
	c.sources[name] = src
	return src, nil
}

// Publish publishes one tuple on the source of its stream, opening it on
// first use: the one-shot form of Source(name) followed by
// Source.Publish, whose semantics it has.
func (c *Client) Publish(t stream.Tuple) error {
	src, err := c.Source(t.Schema.Stream)
	if err != nil {
		return err
	}
	return src.Publish(t)
}

// PublishWindow gauges the encoded bytes Publish has accepted that the
// server has not acknowledged yet.
func (c *Client) PublishWindow() int { return c.pub.depth() }

// Submit registers a continuous query for a user at an overlay node;
// results stream into onResult (which runs on the client's read-loop
// goroutine — per query, call order is wire order) until the
// subscription ends, each exactly once while the server holds the
// session. onEnd, which may be nil, fires exactly once: after a local
// Cancel or Close (nil error), a server-side end such as a graceful
// daemon shutdown (nil error), or an unrecoverable connection loss (the
// error). onGap, which may be nil, fires after every reconnect that lost
// results (see Gap); under GapError the subscription then ends with an
// error instead of continuing.
func (c *Client) Submit(cqlText string, userNode int, onResult func(stream.Tuple), onEnd func(error), onGap func(Gap)) (string, error) {
	cs := &clientSub{cql: cqlText, userNode: userNode, onResult: onResult, onEnd: onEnd, onGap: onGap}
	resp, err := c.callSub(&Request{Kind: MsgSubmit, CQL: cqlText, UserNode: userNode}, cs)
	if err != nil {
		return "", err
	}
	return resp.QueryTag, nil
}

// Cancel stops a query; its onEnd callback fires with a nil error.
// Cancelling during an outage succeeds locally at once (the server
// learns on the next reconnect — or never, which the session linger
// cleans up). Cancelling an already-ended or unknown subscription
// returns the server's error (or the closed-client error) without side
// effects.
func (c *Client) Cancel(tag string) error {
	c.mu.Lock()
	cs := c.subs[tag]
	if cs != nil && !c.up && c.resilient && c.stateErrLocked(nil) == nil {
		// Down: cancel locally without parking behind the backoff.
		c.dropTags = append(c.dropTags, c.forgetLocked(cs))
		c.mu.Unlock()
		cs.end(nil)
		return nil
	}
	c.mu.Unlock()
	if cs == nil {
		_, err := c.call(&Request{Kind: MsgCancel, QueryTag: tag})
		return err
	}
	cs.mu.Lock()
	server := cs.server
	cs.mu.Unlock()
	_, err := c.call(&Request{Kind: MsgCancel, QueryTag: server})
	c.forget(cs)
	cs.end(nil)
	return err
}

// Stats fetches daemon statistics.
func (c *Client) Stats() (SystemStats, error) {
	resp, err := c.call(&Request{Kind: MsgStats})
	if err != nil {
		return SystemStats{}, err
	}
	return resp.Stats, nil
}

// Catalog fetches the daemon's stream catalog, sorted by stream name.
func (c *Client) Catalog() ([]*stream.Info, error) {
	resp, err := c.call(&Request{Kind: MsgCatalog})
	if err != nil {
		return nil, err
	}
	infos := make([]*stream.Info, 0, len(resp.Infos))
	for _, w := range resp.Infos {
		info, err := FromWireInfo(w)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// Quiesce runs the server-side stabilisation barrier: it returns after
// no tuple is in flight anywhere in the deployment. On the publishing
// connection it is also the publish barrier: the request travels behind
// everything Publish accepted before it, the server applies frames in
// connection order, and the acks precede the OK — so a nil return means
// those tuples were all applied, and a refusal among them is returned
// here. Meaningful only while no client is concurrently publishing;
// meant for tests and readouts, never the steady-state path.
func (c *Client) Quiesce() error {
	if _, err := c.call(&Request{Kind: MsgQuiesce}); err != nil {
		return err
	}
	return c.pub.refusal()
}
