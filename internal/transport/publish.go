package transport

import (
	"encoding/gob"
	"fmt"
	"net"

	"cosmos/internal/stream"
)

// The publish path, client side. Source.Publish encodes the tuple into
// the connection's publish window and returns; the connection's one
// writer goroutine (requestPump) puts what accumulated on the socket,
// the server applies frames in connection order and answers each with a
// cumulative ack, and the read loop releases what the ack covers. That
// one mechanism is the pushback (a full window blocks Publish, while the
// server's loop is parked in its source port on the deployment's ingress
// credits and TCP carries the stall back), the memory bound (the window
// is a constant), and the resume (after a reconnect the hello reports
// the applied sequence and only what lies beyond it is sent again).

// windowBytes bounds the encoded bytes one connection holds published
// but unacknowledged — it is also the most a resilient client can repeat
// against a server that lost the session (a restart) — and the results a
// server holds for a detached session (resultWindow).
const windowBytes = 256 << 10

// Source publishes one registered stream through the connection. Obtain
// it from Client.Source; it stays valid across a resilient client's
// reconnects.
type Source struct {
	c      *Client
	id     uint32 // client-chosen, per session; names the source in 'D' frames
	schema *stream.Schema
	// errSchema is the precomputed refusal for tuples of another layout.
	errSchema error
}

func newSource(c *Client, id uint32, schema *stream.Schema) *Source {
	return &Source{c: c, id: id, schema: schema,
		errSchema: fmt.Errorf("transport: tuple does not carry the registered schema %s", schema)}
}

// Stream returns the source's stream name.
func (s *Source) Stream() string { return s.schema.Stream }

// Schema returns the stream's schema: the one the source was registered
// with on this client, or the catalog's as of the open.
func (s *Source) Schema() *stream.Schema { return s.schema }

// Publish accepts one tuple into the connection's publish window. A nil
// return means accepted, not applied: the tuple is encoded and will be
// sent, in order with everything else this connection sends, and the
// server's acknowledgement arrives later (Client.Quiesce and Client.Close
// wait for it). The layout is checked here, synchronously, because
// publish frames carry values, not attribute names: the server can check
// arity and kinds but only this side can tell a reordered layout from the
// registered one. Publish blocks while the window is full, and returns
// the connection's sticky error — a server refusal, a lost or closed
// connection, a shut-down server — once there is one. Under resilience
// the window is resent from the server's applied sequence after a
// reconnect: exactly-once against a server that still holds the session,
// at most one window repeated against one that does not.
func (s *Source) Publish(t stream.Tuple) error {
	if t.Schema != s.schema && !s.schema.Equal(t.Schema) {
		return s.errSchema
	}
	return s.c.pub.publish(s, t)
}

// pubWindow is one client's publish state: a window of encoded 'D'
// frames (window.go) keyed by source — a change of source starts the
// next frame, so one connection's publishes stay totally ordered across
// its sources — plus the sticky error Publish returns.
type pubWindow struct {
	window[*Source]
	err     error // under the window's mu; sticky: Publish returns it from then on
	refused bool  // under the window's mu; err is a server refusal
}

//cosmos:hotpath
func (p *pubWindow) publish(s *Source, t stream.Tuple) error {
	p.mu.Lock()
	for p.err == nil && p.bytes >= windowBytes {
		p.cond.Wait()
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	c := p.tail()
	buf := *c.buf
	before := len(buf)
	if !p.continues(s) {
		buf = p.openFrame(s, buf)
		buf = appendDataHeader(buf, s.id, p.seq+1)
	}
	*c.buf = appendTuple(buf, p.frameN == 0, p.frameTs, t)
	p.accepted(c, before, t.Ts)
	p.mu.Unlock()
	return nil
}

// ack is the read loop's hand-off of one 'A' frame.
func (p *pubWindow) ack(applied uint64, refusal string) {
	p.mu.Lock()
	p.release(applied)
	if refusal != "" && p.err == nil {
		p.err = fmt.Errorf("transport: server refused publish: %s", refusal)
		p.refused = true
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// attach resumes publishing on the connection w writes, whose hello
// reported applied.
func (p *pubWindow) attach(w *requestPump, applied uint64) {
	p.mu.Lock()
	p.window.attach(w.queueFlush, applied)
	p.mu.Unlock()
}

// fail makes err the sticky publish error unless there already is one.
func (p *pubWindow) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// refusal reports the server's sticky refusal, if there is one.
func (p *pubWindow) refusal() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refused {
		return p.err
	}
	return nil
}

// drain waits until every accepted tuple is acknowledged, for as long as
// that can still happen on the current connection, and reports what
// Close should: the refusal, or how many tuples stayed unacknowledged.
func (p *pubWindow) drain() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.err == nil && len(p.chunks) > 0 && p.flush != nil {
		p.cond.Wait()
	}
	switch {
	case p.refused:
		return p.err
	case len(p.chunks) > 0:
		cause := p.err
		if cause == nil {
			cause = errConnLost
		}
		return fmt.Errorf("transport: %d published tuples unacknowledged at close: %v", p.seq-p.acked, cause)
	}
	return nil
}

// ackedSeq is the highest sequence a server acknowledged.
func (p *pubWindow) ackedSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked
}

// requestPump is the client side of a connection: every client→server
// message — the hello, control requests, pings, publish frames, result
// acks — goes through its one writer goroutine, so what one goroutine
// sends in some order reaches the server in that order (a Submit or
// Quiesce issued after a Publish is applied after it). It owns the
// connection's gob encoder; one pump lives as long as its connection.
type requestPump struct {
	*pump[requestEntry]
	conn   net.Conn
	enc    *gob.Encoder
	win    *pubWindow
	chunks [][]byte // takeUnsent's scratch

	acks   acker // the session's last contiguous result sequence
	ackBuf [ackHeaderSize]byte
}

// requestEntry is one queued write: a control Request, (flush) the
// publish window's unsent chunks as of when the writer gets to it, or
// (ack) the latest result ack.
type requestEntry struct {
	req   *Request
	flush bool
	ack   bool
}

func newRequestPump(conn net.Conn, win *pubWindow) *requestPump {
	// The buffer is gob's own size: chunks above it pass straight through.
	p := &requestPump{pump: newPump[requestEntry](conn, 4096), conn: conn, win: win}
	p.enc = gob.NewEncoder(p.bw)
	p.process = p.writeEntries
	go p.run()
	return p
}

// queueFlush is the publish window's flush hook while p is attached.
func (p *requestPump) queueFlush() { _ = p.enqueue(requestEntry{flush: true}) }

// ack acknowledges every result through seq to the server.
//
//cosmos:hotpath
func (p *requestPump) ack(seq uint64) {
	if p.acks.set(seq) {
		_ = p.enqueue(requestEntry{ack: true}) // a dead writer means a lost connection
	}
}

// stop ends the writer and waits for it; the caller has closed (or is
// done with) the connection, so a write in flight fails promptly.
func (p *requestPump) stop() {
	p.close()
	<-p.done
}

func (p *requestPump) writeEntries(batch []requestEntry) bool {
	wrote := false
	for i := range batch {
		if p.dead() {
			return wrote
		}
		var err error
		switch e := &batch[i]; {
		case e.flush:
			p.chunks = p.win.takeUnsent(p.chunks[:0])
			for _, chunk := range p.chunks {
				if _, err = p.bw.Write(chunk); err != nil {
					break
				}
			}
			clear(p.chunks)
			if err == nil {
				p.win.wrote()
			}
		case e.ack:
			err = p.writeFrame(frameAck, appendAck(p.ackBuf[:0], p.acks.take(), ""))
		default:
			// The hello is the connection's one unframed request.
			if e.req.Kind != MsgHello {
				err = p.bw.WriteByte(frameGob)
			}
			if err == nil {
				err = p.enc.Encode(e.req)
			}
		}
		if err != nil {
			// The read loop owns loss handling: closing the connection
			// makes it notice.
			p.fail(err)
			_ = p.conn.Close()
			return wrote
		}
		wrote = true
	}
	return wrote
}
