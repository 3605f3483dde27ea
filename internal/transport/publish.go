package transport

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"

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

// pubWindowBytes bounds the encoded bytes one connection holds published
// but unacknowledged. It is also the most a resilient client can repeat
// against a server that lost the session (a restart).
const pubWindowBytes = 256 << 10

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

// pubWindow is one client's publish state: the chunks of encoded 'D'
// frames that are not acknowledged yet, in sequence order. A chunk is
// what the writer puts on the socket in one write and what an ack
// releases; within it, consecutive tuples of one source share a frame
// and a change of source starts the next (one connection's publishes
// stay totally ordered across its sources). chunks[:sent] are written
// and await their ack, chunks[sent:taken] are with the writer, and the
// rest — normally just the last, still growing — wait for it, so a batch
// is whatever accumulated while the previous write was in flight.
type pubWindow struct {
	mu   sync.Mutex
	cond *sync.Cond // space freed, window drained, writer detached, or err set

	err     error        // guarded by mu; sticky: Publish returns it from then on
	refused bool         // guarded by mu; err is a server refusal
	w       *requestPump // guarded by mu; the live connection's writer; nil while down
	queued  bool         // guarded by mu; a flush entry for the unsent chunks is in w's queue
	seq     uint64       // guarded by mu; session publish sequence of the last accepted tuple
	acked   uint64       // guarded by mu; highest sequence a server acknowledged
	bytes   int          // guarded by mu; encoded bytes held in chunks
	chunks  []pubChunk   // guarded by mu
	sent    int          // guarded by mu
	taken   int          // guarded by mu

	// The open frame: the last frame of the last chunk while that chunk is
	// not taken; frameSrc is nil when there is none.
	frameSrc *Source // guarded by mu
	frameAt  int     // guarded by mu; offset of its header in the chunk
	frameN   int     // guarded by mu; tuples in it
}

// pubChunk is one pooled buffer of whole frames; last is the sequence of
// its final tuple.
type pubChunk struct {
	buf  *[]byte
	last uint64
}

//cosmos:hotpath
func (p *pubWindow) publish(s *Source, t stream.Tuple) error {
	p.mu.Lock()
	for p.err == nil && p.bytes >= pubWindowBytes {
		p.cond.Wait()
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	if n := len(p.chunks); n == p.taken || len(*p.chunks[n-1].buf) >= batchSoftBytes {
		p.sealFrame()
		p.chunks = append(p.chunks, pubChunk{buf: getFrameBuf()})
	}
	c := &p.chunks[len(p.chunks)-1]
	buf := *c.buf
	before := len(buf)
	if p.frameSrc != s || p.frameN == maxBatchTuples {
		p.sealFrame()
		p.frameSrc, p.frameAt, p.frameN = s, len(buf), 0
		buf = append(buf, frameData, 0, 0, 0, 0) // length patched when the frame is sealed
		buf = appendDataHeader(buf, s.id, p.seq+1)
	}
	buf = appendTuple(buf, t)
	*c.buf = buf
	p.frameN++
	p.seq++
	c.last = p.seq
	p.bytes += len(buf) - before
	if !p.queued && p.w != nil {
		p.queued = true
		//lint:ignore hotpath once per writer cycle, not per tuple: queued stays set until the writer takes the chunks
		_ = p.w.enqueue(requestEntry{flush: true}) // a dead writer means a lost connection: connLost detaches it
	}
	p.mu.Unlock()
	return nil
}

// sealFrame closes the open frame, if any, by patching its length prefix
// and tuple count. Callers hold p.mu.
//
//cosmos:hotpath
func (p *pubWindow) sealFrame() {
	if p.frameSrc == nil {
		return
	}
	buf := *p.chunks[len(p.chunks)-1].buf
	putFrameHeader(buf[p.frameAt:], frameData, len(buf)-p.frameAt-frameHeaderSize)
	patchDataCount(buf[p.frameAt+frameHeaderSize:], p.frameN)
	p.frameSrc = nil
}

// takeUnsent hands the writer every chunk not yet taken, appended to
// scratch. The chunks stay in the window; the writer only reads them,
// and an ack releases none of them before wrote says the writer is done
// with them.
func (p *pubWindow) takeUnsent(scratch [][]byte) [][]byte {
	p.mu.Lock()
	p.queued = false
	p.sealFrame()
	for _, c := range p.chunks[p.taken:] {
		scratch = append(scratch, *c.buf)
	}
	p.taken = len(p.chunks)
	p.mu.Unlock()
	return scratch
}

// wrote marks what takeUnsent handed out as written. An ack can overtake
// this call (the server may answer before the writer is scheduled
// again), so what it already covers is released here.
func (p *pubWindow) wrote() {
	p.mu.Lock()
	p.sent = p.taken
	p.release(p.acked)
	p.cond.Broadcast()
	p.mu.Unlock()
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

// release returns the sent chunks a cumulative ack covers to the pool.
// Callers hold p.mu.
func (p *pubWindow) release(applied uint64) {
	if applied > p.acked {
		p.acked = applied
	}
	n := 0
	for n < p.sent && p.chunks[n].last <= p.acked {
		p.bytes -= len(*p.chunks[n].buf)
		putFrameBuf(p.chunks[n].buf)
		n++
	}
	if n > 0 {
		rest := copy(p.chunks, p.chunks[n:])
		clear(p.chunks[rest:])
		p.chunks = p.chunks[:rest]
		p.sent -= n
		p.taken -= n
	}
}

// attach starts (or resumes) publishing on a connection whose hello
// reported applied: what that covers is released, everything else goes
// out again on w. The previous connection's writer must have exited.
func (p *pubWindow) attach(w *requestPump, applied uint64) {
	p.mu.Lock()
	p.sent, p.taken = len(p.chunks), len(p.chunks) // no writer holds any of them
	p.release(applied)
	p.sent, p.taken = 0, 0
	p.w = w
	if p.queued = len(p.chunks) > 0; p.queued {
		_ = w.enqueue(requestEntry{flush: true})
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// detach stops handing chunks to a writer whose connection is gone;
// Publish keeps filling the window until it is full.
func (p *pubWindow) detach() {
	p.mu.Lock()
	p.w, p.queued = nil, false
	p.cond.Broadcast()
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
	for p.err == nil && len(p.chunks) > 0 && p.w != nil {
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

// depth gauges the window: encoded bytes accepted and not acknowledged.
func (p *pubWindow) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// requestPump is the client side of a connection: every client→server
// message — the hello, control requests, pings, publish frames — goes
// through its one writer goroutine, so what one goroutine sends in some
// order reaches the server in that order (a Submit or Quiesce issued
// after a Publish is applied after it). It owns the connection's gob
// encoder; one pump lives as long as its connection.
type requestPump struct {
	*pump[requestEntry]
	conn   net.Conn
	enc    *gob.Encoder
	win    *pubWindow
	chunks [][]byte // takeUnsent's scratch
}

// requestEntry is one queued write: a control Request, or (flush) the
// publish window's unsent chunks as of when the writer gets to it.
type requestEntry struct {
	req   *Request
	flush bool
}

func newRequestPump(conn net.Conn, win *pubWindow) *requestPump {
	// The buffer is gob's own size: chunks above it pass straight through.
	p := &requestPump{pump: newPump[requestEntry](conn, 4096), conn: conn, win: win}
	p.enc = gob.NewEncoder(p.bw)
	p.process = p.writeEntries
	go p.run()
	return p
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
		if e := &batch[i]; e.flush {
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
		} else {
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
