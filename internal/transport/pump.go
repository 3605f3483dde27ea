package transport

import (
	"bufio"
	"encoding/gob"
	"io"
	"net"
	"sync/atomic"
	"time"

	"cosmos/internal/handoff"
)

// pump is one connection's single writer for one direction: everything
// that side sends is enqueued here and written by one goroutine
// (Hazelcast Jet's single-writer discipline). The goroutine takes the
// queued entries as one batch, hands it to process — which owns the gob
// encoder and the frame scratch, and so runs lock-free — and flushes
// the bufio.Writer only when the queue runs dry: whatever accumulated
// while the previous write was in flight forms the next batch. There is
// no linger timer and no batch-size setting. The server instantiates it
// with control/result-flush/ack entries (resultPump), the client with
// request/publish-flush/ack entries (requestPump); the direction lives
// entirely in process.
type pump[E any] struct {
	bw *bufio.Writer // all frame bytes funnel through here
	// process writes one taken batch onto bw and reports whether any
	// bytes were written; it calls fail on a write error. Set once,
	// before run starts.
	process func(batch []E) bool

	q handoff.Queue[E]
	// err is the first write error, or net.ErrClosed after close; the
	// pump is dead once it is set.
	err atomic.Pointer[error]

	hdr  [frameHeaderSize]byte // writeFrame's scratch (a local would escape through bw.Write)
	done chan struct{}         // closed when run returns
}

func newPump[E any](w io.Writer, bufSize int) *pump[E] {
	return &pump[E]{bw: bufio.NewWriterSize(w, bufSize), done: make(chan struct{})}
}

//cosmos:hotpath
func (p *pump[E]) enqueue(e E) error {
	if p.q.Push(e) {
		return nil
	}
	return *p.err.Load() // stop sets err before it closes the queue
}

// drain blocks until everything enqueued so far is on the wire (or the
// pump died). Used by the graceful shutdown after the final MsgEnd
// pushes, before the connection closes.
func (p *pump[E]) drain() { p.q.WaitIdle() }

// close stops the pump goroutine; entries still queued are dropped
// (their connection is going away).
func (p *pump[E]) close() { p.stop(net.ErrClosed) }

func (p *pump[E]) fail(err error) { p.stop(err) }

// stop kills the pump with err unless it is dead already.
func (p *pump[E]) stop(err error) {
	p.err.CompareAndSwap(nil, &err)
	p.q.Close()
}

func (p *pump[E]) dead() bool { return p.err.Load() != nil }

// depth gauges the pump's pending-entry backlog.
func (p *pump[E]) depth() int { return p.q.Len() }

// run is the single writer. It writes each batch and flushes only when
// the queue goes dry — back-to-back entries ride the bufio boundary
// instead. Once the pump is dead, what is still queued reaches process,
// which writes none of it, and nothing more is flushed.
func (p *pump[E]) run() {
	defer close(p.done)
	dirty := false // bytes sit in bw since the last flush
	for {
		batch := p.q.TryTake()
		if len(batch) == 0 {
			if dirty && !p.dead() {
				if err := p.bw.Flush(); err != nil {
					p.fail(err)
				}
				dirty = false
				continue // something may have arrived during the flush
			}
			if batch = p.q.Take(); len(batch) == 0 {
				return
			}
		}
		if p.process(batch) {
			dirty = true
		}
	}
}

// writeFrame emits marker + u32 length + payload onto bw.
func (p *pump[E]) writeFrame(marker byte, payload []byte) error {
	putFrameHeader(p.hdr[:], marker, len(payload))
	if _, err := p.bw.Write(p.hdr[:]); err != nil {
		return err
	}
	_, err := p.bw.Write(payload)
	return err
}

// acker coalesces a connection's cumulative acks of the other direction:
// the reading side records the sequence and queues one ack entry until
// the writer takes it, and the writer sends the latest. An entry queued
// ahead of a response thus acks at least what was received before it.
type acker struct {
	seq    atomic.Uint64
	queued atomic.Bool
}

// set records seq and reports whether an ack entry must be queued.
//
//cosmos:hotpath
func (a *acker) set(seq uint64) bool {
	a.seq.Store(seq)
	return !a.queued.Swap(true)
}

// take is the writer's: the sequence its ack entry sends.
func (a *acker) take() uint64 {
	a.queued.Store(false)
	return a.seq.Load()
}

// resultPump is the server side of a connection: every server→client
// message — OKs, pushes, pongs, publish acks, result chunks — goes
// through it from the connection's first byte. Its goroutine owns the
// gob encoder: one encoder for the connection's life, since gob emits
// type definitions once per stream. Control frames travel bare until the
// hello OK, which is the last unframed message; results reach the pump
// already encoded, as the session's result window (results.go). Once
// bounded (graceful shutdown), every write refreshes a per-write
// deadline: a healthy-but-slow drain keeps extending it, while a
// subscriber that stopped reading fails its write within the bound
// instead of stalling the drain forever.
type resultPump struct {
	*pump[pumpEntry]
	conn    *boundedConn
	enc     *gob.Encoder
	wire    *wireMetrics                 // server-wide wire accounting; never nil
	win     atomic.Pointer[resultWindow] // the session's results, set by the hello
	framed  bool                         // the writer's: the hello OK is written
	chunks  [][]byte                     // takeUnsent's scratch
	acks    acker                        // the session's applied publish sequence
	refusal atomic.Pointer[string]
	ackBuf  [ackHeaderSize]byte
}

// pumpEntry is one queued write: a control Response (resp set; hello
// marks the hello OK), the result window's unsent chunks as of when the
// writer gets to it (flush), or the publish ack (ack).
type pumpEntry struct {
	resp  *Response
	hello bool
	flush bool
	ack   bool
}

// writeBound is the per-write deadline applied during a graceful drain.
const writeBound = 5 * time.Second

// boundedConn applies the graceful-drain write bound to the bytes the
// bufio.Writer pushes down.
type boundedConn struct {
	net.Conn
	bounded atomic.Bool
}

func (c *boundedConn) Write(b []byte) (int, error) {
	if c.bounded.Load() {
		_ = c.SetWriteDeadline(time.Now().Add(writeBound))
	}
	return c.Conn.Write(b)
}

func newResultPump(conn net.Conn, wire *wireMetrics) *resultPump {
	bc := &boundedConn{Conn: conn}
	p := &resultPump{pump: newPump[pumpEntry](bc, 32<<10), conn: bc, wire: wire}
	p.enc = gob.NewEncoder(p.bw)
	p.process = p.writeEntries
	go p.run()
	return p
}

// send enqueues a control Response. Results encoded from here on travel
// behind it: a submit's OK precedes its first result.
func (p *resultPump) send(r *Response) error {
	if w := p.win.Load(); w != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.fence()
	}
	return p.enqueue(pumpEntry{resp: r})
}

// sendHello enqueues the hello OK and attaches the session's result
// window behind it, resending what lies beyond last. Callers hold w.mu.
func (p *resultPump) sendHello(ok *Response, w *resultWindow, last uint64) {
	p.win.Store(w)
	_ = p.enqueue(pumpEntry{resp: ok, hello: true})
	w.attach(p.queueFlush, min(last, w.through))
}

// queueFlush is the result window's flush hook while p is attached.
func (p *resultPump) queueFlush() { _ = p.enqueue(pumpEntry{flush: true}) }

// bound switches the writer to per-write deadlines and stamps an
// immediate absolute one, which also unblocks a Write already stuck on
// a full TCP buffer (deadlines apply to in-flight I/O).
func (p *resultPump) bound() {
	p.conn.bounded.Store(true)
	_ = p.conn.SetWriteDeadline(time.Now().Add(writeBound))
}

// wait returns once the writer goroutine has exited: it holds none of
// the result window's chunks from then on. Callers closed the pump and
// the connection, so a write in flight fails promptly.
func (p *resultPump) wait() { <-p.done }

// sendAck acknowledges the publishes applied so far; refusal, when
// non-empty, becomes the sticky error every later ack carries and the
// client's next Publish returns.
func (p *resultPump) sendAck(applied uint64, refusal string) error {
	if refusal != "" {
		r := refusal // a copy, so only a refusal moves to the heap
		p.refusal.Store(&r)
	}
	if p.acks.set(applied) {
		return p.enqueue(pumpEntry{ack: true})
	}
	return nil
}

// writeEntries writes one swapped-out batch; reports whether any bytes
// were written.
func (p *resultPump) writeEntries(batch []pumpEntry) bool {
	wrote := false
	for i := 0; i < len(batch) && !p.dead(); i++ {
		switch e := &batch[i]; {
		case e.ack:
			wrote = p.writeAck() || wrote
		case e.resp != nil:
			wrote = p.writeControl(e) || wrote
		case e.flush:
			wrote = p.writeResults() || wrote
		}
	}
	if p.dead() {
		// A failed write ends the connection: the serve loop's read then
		// fails too, and the session detaches its window.
		_ = p.conn.Close()
	}
	return wrote
}

// writeControl emits a control message: a 'G' frame — marker + one gob
// Response — or, up to the hello OK, the bare gob.
func (p *resultPump) writeControl(e *pumpEntry) bool {
	if p.framed {
		if err := p.bw.WriteByte(frameGob); err != nil {
			p.fail(err)
			return false
		}
	}
	if err := p.enc.Encode(e.resp); err != nil {
		p.fail(err)
		return false
	}
	p.framed = p.framed || e.hello
	return true
}

// writeAck emits an 'A' frame: the applied sequence, then the refusal
// text if there is one.
func (p *resultPump) writeAck() bool {
	refusal := ""
	if r := p.refusal.Load(); r != nil {
		refusal = *r
	}
	payload := appendAck(p.ackBuf[:0], p.acks.take(), refusal)
	p.wire.ackBytes.Add(int64(len(payload)))
	if err := p.writeFrame(frameAck, payload); err != nil {
		p.fail(err)
		return false
	}
	return true
}

// writeResults writes the result chunks a flush entry carries.
func (p *resultPump) writeResults() bool {
	w := p.win.Load()
	p.chunks = w.takeUnsent(p.chunks[:0])
	defer clear(p.chunks)
	for _, chunk := range p.chunks {
		if _, err := p.bw.Write(chunk); err != nil {
			p.fail(err)
			return false
		}
	}
	w.wrote()
	return len(p.chunks) > 0
}
