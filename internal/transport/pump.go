package transport

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/obs"
	"cosmos/internal/stream"
)

// pump is one connection's single writer for one direction: everything
// that side sends is enqueued here and written by one goroutine
// (Hazelcast Jet's single-writer discipline). The goroutine swaps the
// queue against a recycled spare, hands the batch to process — which
// owns the gob encoder and the frame scratch, and so runs lock-free —
// and flushes the bufio.Writer only when the queue runs dry: whatever
// accumulated while the previous write was in flight forms the next
// batch. There is no linger timer and no batch-size setting. The server
// instantiates it with result/control/ack entries (resultPump), the
// client with request/publish entries (requestPump); the direction
// lives entirely in process.
type pump[E any] struct {
	bw *bufio.Writer // all frame bytes funnel through here
	// process writes one swapped-out batch onto bw and reports whether
	// any bytes were written; it calls fail on a write error. Set once,
	// before run starts.
	process func(batch []E) bool

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []E   // guarded by mu
	err    error // guarded by mu; first write error; the pump is dead after
	closed bool  // guarded by mu
	idle   bool  // guarded by mu; queue empty AND everything flushed — drain's barrier

	hdr  [frameHeaderSize]byte // writeFrame's scratch (a local would escape through bw.Write)
	done chan struct{}         // closed when run returns
}

// Queue slices keep the capacity of the largest burst they carried. The
// pump drops them — so a warm-up burst does not pin its high-water mark
// for the connection's life — once it has gone idle pumpShrinkAfter
// times in a row without carrying, between two idles, a batch of even a
// pumpShrinkRatio-th of that capacity (slices of up to pumpKeepCap
// entries are always kept). Waiting that long is what keeps recurring
// bursts from dropping and regrowing the slices between each other,
// which costs more than the capacity it frees.
const (
	pumpShrinkRatio = 8
	pumpKeepCap     = 64
	pumpShrinkAfter = 1024
)

func newPump[E any](w io.Writer, bufSize int) *pump[E] {
	p := &pump[E]{bw: bufio.NewWriterSize(w, bufSize), done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	return p
}

//cosmos:hotpath
func (p *pump[E]) enqueue(e E) error {
	p.mu.Lock()
	if p.err != nil || p.closed {
		err := p.err
		p.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	p.queue = append(p.queue, e)
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// drain blocks until everything enqueued so far is on the wire (or the
// pump died). Used by the graceful shutdown after the final MsgEnd
// pushes, before the connection closes.
func (p *pump[E]) drain() {
	p.mu.Lock()
	// idle alone is not enough: it can be stale-true from before the
	// pump woke up to take a just-enqueued batch. The queue must also
	// be empty (once the pump swaps a batch out it clears idle before
	// releasing the lock, so empty+idle really means flushed).
	for (len(p.queue) > 0 || !p.idle) && p.err == nil && !p.closed {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// close stops the pump goroutine; entries still queued are dropped
// (their connection is going away).
func (p *pump[E]) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pump[E]) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pump[E]) dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil || p.closed
}

// depth gauges the pump's pending-entry backlog.
func (p *pump[E]) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// run is the single writer. It swaps the queue against a recycled
// spare (no allocation at steady state), writes the batch, and flushes
// only when the queue goes dry — back-to-back entries ride the bufio
// boundary instead.
func (p *pump[E]) run() {
	defer close(p.done)
	var spare []E  // the batch written last, recycled as the next queue
	dirty := false // bytes sit in bw since the last flush
	peak := 0      // longest batch since the pump last went idle
	slack := 0     // consecutive idles that found the slices oversized
	for {
		p.mu.Lock()
		for len(p.queue) == 0 {
			if p.closed || p.err != nil {
				p.mu.Unlock()
				return
			}
			if dirty {
				p.mu.Unlock()
				err := p.bw.Flush()
				dirty = false
				if err != nil {
					p.fail(err)
				}
				p.mu.Lock()
				continue // something may have arrived during the flush
			}
			if keep := max(pumpShrinkRatio*peak, pumpKeepCap); cap(p.queue) <= keep && cap(spare) <= keep {
				slack = 0
			} else if slack++; slack == pumpShrinkAfter {
				p.queue, spare, slack = nil, nil, 0
			}
			peak = 0
			p.idle = true
			p.cond.Broadcast()
			p.cond.Wait()
			p.idle = false
		}
		batch := p.queue
		p.queue = spare[:0]
		p.mu.Unlock()
		if p.process(batch) {
			dirty = true
		}
		peak = max(peak, len(batch))
		clear(batch) // drop tuple/request refs before recycling
		spare = batch
	}
}

// writeFrame emits marker + u32 length + payload onto bw.
func (p *pump[E]) writeFrame(marker byte, payload []byte) bool {
	putFrameHeader(p.hdr[:], marker, len(payload))
	if _, err := p.bw.Write(p.hdr[:]); err != nil {
		p.fail(err)
		return false
	}
	if _, err := p.bw.Write(payload); err != nil {
		p.fail(err)
		return false
	}
	return true
}

// resultPump is the server side of a connection: every server→client
// message — results, OKs, pushes, pongs, publish acks — goes through
// it. Its goroutine owns the gob encoder, the per-delivery id table and
// the scratch buffers: batches of consecutive results of one delivery
// coalesce into a single 'D' frame, built in a pooled buffer.
type resultPump struct {
	*pump[pumpEntry]
	w      *connWriter // shared gob encoder (control frames) + conn
	stripe int         // obs counter stripe: pumps must not share one

	// Single-writer state below: touched only by run()'s goroutine.
	deliveries map[*delivery]*pumpDelivery
	nextID     uint32
	ackBuf     [ackHeaderSize]byte // writeAck's scratch
}

// pumpDelivery is a delivery's id on this connection and its last layout.
type pumpDelivery struct {
	id  uint32
	lay *core.Layout
}

// pumpEntry is one queued write: a control Response (resp set), one
// result tuple (dl set: seqs holds, per member of lay, the sequence of
// its result, 0 for a member it is not for), or a cumulative publish ack
// (ack set: seq is the session's applied publish sequence, resp — when
// also set — carries the refusal).
type pumpEntry struct {
	resp *Response
	dl   *delivery
	lay  *core.Layout
	t    stream.Tuple
	seqs []uint64
	seq  uint64
	ack  bool
}

// pumpWriter applies the graceful-drain write bound to the bytes the
// bufio.Writer pushes down, mirroring connWriter.send's deadline.
type pumpWriter struct {
	w *connWriter
}

func (pw pumpWriter) Write(b []byte) (int, error) {
	if pw.w.bounded.Load() {
		_ = pw.w.conn.SetWriteDeadline(time.Now().Add(writeBound))
	}
	return pw.w.conn.Write(b)
}

// pumpSeq hands each pump a distinct obs counter stripe.
var pumpSeq atomic.Int64

func newResultPump(w *connWriter) *resultPump {
	p := &resultPump{
		pump:       newPump[pumpEntry](pumpWriter{w: w}, 32<<10),
		w:          w,
		stripe:     int(pumpSeq.Add(1)),
		deliveries: map[*delivery]*pumpDelivery{},
	}
	p.process = p.writeEntries
	return p
}

// sendControl enqueues a control Response.
func (p *resultPump) sendControl(r *Response) error {
	return p.enqueue(pumpEntry{resp: r})
}

// sendAck enqueues a cumulative publish ack; refusal, when non-empty,
// makes it the sticky error the client's next Publish returns.
func (p *resultPump) sendAck(applied uint64, refusal string) error {
	e := pumpEntry{ack: true, seq: applied}
	if refusal != "" {
		e.resp = &Response{Kind: MsgError, Error: refusal}
	}
	return p.enqueue(e)
}

// writeEntries writes one swapped-out batch; reports whether any bytes
// were written. Consecutive results of one delivery and layout coalesce
// into one 'D' frame: on one connection a member's sequences have no
// holes (held while gated; detached, a member is off the connection).
func (p *resultPump) writeEntries(batch []pumpEntry) bool {
	wrote, coalesced := false, false
	i := 0
	for i < len(batch) {
		if p.dead() {
			return wrote
		}
		e := &batch[i]
		if e.ack && !coalesced {
			// Only a publisher's connection carries acks: batches
			// without one never pay for the pass.
			coalesceAcks(batch[i:])
			coalesced = true
		}
		switch {
		case e.ack:
			if p.writeAck(e) {
				wrote = true
			}
			i++
			continue
		case e.resp != nil:
			if p.writeControl(e.resp) {
				wrote = true
			}
			i++
			continue
		case e.dl == nil:
			i++ // a superseded ack
			continue
		}
		j := i + 1
		for j < len(batch) && j-i < maxBatchTuples && batch[j].dl == e.dl && batch[j].lay == e.lay {
			j++
		}
		if p.writeBatch(batch[i:j]) {
			wrote = true
		}
		i = j
	}
	return wrote
}

// coalesceAcks blanks every plain ack that another follows before the
// next control frame: acks are cumulative, so the later one says it all,
// but none may move behind a later response — a Quiesce OK vouches for
// every ack before it. Refusals are never dropped.
func coalesceAcks(batch []pumpEntry) {
	later := false // a plain ack follows before the next control frame
	for i := len(batch) - 1; i >= 0; i-- {
		switch e := &batch[i]; {
		case e.ack && e.resp == nil:
			if later {
				*e = pumpEntry{}
			}
			later = true
		case e.resp != nil:
			later = false
		}
	}
}

// writeControl emits a 'G' frame: marker + one gob Response through
// the shared encoder (which targets bw after the upgrade).
func (p *resultPump) writeControl(r *Response) bool {
	if err := p.bw.WriteByte(frameGob); err != nil {
		p.fail(err)
		return false
	}
	//lint:ignore lockguard after the hello's upgrade the pump's writer goroutine owns the shared encoder; connWriter.send routes all control frames here instead of touching enc
	if err := p.w.enc.Encode(r); err != nil {
		p.fail(err)
		return false
	}
	return true
}

// writeAck emits an 'A' frame: the applied sequence, then the refusal
// text if there is one.
func (p *resultPump) writeAck(e *pumpEntry) bool {
	refusal := ""
	if e.resp != nil {
		refusal = e.resp.Error
	}
	payload := appendAck(p.ackBuf[:0], e.seq, refusal)
	p.w.wire.ackBytes.Add(int64(len(payload)))
	return p.writeFrame(frameAck, payload)
}

// writeBatch emits one 'D' frame for run (one delivery and layout,
// contiguous sequences per member), preceded by an 'S' frame when the
// delivery is new to this connection or its layout changed. The payload
// is built in a pooled buffer; at steady state the whole path allocates
// nothing.
func (p *resultPump) writeBatch(run []pumpEntry) bool {
	dl, lay := run[0].dl, run[0].lay
	pd := p.deliveries[dl]
	wrote := false
	if pd == nil {
		p.nextID++
		pd = &pumpDelivery{id: p.nextID}
		p.deliveries[dl] = pd
	}
	if pd.lay != lay {
		pd.lay = lay
		bufp := getFrameBuf()
		*bufp = appendSchemaFrame((*bufp)[:0], pd.id, lay)
		ok := p.writeFrame(frameSchema, *bufp)
		putFrameBuf(bufp)
		if !ok {
			return wrote
		}
		wrote = true
	}
	// Build 'D' frames, splitting on the soft byte cap.
	wm := p.w.wire
	bufp := getFrameBuf()
	defer putFrameBuf(bufp)
	for len(run) > 0 {
		buf := appendResultHeader((*bufp)[:0], pd.id, len(lay.Members))
		n, results := 0, 0
		for n < len(run) && (n == 0 || len(buf) < batchSoftBytes) {
			buf = appendResult(buf, &run[n], &results)
			n++
		}
		patchDataCount(buf, n)
		*bufp = buf
		// Wire-stage accounting per frame: the subscription results it
		// carries, one batch, the payload bytes; the sampled timing covers
		// the buffered write.
		wm.results.Add(int64(results))
		wm.batches.Add(1)
		wm.bytes.Add(int64(len(buf)))
		start := wm.obs.StageStartNAt(obs.StageWire, int64(results), p.stripe)
		ok := p.writeFrame(frameData, buf)
		wm.obs.StageEnd(obs.StageWire, start)
		if wm.obs.TraceOn() {
			for i := 0; i < n; i++ {
				wm.obs.TraceMark(int64(run[i].t.Ts), obs.StageWire)
			}
		}
		if !ok {
			return wrote
		}
		wrote = true
		run = run[n:]
	}
	return wrote
}
