package transport

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosmos/internal/obs"
	"cosmos/internal/stream"
)

// resultPump is one connection's single writer: every server→client
// message — results, OKs, pushes, pongs — is enqueued here and written
// by one goroutine (Hazelcast Jet's single-writer discipline). That
// goroutine owns the gob encoder, the bufio.Writer, the per-sub codec
// table and the scratch buffers, so the steady-state data path takes
// one short mutex hop (the enqueue) and then runs lock-free: batches
// of consecutive results for one subscription coalesce into a single
// 'D' frame, built in a pooled buffer and flushed on a bufio boundary
// or when the queue drains.
type resultPump struct {
	w      *connWriter   // shared gob encoder (control frames) + conn
	bw     *bufio.Writer // all frame bytes funnel through here
	stripe int           // obs counter stripe: pumps must not share one

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []pumpEntry // guarded by mu
	spare  []pumpEntry // guarded by mu; recycled second buffer; swap keeps enqueue alloc-free
	err    error       // guarded by mu; first write error; the pump is dead after
	closed bool        // guarded by mu
	idle   bool        // guarded by mu; queue empty AND everything flushed — drain's barrier

	// Single-writer state below: touched only by run()'s goroutine.
	subs   map[*subState]*pumpSub
	nextID uint32
}

// pumpSub is the pump's per-subscription encode state.
type pumpSub struct {
	id     uint32
	schema *stream.Schema
	codec  *tupleCodec
}

// pumpEntry is one queued write: either a control Response (resp set)
// or one result tuple (st set).
type pumpEntry struct {
	resp *Response
	st   *subState
	t    stream.Tuple
	seq  uint64
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
		w:      w,
		bw:     bufio.NewWriterSize(pumpWriter{w: w}, 32<<10),
		stripe: int(pumpSeq.Add(1)),
		subs:   map[*subState]*pumpSub{},
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// sendControl enqueues a control Response.
func (p *resultPump) sendControl(r *Response) error {
	return p.enqueue(pumpEntry{resp: r})
}

// sendResult enqueues one result tuple for st.
func (p *resultPump) sendResult(st *subState, t stream.Tuple, seq uint64) error {
	return p.enqueue(pumpEntry{st: st, t: t, seq: seq})
}

func (p *resultPump) enqueue(e pumpEntry) error {
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
func (p *resultPump) drain() {
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
func (p *resultPump) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *resultPump) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// run is the single writer. It swaps the queue against a recycled
// spare (no allocation at steady state), writes the batch, and flushes
// only when the queue goes dry — back-to-back deliveries ride the
// bufio boundary instead.
func (p *resultPump) run() {
	dirty := false // bytes sit in bw since the last flush
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
			p.idle = true
			p.cond.Broadcast()
			p.cond.Wait()
			p.idle = false
		}
		batch := p.queue
		p.queue = p.spare[:0]
		p.mu.Unlock()
		if p.process(batch) {
			dirty = true
		}
		for i := range batch {
			batch[i] = pumpEntry{} // drop tuple/Response refs before recycling
		}
		p.spare = batch[:0]
	}
}

// process writes one swapped-out batch; reports whether any bytes were
// written. Consecutive results for one subscription with contiguous
// sequences and the same schema coalesce into one 'D' frame.
func (p *resultPump) process(batch []pumpEntry) bool {
	wrote := false
	i := 0
	for i < len(batch) {
		if p.dead() {
			return wrote
		}
		e := &batch[i]
		if e.resp != nil {
			if p.writeControl(e.resp) {
				wrote = true
			}
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && j-i < maxBatchTuples {
			n := &batch[j]
			if n.resp != nil || n.st != e.st || n.t.Schema != e.t.Schema || n.seq != batch[j-1].seq+1 {
				break
			}
			j++
		}
		if p.writeBatch(batch[i:j]) {
			wrote = true
		}
		i = j
	}
	return wrote
}

func (p *resultPump) dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil || p.closed
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

// writeBatch emits one 'D' frame for run (all same sub, same schema,
// contiguous seqs), preceded by an 'S' frame when the subscription is
// new to this connection or its schema changed. The payload is built
// in a pooled buffer; at steady state the whole path allocates
// nothing.
func (p *resultPump) writeBatch(run []pumpEntry) bool {
	st := run[0].st
	ps := p.subs[st]
	schema := run[0].t.Schema
	wrote := false
	if ps == nil {
		p.nextID++
		ps = &pumpSub{id: p.nextID}
		p.subs[st] = ps
	}
	if ps.schema != schema {
		ps.schema = schema
		ps.codec = newTupleCodec(schema)
		bufp := getFrameBuf()
		*bufp = appendSchemaFrame((*bufp)[:0], ps.id, st.tag, schema)
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
		buf := appendDataHeader((*bufp)[:0], ps.id, run[0].seq)
		n := 0
		for n < len(run) && (n == 0 || len(buf) < batchSoftBytes) {
			buf = ps.codec.appendTuple(buf, run[n].t)
			n++
		}
		patchDataCount(buf, n)
		*bufp = buf
		// Wire-stage accounting per frame: n results, one batch, the
		// payload bytes; the sampled timing covers the buffered write.
		wm.results.Add(int64(n))
		wm.batches.Add(1)
		wm.bytes.Add(int64(len(buf)))
		start := wm.obs.StageStartNAt(obs.StageWire, int64(n), p.stripe)
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

// depth gauges the pump's pending-entry backlog.
func (p *resultPump) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// writeFrame emits marker + u32 length + payload onto bw.
func (p *resultPump) writeFrame(marker byte, payload []byte) bool {
	var hdr [5]byte
	hdr[0] = marker
	hdr[1] = byte(len(payload))
	hdr[2] = byte(len(payload) >> 8)
	hdr[3] = byte(len(payload) >> 16)
	hdr[4] = byte(len(payload) >> 24)
	if _, err := p.bw.Write(hdr[:]); err != nil {
		p.fail(err)
		return false
	}
	if _, err := p.bw.Write(payload); err != nil {
		p.fail(err)
		return false
	}
	return true
}
