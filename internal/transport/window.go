package transport

import "sync"

// A window is one direction of a session's data stream as its sender
// holds it: the encoded frames it accepted, in chunks, numbered by one
// session-wide sequence, kept until the receiver's cumulative ack covers
// them. This is upstream backup (Fragkoulis et al., PAPERS.md): the
// client keeps what it published (pubWindow), the server what it
// delivered (resultWindow), and after a reconnect either resends what
// lies beyond the sequence the other end reports in the hello — so both
// directions are exactly-once against a session that survived.
//
// A chunk is what the writer puts on the socket in one write and what an
// ack releases; within it, consecutive tuples under one frame key (a
// source, a delivery) share a 'D' frame. chunks[:sent] are written and
// await their ack, chunks[sent:taken] are with the writer, and the rest
// — normally just the last, still growing — wait for it, so a batch is
// whatever accumulated while the previous write was in flight.
type window[K comparable] struct {
	mu   sync.Mutex
	cond *sync.Cond // space freed, window drained, writer detached, or (pubWindow) err set

	// flush queues a flush entry on the attached writer; nil while no
	// connection is attached.
	flush  func() // guarded by mu
	queued bool   // guarded by mu; a flush entry for the unsent chunks is in the writer's queue
	// fences are, per flush entry queued ahead of a control frame, the
	// last sequence it may carry: what is encoded after a control frame
	// was queued must not overtake it (resultPump.send).
	fences []uint64 // guarded by mu
	cut    bool     // guarded by mu; the next tuple starts a new chunk
	seq    uint64   // guarded by mu; sequence of the last accepted tuple
	acked  uint64   // guarded by mu; highest sequence the receiver acknowledged
	bytes  int      // guarded by mu; encoded bytes held in chunks
	chunks []chunk  // guarded by mu
	sent   int      // guarded by mu
	taken  int      // guarded by mu
	// through is the last sequence a writer took: the most a receiver can
	// have seen, and so acknowledge.
	through uint64 // guarded by mu

	// The open frame: the last frame of the last chunk while that chunk is
	// not taken.
	frameOpen bool // guarded by mu
	frameKey  K    // guarded by mu
	frameAt   int  // guarded by mu; offset of its header in the chunk
	frameN    int  // guarded by mu; tuples in it

	// sealed, when set, is told each sealed frame's payload length. Set
	// once, before the window is shared.
	//
	//cosmos:hotpath-ok — the result window's wire accounting: two atomic adds per frame
	sealed func(payload int)
}

// chunk is one pooled buffer of whole frames; last is the sequence of
// its final tuple.
type chunk struct {
	buf  *[]byte
	last uint64
}

// tail returns the chunk the next tuple is appended to, starting a new
// one when the last is taken, full or cut. Callers hold mu.
//
//cosmos:hotpath
func (w *window[K]) tail() *chunk {
	if n := len(w.chunks); n == w.taken || w.cut || len(*w.chunks[n-1].buf) >= batchSoftBytes {
		w.sealFrame()
		w.chunks = append(w.chunks, chunk{buf: getFrameBuf()})
		w.cut = false
	}
	return &w.chunks[len(w.chunks)-1]
}

// continues reports whether a tuple under key k joins the open frame.
// Callers hold mu.
//
//cosmos:hotpath
func (w *window[K]) continues(k K) bool {
	return w.frameOpen && w.frameKey == k && w.frameN < maxBatchTuples
}

// openFrame seals the open frame and starts a 'D' frame under key k at
// the end of buf, its length and count patched when it is sealed; the
// caller appends the data header. Callers hold mu.
//
//cosmos:hotpath
func (w *window[K]) openFrame(k K, buf []byte) []byte {
	w.sealFrame()
	w.frameOpen, w.frameKey, w.frameAt, w.frameN = true, k, len(buf), 0
	return append(buf, frameData, 0, 0, 0, 0)
}

// sealFrame closes the open frame, if any, by patching its length prefix
// and tuple count. Callers hold mu.
//
//cosmos:hotpath
func (w *window[K]) sealFrame() {
	if !w.frameOpen {
		return
	}
	buf := *w.chunks[len(w.chunks)-1].buf
	n := len(buf) - w.frameAt - frameHeaderSize
	putFrameHeader(buf[w.frameAt:], frameData, n)
	patchDataCount(buf[w.frameAt+frameHeaderSize:], w.frameN)
	var zero K
	w.frameOpen, w.frameKey = false, zero
	if w.sealed != nil {
		w.sealed(n)
	}
}

// accepted books one tuple appended to c (grown from before bytes) and
// makes sure a flush entry will carry it. Callers hold mu.
//
//cosmos:hotpath
func (w *window[K]) accepted(c *chunk, before int) {
	w.frameN++
	w.seq++
	c.last = w.seq
	w.bytes += len(*c.buf) - before
	if !w.queued && w.flush != nil {
		w.queued = true
		//lint:ignore hotpath once per writer cycle, not per tuple: queued stays set until the writer takes the chunks
		w.flush() // a dead writer means a lost connection, whose loss handling detaches it
	}
}

// fence keeps what is encoded from here on out of the flush entry
// already queued, if there is one: that entry stops at the current
// sequence, and the next tuple starts a chunk and queues an entry of its
// own — behind whatever the caller queues under the same lock. Callers
// hold w.mu.
func (w *window[K]) fence() {
	if !w.queued {
		return
	}
	w.sealFrame()
	w.fences = append(w.fences, w.seq)
	w.queued, w.cut = false, true
}

// takeUnsent hands the writer the chunks not yet taken that its flush
// entry carries, appended to scratch. The chunks stay in the window; the
// writer only reads them, and an ack releases none of them before wrote
// says the writer is done with them.
func (w *window[K]) takeUnsent(scratch [][]byte) [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	limit := w.seq
	if len(w.fences) > 0 {
		limit = w.fences[0]
		w.fences = w.fences[1:]
	} else {
		w.queued = false
		w.sealFrame()
	}
	for w.taken < len(w.chunks) && w.chunks[w.taken].last <= limit {
		scratch = append(scratch, *w.chunks[w.taken].buf)
		w.through = max(w.through, w.chunks[w.taken].last)
		w.taken++
	}
	return scratch
}

// wrote marks what takeUnsent handed out as written. An ack can overtake
// this call (the receiver may answer before the writer is scheduled
// again), so what it already covers is released here.
func (w *window[K]) wrote() {
	w.mu.Lock()
	w.sent = w.taken
	w.release(w.acked)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// release returns the sent chunks a cumulative ack covers to the pool.
// Callers hold mu.
func (w *window[K]) release(upto uint64) {
	w.acked = max(w.acked, upto)
	n := 0
	for n < w.sent && w.chunks[n].last <= w.acked {
		w.bytes -= len(*w.chunks[n].buf)
		putFrameBuf(w.chunks[n].buf)
		n++
	}
	if n > 0 {
		rest := copy(w.chunks, w.chunks[n:])
		clear(w.chunks[rest:])
		w.chunks = w.chunks[:rest]
		w.sent -= n
		w.taken -= n
	}
}

// dropAll returns every chunk to the pool. Callers hold mu and make sure
// no writer holds any of them.
func (w *window[K]) dropAll() {
	w.sealFrame()
	for _, c := range w.chunks {
		putFrameBuf(c.buf)
	}
	clear(w.chunks)
	w.chunks, w.bytes, w.sent, w.taken = w.chunks[:0], 0, 0, 0
}

// attach starts (or resumes) the stream on a connection whose hello
// reported upto: what that covers is released, everything else goes out
// again through flush. The previous connection's writer must have
// exited. Callers hold mu.
func (w *window[K]) attach(flush func(), upto uint64) {
	w.sent, w.taken = len(w.chunks), len(w.chunks) // no writer holds any of them
	w.release(upto)
	w.sent, w.taken = 0, 0
	w.flush = flush
	if w.queued = len(w.chunks) > 0; w.queued {
		flush()
	}
	w.cond.Broadcast()
}

// detach stops handing chunks to a writer whose connection is gone; the
// window keeps accepting.
func (w *window[K]) detach() {
	w.mu.Lock()
	w.flush, w.queued, w.fences = nil, false, nil
	w.cond.Broadcast()
	w.mu.Unlock()
}

// depth gauges the window: encoded bytes accepted and not acknowledged.
func (w *window[K]) depth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}
