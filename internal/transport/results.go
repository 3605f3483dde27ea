package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cosmos/internal/core"
	"cosmos/internal/obs"
	"cosmos/internal/stream"
)

// The result path, server side: the mirror of publish.go. A delivery
// proxy's Deliver encodes each result straight into its session's result
// window; the connection's pump puts what accumulated on the socket; the
// client's cumulative acks release it. Parked with its session, the
// window keeps accepting, and the adopting hello resends what lies beyond
// the client's last contiguous sequence. Only parked is it bounded: it
// drops everything past windowBytes, numbering on, and the hello OK
// reports the first sequence still held. Attached, it stays as elastic as
// the pump queue: on a synchronous System, a session that publishes and
// subscribes would otherwise wait, inside the System's lock, for an ack
// only its own serve goroutine can read.

// resultWindow is one session's results: a window keyed by delivery,
// whose frames coalesce consecutive results of one delivery and layout,
// plus the per-session delivery ids. 'S' frames travel in the window in
// stream order, in the chunk of the 'D' frame they announce, so a resend
// replays them before the results that need them.
type resultWindow struct {
	window[*delivery]
	wire   *wireMetrics
	stripe int // obs counter stripe: windows must not share one

	// Under the window's mu:
	nextID  uint32 // the last delivery id handed out
	gen     uint64 // bumped when an overflow drops the announcements
	dropped uint64 // the last sequence an overflow dropped
}

// windowSeq hands each result window a distinct obs counter stripe.
var windowSeq atomic.Int64

func newResultWindow(wire *wireMetrics) *resultWindow {
	w := &resultWindow{wire: wire, stripe: int(windowSeq.Add(1))}
	w.cond = sync.NewCond(&w.mu)
	w.sealed = func(payload int) {
		wire.batches.Add(1)
		wire.bytes.Add(int64(payload))
	}
	return w
}

// delivery receives one proxy's results, on the proxy's goroutine alone,
// and is the proxy's id on its session's stream.
type delivery struct {
	win *resultWindow
	// Under win.mu:
	id  uint32       // 0 until the first result
	lay *core.Layout // what its last 'S' frame announced
	gen uint64       // the window's gen at that 'S' frame
}

// Deliver encodes the tuple for the matched members into the window; a
// gated member holds its own copy until its submit's OK is queued.
//
//cosmos:hotpath
func (d *delivery) Deliver(lay *core.Layout, t stream.Tuple, match []bool) {
	w := d.win
	w.mu.Lock()
	w.add(d, lay, t, match)
	w.mu.Unlock()
}

// add encodes one result of d under lay for the ungated members match
// names, and holds it for the gated ones. Callers hold mu.
//
//cosmos:hotpath
func (w *resultWindow) add(d *delivery, lay *core.Layout, t stream.Tuple, match []bool) {
	k, n := len(match), 0
	for i, hit := range match {
		if !hit {
			continue
		}
		if st := lay.Members[i].Sub.(*subState); st.gated {
			//lint:ignore hotpath only while a submit's OK is being written
			st.held = append(st.held, heldResult{d: d, lay: lay, t: t, member: i})
		} else {
			n++
		}
	}
	if n == 0 {
		return
	}
	start := w.wire.obs.StageStartNAt(obs.StageWire, int64(n), w.stripe)
	c := w.tail()
	buf := *c.buf
	before := len(buf)
	if !w.continues(d) || d.lay != lay || d.gen != w.gen {
		if d.id == 0 {
			w.nextID++
			d.id = w.nextID
		}
		if d.lay != lay || d.gen != w.gen {
			w.sealFrame() // the 'S' frame goes between 'D' frames
			at := len(buf)
			//lint:ignore hotpath once per delivery and layout, not per result
			buf = appendSchemaFrame(append(buf, frameSchema, 0, 0, 0, 0), d.id, lay)
			putFrameHeader(buf[at:], frameSchema, len(buf)-at-frameHeaderSize)
			d.lay, d.gen = lay, w.gen
		}
		buf = w.openFrame(d, buf)
		buf = appendDataHeader(buf, d.id, w.seq+1)
	}
	if k > 1 {
		at := len(buf)
		buf = append(buf, make([]byte, bitmapBytes(k))...)
		for i, hit := range match {
			if hit && !lay.Members[i].Sub.(*subState).gated {
				buf[at+i/8] |= 1 << (i % 8)
			}
		}
	}
	*c.buf = appendBody(buf, w.frameN == 0, w.frameTs, t, lay.Cols)
	w.accepted(c, before, t.Ts)
	w.wire.results.Add(int64(n))
	w.wire.obs.StageEnd(obs.StageWire, start)
	w.wire.obs.TraceMark(int64(t.Ts), obs.StageWire)
	if w.flush == nil && w.bytes > windowBytes {
		//lint:ignore hotpath once per window of results, and only while the session is detached
		w.overflow()
	}
}

// overflow drops everything a detached window holds: numbering goes on,
// every delivery's next frame announces its layout again, and the hello
// that adopts the session reports the hole. Callers hold mu.
func (w *resultWindow) overflow() {
	w.dropAll()
	w.dropped, w.through = w.seq, max(w.through, w.seq)
	w.gen++
}

// ack is the serve loop's hand-off of one client→server 'A' frame: every
// result through seq arrived. An ack beyond what a writer took is a
// malformed stream.
func (w *resultWindow) ack(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.through {
		return fmt.Errorf("transport: result ack %d beyond the %d results sent", seq, w.through)
	}
	w.release(seq)
	return nil
}

// subState is one subscription's server-side state. While gated — its
// submit's OK not yet queued — its results are held rather than encoded,
// so the client never sees a result before the response naming its tag.
type subState struct {
	h *core.QueryHandle

	// Under the session window's mu:
	gated bool
	held  []heldResult
}

// heldResult is one result of a gated member.
type heldResult struct {
	d      *delivery
	lay    *core.Layout
	t      stream.Tuple
	member int
}

// open queues the OK announcing st through p and lets st's results
// through, the held ones first — all under the window's lock, so none
// can overtake the OK or one another.
func (st *subState) open(p *resultPump, ok *Response) {
	w := p.win.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fence()
	_ = p.enqueue(pumpEntry{resp: ok})
	st.gated = false
	for _, h := range st.held {
		match := make([]bool, len(h.lay.Members))
		match[h.member] = true
		w.add(h.d, h.lay, h.t, match)
	}
	st.held = nil
}
