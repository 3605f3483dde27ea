package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/obs"
	"cosmos/internal/stream"
)

// Server exposes a core deployment over TCP. The hosted system is
// usually a LiveSystem (cmd/cosmosd's default): subscription results
// then reach the wire through the per-worker direct-publish data path —
// each delivery proxy's pump hands its session results as they arrive,
// with no stabilisation barrier on the steady-state path. A synchronous
// System (-sim) serialises the sessions' operations itself.
type Server struct {
	sys      *core.System
	closeSys func()

	// stateMu orders dispatch against shutdown: work-accepting requests
	// (register/publish/submit) hold the read side for their whole
	// operation, and stop flips closed under the write side — so once
	// stop proceeds, every accepted publish has fully landed in the
	// system and the drain covers it.
	stateMu sync.RWMutex
	closed  bool // guarded by stateMu

	// idleTimeout, when > 0, applies a read deadline to every session:
	// a connection that sends nothing (clients ping on a heartbeat
	// interval) within the window is considered dead. Off by default;
	// cosmosd enables it via -idle-timeout.
	idleTimeout time.Duration
	// linger is how long a resumable session's subscriptions survive a
	// dropped connection awaiting a resume before they are cancelled.
	linger time.Duration

	mu       sync.Mutex
	ln       net.Listener          // guarded by mu
	sessions map[*session]struct{} // guarded by mu
	byID     map[string]*session   // guarded by mu; the live session holding each resumable identity
	parked   map[string]*session   // guarded by mu; dropped resumable sessions awaiting a hello
	stopped  bool                  // guarded by mu
	wg       sync.WaitGroup

	// wire aggregates wire-path counters across every session;
	// snapshotted into SystemStats.Wire by MsgStats.
	wire wireMetrics
}

// wireMetrics is the server-wide wire-stage accounting shared by every
// connection: lock-free counters plus the hosted system's obs hub (for
// StageWire sampling and trace marks). Results and publishes count
// apart: bytes is result 'D' payload only.
type wireMetrics struct {
	results      atomic.Int64
	batches      atomic.Int64
	bytes        atomic.Int64
	ingestTuples atomic.Int64
	ingestFrames atomic.Int64
	ingestBytes  atomic.Int64
	ackBytes     atomic.Int64
	obs          *obs.Metrics
}

// WireStats snapshots the server's wire series: counters plus the
// instantaneous pump backlog and session count.
func (s *Server) WireStats() obs.WireStats {
	ws := obs.WireStats{
		Results:      s.wire.results.Load(),
		Batches:      s.wire.batches.Load(),
		Bytes:        s.wire.bytes.Load(),
		IngestTuples: s.wire.ingestTuples.Load(),
		IngestFrames: s.wire.ingestFrames.Load(),
		IngestBytes:  s.wire.ingestBytes.Load(),
		AckBytes:     s.wire.ackBytes.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ws.Connections = len(s.sessions)
	for sess := range s.sessions {
		ws.QueueDepth += sess.w.depth()
	}
	return ws
}

// defaultSessionLinger is how long a resumable session may stay
// disconnected before its subscriptions are cancelled.
const defaultSessionLinger = 2 * time.Minute

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithSystemClose installs the deployment teardown Shutdown calls after
// the last connection has drained — core.LiveSystem.Close for a live
// daemon, nothing for an embedded test system.
func WithSystemClose(fn func()) ServerOption {
	return func(s *Server) { s.closeSys = fn }
}

// WithIdleTimeout bounds how long a session may go without sending any
// frame (requests and heartbeat pings both count) before the server
// drops it as dead. Zero or negative disables the deadline.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithSessionLinger sets how long a resumable session's subscriptions
// are retained after its connection drops, awaiting a resume. Within it
// the session resumes exactly-once in both directions: its result window
// keeps the subscriptions' results (up to a window of them) and its
// applied publish sequence tells the client what to resend. Zero or
// negative disables resumption: a drop cancels the queries immediately,
// as for plain sessions.
func WithSessionLinger(d time.Duration) ServerOption {
	return func(s *Server) { s.linger = d }
}

// NewServer wraps a system; callers own the listener lifecycle via Serve.
func NewServer(sys *core.System, opts ...ServerOption) *Server {
	s := &Server{
		sys:      sys,
		sessions: map[*session]struct{}{},
		byID:     map[string]*session{},
		parked:   map[string]*session{},
		linger:   defaultSessionLinger,
	}
	s.wire.obs = sys.Obs()
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	stopped := s.stopped
	s.mu.Unlock()
	if stopped {
		// Stopped before Serve stored the listener (e.g. a SIGTERM in
		// the startup window): close it here so we don't accept
		// forever on a listener Shutdown never saw.
		_ = ln.Close() // best-effort: the listener never served
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.stopped
			s.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		sess := s.newSession(conn)
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			_ = conn.Close() // refused during shutdown; nothing to report
			return nil
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.serve()
			s.retire(sess)
		}()
	}
}

func (s *Server) newSession(conn net.Conn) *session {
	return &session{
		srv:  s,
		conn: conn,
		w:    newResultPump(conn, &s.wire),
		subs: map[string]*subState{},
		srcs: map[uint32]*core.SourcePort{},
		done: make(chan struct{}),
	}
}

// retire forgets a session whose serve loop returned; a hello waiting to
// take over its identity proceeds.
func (s *Server) retire(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	for id, holder := range s.byID {
		// By value, not by sess.id: a hello that claimed the identity and
		// then lost to a shutdown never recorded it on the session.
		if holder == sess {
			delete(s.byID, id)
		}
	}
	s.mu.Unlock()
	close(sess.done)
}

// Close stops accepting, drops every connection, and waits for the
// handlers (each cancels its own queries on the way out). For the
// graceful variant — drain in-flight results, notify subscribers, close
// the hosted system — use Shutdown.
func (s *Server) Close() error {
	err, _ := s.stop(false)
	return err
}

// Shutdown is the graceful stop: close the listener, run the
// stabilisation barrier so every result already in flight reaches the
// wire, end each live subscription with a MsgEnd push, drop the
// connections, wait for the handlers, and finally close the hosted
// system (WithSystemClose). New publishes and submits are rejected the
// moment the stop begins ("server shutting down"), so a steadily
// publishing client cannot livelock the drain; what was accepted before
// still reaches subscribers. Idempotent, like Close: whichever runs
// first wins.
func (s *Server) Shutdown() error {
	err, first := s.stop(true)
	if first && s.closeSys != nil {
		s.closeSys()
	}
	return err
}

// stop implements Close (graceful=false) and Shutdown (graceful=true);
// reports whether this call was the one that performed the stop.
func (s *Server) stop(graceful bool) (error, bool) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, false
	}
	s.stopped = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if graceful {
		// Bound every write first: a subscriber that stopped reading
		// (full TCP buffer) would otherwise block a result write
		// inside a delivery pump — or a dispatch we are about to wait
		// out — indefinitely. The bound refreshes per write, so a
		// healthy-but-slow drain of a large backlog is not truncated;
		// only a stuck writer is.
		for _, sess := range sessions {
			sess.w.bound()
		}
	}
	// Flip the dispatch gate. Taking the write side waits for every
	// in-flight register/publish/submit (they hold the read side for
	// their whole operation), so once we proceed, everything the server
	// acknowledged has fully landed in the system — the drain below
	// covers it — and everything later is rejected.
	s.stateMu.Lock()
	s.closed = true
	s.stateMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Parked sessions can no longer be resumed (stopped is set, so none
	// can be parked after this either): drop their queries.
	s.mu.Lock()
	var parked []*session
	for id := range s.parked {
		parked = append(parked, s.takeParkedLocked(id))
	}
	s.mu.Unlock()
	for _, p := range parked {
		p.cancelAll()
	}
	if graceful {
		// Flush results already accepted by the system onto the wire:
		// delivery-proxy pumps enqueue results from their own
		// goroutines, and Quiesce returns only after those deliveries
		// (the hand-off included) complete. This converges because the
		// gate above stopped further publishes — only the finite
		// backlog drains.
		s.sys.Quiesce()
	}
	for _, sess := range sessions {
		sess.close(graceful)
	}
	s.wg.Wait()
	return err, true
}

// session is one client connection's server-side state: the serialised
// writer, the subscriptions the connection owns and the sources it
// publishes into. A plain session (no session id in its MsgHello)
// cancels its queries when the connection drops; a resumable one parks
// itself, with them, for the linger window instead.
type session struct {
	srv  *Server
	conn net.Conn
	w    *resultPump
	done chan struct{} // closed once serve returned and the session's state is parked or gone
	// saidHello is the serve goroutine's: the hello OK is queued, and
	// results, sources and binary frames may follow.
	saidHello bool

	// Publish state of the serve goroutine alone: the sources the
	// connection opened, by client-chosen id, the sticky refusal, and the
	// last publish sequence a well-formed frame carried — what the next
	// frame must continue. It runs ahead of applied once a refusal stops
	// tuples being applied: a pipelining client has sent further frames
	// before it sees the refusal ack, and those are not malformed.
	srcs     map[uint32]*core.SourcePort
	refused  string
	received uint64
	// slab is the one publish frames' value arenas are cut from; the
	// serve goroutine's alone, like the rest of the publish state.
	slab stream.Slab

	mu      sync.Mutex
	id      string               // guarded by mu; client-chosen resumable identity; "" = plain session
	epoch   uint64               // guarded by mu; bumped on every adoption of this identity
	subs    map[string]*subState // guarded by mu
	applied uint64               // guarded by mu; session publish sequence handed to the source ports so far
	res     *resultWindow        // guarded by mu; set by the hello
	ended   bool                 // guarded by mu

	timer *time.Timer // under srv.mu; the linger while parked
}

func (sess *session) serve() {
	defer sess.close(false)
	defer func() {
		// Contain a panicking session handler: this connection dies
		// (the deferred close above still runs), the process and the
		// other sessions do not.
		if r := recover(); r != nil {
			log.Printf("cosmosd: session panic (contained): %v\n%s", r, debug.Stack())
		}
	}()
	sess.readLoop()
}

// readLoop reads and dispatches what the client sends until the
// connection ends or sends something that does not parse. Every message
// is a frame: the marker, then the frame read whole — its declared
// length checked before any of it is read — then handleFrame.
func (sess *session) readLoop() {
	br := bufio.NewReaderSize(sess.conn, 4096)
	idle := sess.srv.idleTimeout
	for {
		if idle > 0 {
			_ = sess.conn.SetReadDeadline(time.Now().Add(idle))
		}
		marker, err := br.ReadByte()
		if err != nil {
			sess.logReadErr(err)
			return
		}
		what, ok := frameName[marker]
		if !ok {
			// A peer of wire version 6 or older opens with bare gob: its
			// first byte is no marker.
			sess.refuseAndDrop("frame", fmt.Errorf("unknown frame marker %#x: every message is a wire version %d frame", marker, wireVersion))
			return
		}
		if ioErr, err := sess.handleFrame(br, marker); ioErr {
			// The connection died inside the frame: nothing of it is
			// applied, and a resumed session sends it again.
			sess.logReadErr(err)
			return
		} else if err != nil {
			sess.refuseAndDrop(what, err)
			return
		}
	}
}

func (sess *session) logReadErr(err error) {
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		log.Printf("cosmosd: session %s: read: %v", sess.conn.RemoteAddr(), err)
	}
}

// refuseAndDrop ends a session whose peer sent bytes that do not parse:
// the reason is logged and sent as a refusal ack (so a publisher's next
// call reports it), the write is bounded like a shutdown drain's, and
// serve's deferred close drops the connection. Other sessions never
// notice.
func (sess *session) refuseAndDrop(what string, err error) {
	log.Printf("cosmosd: session %s: malformed %s, dropping the connection: %v", sess.conn.RemoteAddr(), what, err)
	sess.mu.Lock()
	applied := sess.applied
	sess.mu.Unlock()
	_ = sess.w.sendAck(applied, fmt.Sprintf("malformed %s: %v", what, err))
	sess.w.bound()
	sess.w.drain()
}

// frameName names each client→server frame in a refusal.
var frameName = map[byte]string{frameControl: "control frame", frameData: "publish frame", frameAck: "result ack"}

// handleFrame consumes one client→server frame (marker already read)
// into a pooled buffer and applies it: a 'G' frame's request, a 'D'
// frame's published tuples, or an 'A' frame's cumulative result ack.
// ioErr says the error is the connection's, not the frame's.
func (sess *session) handleFrame(br *bufio.Reader, marker byte) (ioErr bool, err error) {
	bufp := getFrameBuf()
	defer putFrameBuf(bufp)
	b, err := readFrame(br, bufp)
	if err != nil {
		return !errors.Is(err, errFrameTooLong), err
	}
	switch {
	case marker == frameControl:
		var req Request
		if err := json.Unmarshal(b, &req); err != nil {
			return false, err
		}
		// A keepalive is answered outside dispatch, so a ping never waits
		// behind a system operation.
		resp := &Response{Kind: MsgPong}
		if req.Kind != MsgPing {
			if resp = sess.dispatch(&req); resp == nil {
				return false, nil // dispatch responded itself (MsgHello/MsgSubmit ordering)
			}
		}
		resp.ID = req.ID
		// A failed send is the connection's: the pump is dead.
		err := sess.w.send(resp)
		return err != nil, err
	case !sess.saidHello:
		return false, fmt.Errorf("%s before hello: binary frames need the wire version %d hello first", frameName[marker], wireVersion)
	case marker == frameAck:
		if len(b) != ackHeaderSize {
			return false, fmt.Errorf("transport: result ack of %d bytes, want %d", len(b), ackHeaderSize)
		}
		sess.mu.Lock()
		res := sess.res
		sess.mu.Unlock()
		return false, res.ack(binary.LittleEndian.Uint64(b))
	}
	return false, sess.applyPublishFrame(b)
}

// applyPublishFrame decodes one publish 'D' payload into a single value
// arena and hands each tuple to its source port, in order, then answers
// with the cumulative ack. An error means the bytes were malformed and
// the session must end; a refusal (shutdown, a port that no longer
// accepts) is answered in the ack and is not an error, and the frames a
// pipelining client had already sent behind the refused one are each
// answered with it too. Sequences must continue what the session has
// received; tuples at or below the applied count — the overlap a client
// resends after a reconnect — are decoded and skipped, which is what
// makes a resumed publish exactly-once. The port's Publish
// blocks on the deployment's ingress credits: that wait, with TCP's own
// flow control behind it, is the pushback a fast publisher feels as a
// full window.
func (sess *session) applyPublishFrame(b []byte) error {
	srcID, count, firstSeq, err := decodeDataHeader(b)
	if err != nil {
		return err
	}
	src := sess.srcs[srcID]
	if src == nil {
		return fmt.Errorf("transport: publish frame for unopened source %d", srcID)
	}
	if count == 0 || firstSeq == 0 || firstSeq > sess.received+1 {
		return fmt.Errorf("transport: publish frame of %d tuples from sequence %d does not continue received sequence %d", count, firstSeq, sess.received)
	}
	sess.mu.Lock()
	applied := sess.applied
	sess.mu.Unlock()
	// Tuples carry the catalog's own schema: the door's fast path.
	schema := src.Schema()
	arity := schema.Arity()
	arena, err := frameArena(&sess.slab, count, arity, 0, len(b)-dataHeaderSize)
	if err != nil {
		return err
	}
	s := sess.srv
	// Hold the dispatch gate for the whole frame, as dispatch does for a
	// register or submit: once stop() proceeds, every acknowledged tuple
	// has landed in the system and the drain covers it.
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed && sess.refused == "" {
		sess.refused = "server shutting down"
	}
	pos := dataHeaderSize
	taken := 0
	var ts stream.Timestamp // the previous tuple's, which the next one steps from
	for i := 0; i < count; i++ {
		values := arena[i*arity : (i+1)*arity : (i+1)*arity]
		ts, pos, err = decodeValues(b, pos, i == 0, ts, values)
		if err != nil {
			return err
		}
		t, err := stream.NewTuple(schema, ts, values...)
		if err != nil {
			return fmt.Errorf("transport: decoded tuple rejected: %v", err)
		}
		seq := firstSeq + uint64(i)
		if seq <= applied || sess.refused != "" {
			continue
		}
		if err := src.Publish(t); err != nil {
			// Nothing after a refused tuple is applied: the stream's
			// order would have a hole. The client sees it on its next
			// call.
			sess.refused = fmt.Sprintf("stream %s: %v", src.Stream(), err)
			continue
		}
		applied = seq
		taken++
	}
	if pos != len(b) {
		return fmt.Errorf("transport: %d trailing bytes in publish frame", len(b)-pos)
	}
	sess.received = max(sess.received, firstSeq+uint64(count)-1)
	sess.mu.Lock()
	sess.applied = applied
	sess.mu.Unlock()
	s.wire.ingestTuples.Add(int64(taken))
	s.wire.ingestFrames.Add(1)
	s.wire.ingestBytes.Add(int64(len(b)))
	_ = sess.w.sendAck(applied, sess.refused)
	return nil
}

// close tears the session down. Graceful closes push MsgShutdown (so
// resilient clients know the loss is terminal and do not reconnect)
// and then a MsgEnd per live subscription before the queries are
// cancelled and the connection drops; those pushes inherit the drain's
// per-write deadline, so an unresponsive subscriber cannot block the
// shutdown. An abrupt close of a resumable session parks it: its
// subscriptions, its result window — which keeps accepting their
// results, so a resume resends them — and its applied publish sequence,
// so the resumed publisher resends exactly what never arrived.
// Idempotent (serve's deferred abrupt close after a graceful shutdown is
// a no-op).
func (sess *session) close(graceful bool) {
	if graceful {
		sess.w.bound()
	}
	sess.mu.Lock()
	if sess.ended {
		sess.mu.Unlock()
		return
	}
	sess.ended = true
	subs := sess.subs
	id, applied, res := sess.id, sess.applied, sess.res
	sess.mu.Unlock()
	if graceful {
		_ = sess.w.send(&Response{Kind: MsgShutdown})
		for tag, st := range subs {
			_ = sess.w.send(&Response{Kind: MsgEnd, QueryTag: tag})
			if err := sess.srv.sys.Cancel(st.h); err != nil {
				log.Printf("cosmosd: cancel %s: %v", tag, err)
			}
		}
		// The pump writes asynchronously: wait until the queued
		// results and the MsgEnd pushes behind them are on the wire
		// (bounded — the drain deadline kills a stuck write) before
		// the connection drops.
		sess.w.drain()
		sess.w.close()
		_ = sess.conn.Close() // session is over; close errors carry no signal
		return
	}
	sess.w.close()
	_ = sess.conn.Close() // the session is over or parked; close errors carry no signal
	sess.w.wait()
	if res != nil {
		res.detach()
	}
	if id == "" || len(subs) == 0 && applied == 0 || !sess.srv.park(id, sess) {
		// Not resumable, server stopping or linger disabled: cancel.
		sess.cancelAll()
	}
}

// park stores a dropped resumable session — its subscriptions, applied
// publish sequence and result window, still accepting — for the linger
// window, until a hello adopts it or the timer drops it. Reports false
// when the server is stopping or resumption is disabled — the caller
// then cancels the queries.
func (s *Server) park(id string, sess *session) bool {
	if s.linger <= 0 {
		return false
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	// A second connection claimed this identity and detached before the
	// first parked: newest state wins, the older queries die.
	evicted := s.takeParkedLocked(id)
	sess.timer = time.AfterFunc(s.linger, func() {
		s.mu.Lock()
		parked := s.parked[id] == sess // not resumed or replaced meanwhile
		if parked {
			delete(s.parked, id)
		}
		s.mu.Unlock()
		if parked {
			sess.cancelAll()
		}
	})
	s.parked[id] = sess
	s.mu.Unlock()
	if evicted != nil {
		evicted.cancelAll()
	}
	return true
}

// takeParkedLocked removes and returns the parked session for id, if
// any. Callers hold s.mu.
func (s *Server) takeParkedLocked(id string) *session {
	p := s.parked[id]
	if p != nil {
		delete(s.parked, id)
		p.timer.Stop()
	}
	return p
}

// cancelAll cancels every query the session holds.
func (sess *session) cancelAll() {
	sess.mu.Lock()
	subs := sess.subs
	sess.subs = map[string]*subState{}
	sess.mu.Unlock()
	for tag, st := range subs {
		if err := sess.srv.sys.Cancel(st.h); err != nil {
			log.Printf("cosmosd: cancel %s: %v", tag, err)
		}
	}
}

func errResp(format string, args ...interface{}) *Response {
	return &Response{Kind: MsgError, Error: fmt.Sprintf(format, args...)}
}

// errBeforeHello refuses what a connection may do only after its hello:
// open the tuple streams.
func errBeforeHello(what string) *Response {
	return errResp("%s before hello: tuples travel as wire version %d frames, which the connection's hello sets up", what, wireVersion)
}

// Open makes the session a core.Sink: its subscriptions in one group at
// one user node share a proxy, a delivery id and one body per result,
// encoded into the session's result window.
func (sess *session) Open() core.Receiver {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return &delivery{win: sess.res}
}

// openSource binds a client-chosen source id to a port for this
// connection's publish frames. Re-opening an id on the same stream (a
// replayed register followed by an open) is a no-op.
func (sess *session) openSource(id uint32, port *core.SourcePort) error {
	if id == 0 {
		return fmt.Errorf("source id 0 is reserved")
	}
	if old := sess.srcs[id]; old != nil {
		if old == port {
			return nil
		}
		return fmt.Errorf("source id %d already names stream %q", id, old.Stream())
	}
	sess.srcs[id] = port
	return nil
}

func (sess *session) dispatch(req *Request) *Response {
	s := sess.srv
	switch req.Kind {
	case MsgHello:
		// Session management: outside the dispatch gate, since a hello
		// may wait out an older connection of its identity.
		s.stateMu.RLock()
		closed := s.closed
		s.stateMu.RUnlock()
		if closed {
			return errResp("server shutting down")
		}
		return sess.hello(req)
	case MsgRegister, MsgSubmit:
		// Hold the dispatch gate for the whole operation (publish frames
		// do the same): stop() flips closed under the write side, so a
		// request that passes this check has fully landed in the system
		// before the shutdown drain begins.
		s.stateMu.RLock()
		defer s.stateMu.RUnlock()
		if s.closed {
			return errResp("server shutting down")
		}
	}
	switch req.Kind {
	case MsgRegister:
		if req.Source != 0 && !sess.saidHello {
			return errBeforeHello("register with a source")
		}
		info, err := FromWireInfo(req.Info)
		if err != nil {
			return errResp("bad stream info: %v", err)
		}
		port, err := s.sys.RegisterStream(info, req.Node)
		if err != nil {
			return errResp("%v", err)
		}
		// The registering session usually publishes the stream: its
		// register opens the source in the same round trip.
		if req.Source != 0 {
			if err := sess.openSource(req.Source, port); err != nil {
				return errResp("%v", err)
			}
		}
		return &Response{Kind: MsgOK}

	case MsgOpenSource:
		if !sess.saidHello {
			return errBeforeHello("open source")
		}
		port, ok := s.sys.Source(req.Stream)
		if !ok {
			return errResp("stream %q not registered", req.Stream)
		}
		info, ok := s.sys.Catalog().Lookup(req.Stream)
		if !ok {
			return errResp("no catalog entry for %q", req.Stream)
		}
		if err := sess.openSource(req.Source, port); err != nil {
			return errResp("%v", err)
		}
		return &Response{Kind: MsgOK, Infos: []WireInfo{ToWireInfo(info)}}

	case MsgSubmit:
		// The session is the query's sink; its proxy's goroutine
		// encodes results into the session's window, so per query wire
		// order is delivery order. The sub starts gated: results before
		// the MsgOK is queued are held, so no frame for this query
		// precedes the response announcing its tag.
		if !sess.saidHello {
			return errBeforeHello("submit")
		}
		st := &subState{gated: true}
		h, err := s.sys.SubmitTo(req.CQL, req.UserNode, sess, st)
		if err != nil {
			return errResp("%v", err)
		}
		st.h = h
		sess.mu.Lock()
		if sess.ended {
			// Lost the race with a shutdown: don't leak the query.
			sess.mu.Unlock()
			_ = s.sys.Cancel(h)
			return errResp("server shutting down")
		}
		sess.subs[h.Tag] = st
		// Queue the OK and open the gate while holding the session
		// lock: a concurrent graceful close (which takes the lock
		// before writing MsgEnd) can then neither interleave this
		// subscription's MsgEnd before the response announcing its tag
		// nor before the results delivered while the submit was in
		// flight.
		st.open(sess.w, &Response{ID: req.ID, Kind: MsgOK, QueryTag: h.Tag})
		sess.mu.Unlock()
		return nil

	case MsgCancel:
		sess.mu.Lock()
		st, ok := sess.subs[req.QueryTag]
		if ok {
			delete(sess.subs, req.QueryTag)
		}
		sess.mu.Unlock()
		if !ok {
			return errResp("unknown query %q", req.QueryTag)
		}
		if err := s.sys.Cancel(st.h); err != nil {
			return errResp("%v", err)
		}
		return &Response{Kind: MsgOK}

	case MsgStats:
		st := s.sys.StatsSnapshot()
		ws := s.WireStats()
		st.Wire = &ws
		return &Response{Kind: MsgOK, Stats: st}

	case MsgCatalog:
		reg := s.sys.Catalog()
		var infos []WireInfo
		for _, name := range reg.Names() {
			if info, ok := reg.Lookup(name); ok {
				infos = append(infos, ToWireInfo(info))
			}
		}
		return &Response{Kind: MsgOK, Infos: infos}

	case MsgQuiesce:
		s.sys.Quiesce()
		return &Response{Kind: MsgOK}

	default:
		return errResp("unknown request kind %d", req.Kind)
	}
}

// hello opens a connection's session: it checks the wire format version
// the client offers (anything below this build's is refused by name;
// anything at or above it gets this build's), and — when the client sent
// a session id — marks the session resumable under that identity and
// adopts what a previous connection with that identity left parked: the
// subscriptions the client names in ResumeTags (the others — cancelled
// while disconnected, or submitted by a request whose OK the cut lost —
// are cancelled), the applied publish sequence and the result window. A
// previous connection of that identity that the server has not seen die
// yet is dropped and waited out first: the client holds one connection
// at a time, so the old one is dead to it, and its state — the publishes
// it is still applying included — must be parked before the new
// connection can resume from it. The OK reports the wire version, the
// new epoch, the adopted tags, the applied publish sequence (the parked
// one, or the client's own acknowledged count when this server never
// held the session) and the first result sequence the window still
// holds; tags absent from the reply no longer exist server-side — the
// client resubmits those from scratch. The window's resend queues
// behind the OK (finishHello), and hello returns nil so serve does not
// write a second response.
func (sess *session) hello(req *Request) *Response {
	s := sess.srv
	if req.WireVersion < wireVersion {
		return errResp("hello: wire version %d is not supported, this server speaks version %d", req.WireVersion, wireVersion)
	}
	if req.SessionID == "" {
		// Version-only hello from a plain (non-resumable) client.
		if len(req.ResumeTags) > 0 {
			return errResp("hello: resume tags without a session id")
		}
		sess.finishHello(req, &Response{Kind: MsgOK}, nil)
		return nil
	}
	s.mu.Lock()
	old := s.byID[req.SessionID]
	s.byID[req.SessionID] = sess
	s.mu.Unlock()
	if old != nil && old != sess {
		_ = old.conn.Close() // superseded; its serve loop parks what it holds
		<-old.done
	}
	s.mu.Lock()
	p := s.takeParkedLocked(req.SessionID)
	s.mu.Unlock()
	epoch, applied := uint64(1), req.LastSeq
	var res *resultWindow
	var adopted []string
	sess.mu.Lock()
	ended := sess.ended
	if p != nil {
		p.mu.Lock()
		epoch, applied = p.epoch+1, max(p.applied, applied)
		// A repeated hello on a connection keeps the connection's stream:
		// a parked window cannot join it, so neither can its subscriptions.
		if sess.res == nil && !ended {
			res = p.res
			for _, tag := range req.ResumeTags {
				if st := p.subs[tag]; st != nil {
					adopted = append(adopted, tag)
					sess.subs[tag] = st
					delete(p.subs, tag)
				}
			}
		}
		p.mu.Unlock()
	}
	if !ended {
		sess.id, sess.epoch, sess.applied = req.SessionID, epoch, applied
		sess.received = applied // hello runs on the serve goroutine, which owns received
	}
	sess.mu.Unlock()
	if p != nil {
		p.cancelAll() // what the client does not hold any more
	}
	if ended {
		// Lost the race with a shutdown: nothing can be adopted.
		return errResp("server shutting down")
	}
	sort.Strings(adopted)
	sess.finishHello(req, &Response{Kind: MsgOK, Epoch: epoch, Tags: adopted, Seq: applied}, res)
	return nil
}

// finishHello queues a hello's OK and attaches the session's result
// window behind it: res when
// adopted, a fresh one otherwise, resending what lies beyond the client's
// last contiguous result. The window's lock is held throughout, so the
// OK reports the first sequence the window holds as of the attach.
func (sess *session) finishHello(req *Request, resp *Response, res *resultWindow) {
	resp.ID, resp.WireVersion = req.ID, wireVersion
	if sess.saidHello {
		// A repeated hello: the connection's stream goes on.
		_ = sess.w.send(resp)
		return
	}
	last := req.ResultSeq
	if res == nil {
		res, last = newResultWindow(&sess.srv.wire), 0
	}
	sess.mu.Lock()
	sess.res = res
	sess.mu.Unlock()
	sess.saidHello = true
	res.mu.Lock()
	defer res.mu.Unlock()
	resp.ResultSeq = res.dropped + 1
	sess.w.sendHello(resp, res, last)
}
