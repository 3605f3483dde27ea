package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/faultnet"
	"cosmos/internal/stream"
)

// fastResilience keeps reconnect tests snappy.
func fastResilience() *Resilience {
	return &Resilience{MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
}

// subRecorder collects one subscription's delivery stream and lifecycle
// events.
type subRecorder struct {
	mu   sync.Mutex
	rows []stream.Tuple
	gaps []Gap
	ends []error
}

func (r *subRecorder) onResult(t stream.Tuple) {
	r.mu.Lock()
	r.rows = append(r.rows, t)
	r.mu.Unlock()
}
func (r *subRecorder) onEnd(err error) {
	r.mu.Lock()
	r.ends = append(r.ends, err)
	r.mu.Unlock()
}
func (r *subRecorder) onGap(g Gap) {
	r.mu.Lock()
	r.gaps = append(r.gaps, g)
	r.mu.Unlock()
}
func (r *subRecorder) snapshot() ([]stream.Tuple, []Gap, []error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]stream.Tuple(nil), r.rows...), append([]Gap(nil), r.gaps...), append([]error(nil), r.ends...)
}

// items is the itemID column of the rows, in arrival order.
func (r *subRecorder) items() []int64 {
	rows, _, _ := r.snapshot()
	items := make([]int64, len(rows))
	for i, row := range rows {
		items[i] = row.Values[0].AsInt()
	}
	return items
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResumeAfterPartition: a partition severs the resilient
// subscriber; the results emitted while it is away wait in the server's
// window for the session, and the resume at the next epoch delivers them
// and everything after — every result exactly once, in order, with no
// gap.
func TestResumeAfterPartition(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	proxy, err := faultnet.NewProxy(addr, faultnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Publisher: plain client straight at the server — its traffic must
	// not be disturbed by the subscriber's partition.
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	info := auctionInfo()
	if err := pub.Register(info, 1); err != nil {
		t.Fatal(err)
	}

	sub, err := DialConfig(proxy.Addr(), Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var rec subRecorder
	if _, err := sub.Submit("SELECT itemID FROM OpenAuction [Now]", 5,
		rec.onResult, rec.onEnd, rec.onGap); err != nil {
		t.Fatal(err)
	}

	next := int64(1)
	publish := func(n int) {
		for ; n > 0; n-- {
			tp := stream.MustTuple(info.Schema, stream.Timestamp(next), stream.Int(next), stream.Float(500))
			if err := pub.Publish(tp); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := pub.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	publish(5)
	waitFor(t, 5*time.Second, "first 5 results", func() bool { return rec.count() == 5 })

	proxy.Partition()
	waitFor(t, 5*time.Second, "client to notice the partition", func() bool {
		sub.mu.Lock()
		defer sub.mu.Unlock()
		return !sub.up
	})
	publish(3) // held in the session's window while the subscriber is away
	proxy.Heal()
	waitFor(t, 10*time.Second, "the held results after the resume", func() bool { return rec.count() == 8 })
	publish(2)
	waitFor(t, 5*time.Second, "post-resume results", func() bool { return rec.count() == 10 })

	_, gaps, ends := rec.snapshot()
	if got, want := rec.items(), []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Fatalf("items %v, want %v", got, want)
	}
	if len(gaps) != 0 {
		t.Errorf("gaps %v against a server that held the session", gaps)
	}
	if len(ends) != 0 {
		t.Errorf("subscription ended (%v) during a survivable partition", ends)
	}
	if got := sub.Reconnects(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if got := sub.Epoch(); got != 2 {
		t.Errorf("epoch = %d, want 2", got)
	}
}

// TestGracefulShutdownIsTerminal: a graceful server shutdown must end a
// resilient client's subscriptions cleanly — nil error, no reconnect
// loop against the dying listener — and later calls must say the server
// shut down rather than retry forever.
func TestGracefulShutdownIsTerminal(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := ln.Addr().String()

	c, err := DialConfig(addr, Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(auctionInfo(), 1); err != nil {
		t.Fatal(err)
	}
	var rec subRecorder
	if _, err := c.Submit("SELECT itemID FROM OpenAuction [Now]", 5,
		rec.onResult, rec.onEnd, rec.onGap); err != nil {
		t.Fatal(err)
	}

	if err := srv.Shutdown(); err != nil { // graceful: MsgShutdown then MsgEnd reach the wire first
		t.Fatal(err)
	}
	<-served

	waitFor(t, 5*time.Second, "clean subscription end", func() bool {
		_, _, ends := rec.snapshot()
		return len(ends) == 1
	})
	_, _, ends := rec.snapshot()
	if ends[0] != nil {
		t.Errorf("subscription ended with %v, want nil (graceful shutdown)", ends[0])
	}
	if err := c.Publish(stream.MustTuple(auctionInfo().Schema, 1, stream.Int(1), stream.Float(1))); err == nil {
		t.Error("publish after shutdown should fail")
	} else if err != errServerShutdown {
		t.Errorf("publish after shutdown = %v, want %v", err, errServerShutdown)
	}
	if got := c.Reconnects(); got != 0 {
		t.Errorf("client reconnected %d times against a shut-down server", got)
	}
}

// TestCloseAndCancelDuringBackoff: with the server partitioned away and
// a long backoff pending, Cancel must succeed locally at once and Close
// must abort the retry loop promptly, leaking no goroutines.
func TestCloseAndCancelDuringBackoff(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	proxy, err := faultnet.NewProxy(addr, faultnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	baseline := runtime.NumGoroutine()
	c, err := DialConfig(proxy.Addr(), Config{Resilience: &Resilience{
		MinBackoff: 30 * time.Second, MaxBackoff: 60 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(auctionInfo(), 1); err != nil {
		t.Fatal(err)
	}
	var rec subRecorder
	tag, err := c.Submit("SELECT itemID FROM OpenAuction [Now]", 5,
		rec.onResult, rec.onEnd, rec.onGap)
	if err != nil {
		t.Fatal(err)
	}

	proxy.Partition()
	waitFor(t, 5*time.Second, "client to notice the partition", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return !c.up
	})

	// Cancel while down: local, immediate, clean.
	start := time.Now()
	if err := c.Cancel(tag); err != nil {
		t.Errorf("cancel during backoff: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancel during backoff took %v", d)
	}
	_, _, ends := rec.snapshot()
	if len(ends) != 1 || ends[0] != nil {
		t.Errorf("ends after local cancel = %v, want one nil", ends)
	}

	// Close while the 30s backoff is pending: prompt, no leaks.
	start = time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("close during backoff took %v, want prompt abort", d)
	}
	waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// numberedInfo is the stream the publish-direction tests number their
// tuples on; pad sets the encoded tuple size.
func numberedInfo() *stream.Info {
	return &stream.Info{Schema: stream.MustSchema("Numbered",
		stream.Field{Name: "seq", Kind: stream.KindInt},
		stream.Field{Name: "pad", Kind: stream.KindString, AvgLen: 24},
	), Rate: 100}
}

func numberedTuple(schema *stream.Schema, seq int64, pad string) stream.Tuple {
	return stream.MustTuple(schema, stream.Timestamp(seq), stream.Int(seq), stream.String_(pad))
}

// seqLedger records the seq column of one "SELECT seq FROM Numbered
// [Now]" subscription, in arrival order.
type seqLedger struct {
	mu   sync.Mutex
	seqs []int64
}

func (l *seqLedger) onResult(t stream.Tuple) {
	l.mu.Lock()
	l.seqs = append(l.seqs, t.Values[0].AsInt())
	l.mu.Unlock()
}

func (l *seqLedger) snapshot() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int64(nil), l.seqs...)
}

func (l *seqLedger) last() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.seqs) == 0 {
		return 0
	}
	return l.seqs[len(l.seqs)-1]
}

// subscribeNumbered opens a plain, direct session that ledgers Numbered.
func subscribeNumbered(t *testing.T, addr string) *seqLedger {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	l := &seqLedger{}
	if _, err := c.Submit("SELECT seq FROM Numbered [Now]", 5, l.onResult, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestPublishByteCutExactlyOnce is the byte-cut differential of the
// publish direction: every connection of a resilient publisher is
// severed exactly CutAtBytes into its client→server stream — past the
// hello and the source open, inside whichever 'D' frame straddles the
// offset — so each epoch delivers a valid prefix of the window and a
// torn frame. The server must apply the prefix once, drop the torn
// frame, and the resumed session must send exactly the rest: the
// subscriber's ledger is 1..N, each once, in order.
func TestPublishByteCutExactlyOnce(t *testing.T) {
	addr, _, shutdown := startLiveServer(t, 2)
	defer shutdown()
	proxy, err := faultnet.NewUpstreamProxy(addr, faultnet.Config{Seed: 13, CutAtBytes: 6000})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	info := numberedInfo()
	pub, err := DialConfig(proxy.Addr(), Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	ledger := subscribeNumbered(t, addr)

	const total = 3000 // ~50 bytes each: the window outlasts the fifteen cuts
	for seq := int64(1); seq <= total; seq++ {
		if err := pub.Publish(numberedTuple(info.Schema, seq, "twenty-four bytes of pad")); err != nil {
			t.Fatalf("publish %d: %v", seq, err)
		}
	}
	waitFor(t, 30*time.Second, "fifteen cuts, or the window drained", func() bool {
		return pub.Reconnects() >= 15 || pub.PublishWindow() == 0
	})
	proxy.DisableFaults()
	// The barrier parks across the outage still in progress, if any, and
	// returns on the connection that carried the rest.
	if err := pub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the last result", func() bool { return ledger.last() == total })
	if pub.Reconnects() < 10 {
		t.Errorf("%d reconnects; the proxy cut too few connections to mean anything", pub.Reconnects())
	}
	for i, seq := range ledger.snapshot() {
		if seq != int64(i+1) {
			t.Fatalf("result %d carries %d: a tuple was lost or applied twice across %d reconnects", i, seq, pub.Reconnects())
		}
	}
	if got := pub.pub.ackedSeq(); got != total {
		t.Errorf("acknowledged through %d, want %d", got, total)
	}
	t.Logf("%d reconnects, %d cuts", pub.Reconnects(), proxy.Kills())
	if err := pub.Close(); err != nil {
		t.Errorf("close after a fully acknowledged run: %v", err)
	}
}

// startServerAt hosts a fresh synchronous system at addr ("127.0.0.1:0"
// for any port) and returns the bound address and an abrupt stop.
func startServerAt(t *testing.T, addr string) (string, func()) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			srv.Close()
			<-done
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestPublishResumeAfterServerRestart: against a server that lost the
// session — here a restart — the publisher cannot know what the dead
// server applied beyond its last ack, so it resends from that ack: no
// acknowledged-or-later tuple is lost, and what can repeat is bounded by
// the window. The new server's ledger must start exactly one past the
// last acknowledged sequence and run to the end without a hole or a
// duplicate.
func TestPublishResumeAfterServerRestart(t *testing.T) {
	addr, stopA := startServerAt(t, "127.0.0.1:0")
	proxy, err := faultnet.NewProxy(addr, faultnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	info := numberedInfo()
	pub, err := DialConfig(proxy.Addr(), Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	ledgerA := subscribeNumbered(t, addr)

	// The whole run fits in one window, so the publisher never blocks:
	// it keeps accepting tuples through the outage.
	const total = 3000
	published := make(chan error, 1)
	go func() {
		for seq := int64(1); seq <= total; seq++ {
			if err := pub.Publish(numberedTuple(info.Schema, seq, "pad")); err != nil {
				published <- err
				return
			}
			if seq%100 == 0 {
				time.Sleep(time.Millisecond) // let the first server apply some before it dies
			}
		}
		published <- nil
	}()
	waitFor(t, 10*time.Second, "the first server to apply a few hundred", func() bool { return ledgerA.last() >= 300 })
	proxy.Partition()
	waitFor(t, 5*time.Second, "the publisher to notice", func() bool {
		pub.mu.Lock()
		defer pub.mu.Unlock()
		return !pub.up
	})
	acked := int64(pub.pub.ackedSeq())
	stopA()

	addrB, _ := startServerAt(t, addr)
	if addrB != addr {
		t.Fatalf("restarted on %s, want %s", addrB, addr)
	}
	reg, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	ledgerB := subscribeNumbered(t, addr)
	proxy.Heal()

	if err := <-published; err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := pub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the restarted server's last result", func() bool { return ledgerB.last() == total })

	b := ledgerB.snapshot()
	if b[0] != acked+1 {
		t.Errorf("the restarted server's ledger starts at %d; the last acknowledged sequence was %d", b[0], acked)
	}
	for i, seq := range b {
		if seq != b[0]+int64(i) {
			t.Fatalf("restarted server's result %d carries %d after %d: a hole or a duplicate", i, seq, b[0]+int64(i)-1)
		}
	}
	// What the dead server applied past its last ack repeats; nothing
	// else does, and a window bounds it.
	repeated := 0
	for _, seq := range ledgerA.snapshot() {
		if seq <= acked {
			continue
		}
		repeated++
	}
	const tupleBytes = 8 + 9 + 2 + len("pad") // ts, int, string
	if limit := windowBytes / tupleBytes; repeated > limit {
		t.Errorf("%d tuples reached both servers; a window holds at most %d", repeated, limit)
	}
	t.Logf("acknowledged through %d at the outage; %d tuples reached both servers", acked, repeated)
}

// TestPublishBlocksWhileSourceHeld is the pushback end to end: while the
// server's loop is parked inside its source port, Publish accepts what
// the window and the socket buffers hold and then blocks — it does not
// buffer without bound, so the heap stays flat — and when the port is
// released everything accepted arrives, in order, and Publish resumes.
// The port is held by a subscriber of the synchronous backend that
// blocks in its callback: Publish on that backend returns only after the
// routing cascade, as it does on the live one only after an ingress
// credit frees up.
func TestPublishBlocksWhileSourceHeld(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	info := numberedInfo()
	srv := NewServer(sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var delivered atomic.Int64
	var disorder atomic.Int64
	if _, err := sys.Submit("SELECT seq FROM Numbered [Now]", 5, func(tp stream.Tuple) {
		<-release
		if tp.Values[0].AsInt() != delivered.Add(1) {
			disorder.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// 4 KiB tuples: a few thousand fill the window and any socket buffer.
	pad := strings.Repeat("p", 4096)
	const total = 20000
	var accepted atomic.Int64
	done := make(chan error, 1)
	go func() {
		for seq := int64(1); seq <= total; seq++ {
			if err := c.Publish(numberedTuple(info.Schema, seq, pad)); err != nil {
				done <- err
				return
			}
			accepted.Store(seq)
		}
		done <- nil
	}()

	// Blocked means: no tuple accepted over a whole interval.
	stalledAt := int64(-1)
	waitFor(t, 30*time.Second, "Publish to block on the held source", func() bool {
		time.Sleep(100 * time.Millisecond)
		now := accepted.Load()
		blocked := now == stalledAt && now > 0
		stalledAt = now
		return blocked
	})
	if stalledAt == total {
		t.Fatalf("all %d tuples were accepted against a held source: nothing pushed back", total)
	}
	if w := c.PublishWindow(); w < windowBytes {
		t.Errorf("Publish blocked with %d bytes in the window, below the %d limit", w, windowBytes)
	}
	heap := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := heap()
	time.Sleep(300 * time.Millisecond)
	after := heap()
	if accepted.Load() != stalledAt {
		t.Errorf("Publish accepted %d more tuples while the source was held", accepted.Load()-stalledAt)
	}
	if grown := int64(after) - int64(before); grown > 256<<10 {
		t.Errorf("heap grew by %d bytes while Publish was blocked", grown)
	}
	t.Logf("blocked after %d tuples (%d KiB in the window), heap %d → %d bytes", stalledAt, c.PublishWindow()>>10, before, after)

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("publish after the release: %v", err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != total || disorder.Load() != 0 {
		t.Errorf("%d of %d tuples delivered, %d out of order", got, total, disorder.Load())
	}
}

// TestPublishRefusalIsSticky: a frame the server refuses — here because
// its shutdown gate is closed — is reported by the ack, not by the
// Publish that carried the tuple: that one had already returned. The
// refusal then sticks: the publish barrier returns it, every later
// Publish returns it, and so does Close.
func TestPublishRefusalIsSticky(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	info := numberedInfo()
	if err := c.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(numberedTuple(info.Schema, 1, "")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("barrier over an accepted tuple: %v", err)
	}

	srv.stateMu.Lock()
	srv.closed = true // the gate a shutdown closes first
	srv.stateMu.Unlock()
	if err := c.Publish(numberedTuple(info.Schema, 2, "")); err != nil {
		t.Fatalf("Publish reported %v; the refusal can only arrive with the ack", err)
	}
	err = c.Quiesce()
	if err == nil || !strings.Contains(err.Error(), "server shutting down") {
		t.Fatalf("barrier over a refused tuple returned %v, want the refusal", err)
	}
	if again := c.Publish(numberedTuple(info.Schema, 3, "")); again == nil || again.Error() != err.Error() {
		t.Errorf("Publish after the refusal returned %v, want %v", again, err)
	}
	if closeErr := c.Close(); closeErr == nil || closeErr.Error() != err.Error() {
		t.Errorf("Close returned %v, want %v", closeErr, err)
	}
	if st := sys.StatsSnapshot(); st.Ingested != 1 {
		t.Errorf("%d tuples ingested, want only the one published before the gate closed", st.Ingested)
	}
}

// TestPublishRefusalSurvivesPipelining: a publisher does not wait for an
// ack between frames, so by the time the server refuses one, more are
// already on the wire behind it. Those continue the sequence the server
// received, not the one it applied, and each must be answered with the
// sticky refusal — not judged malformed, which would drop the connection
// and take its subscriptions with it.
func TestPublishRefusalSurvivesPipelining(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info := numberedInfo()
	if err := c.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	l := &seqLedger{}
	ended := make(chan error, 1)
	if _, err := c.Submit("SELECT seq FROM Numbered [Now]", 5, l.onResult, func(err error) { ended <- err }, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(numberedTuple(info.Schema, 1, "")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Close the gate and keep holding it: the session loop parks in front
	// of the first frame, so no ack can arrive before every frame below is
	// accepted. A chunk closes at batchSoftBytes, so this many 19-byte
	// tuples are at least three frames (and stay inside the window).
	srv.stateMu.Lock()
	srv.closed = true
	const n = 3 * batchSoftBytes / 19
	for i := int64(2); i < 2+n; i++ {
		if err := c.Publish(numberedTuple(info.Schema, i, "")); err != nil {
			srv.stateMu.Unlock()
			t.Fatalf("Publish %d reported %v before any ack could arrive", i, err)
		}
	}
	srv.stateMu.Unlock()

	err = c.Quiesce()
	if err == nil || !strings.Contains(err.Error(), "server shutting down") {
		t.Fatalf("barrier over refused frames returned %v, want the refusal", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Errorf("Stats after the refusal: %v; the connection must survive it", err)
	}
	select {
	case err := <-ended:
		t.Errorf("subscription ended (%v); a refusal must leave the session alive", err)
	default:
	}
	if st := sys.StatsSnapshot(); st.Ingested != 1 {
		t.Errorf("%d tuples ingested, want only the one published before the gate closed", st.Ingested)
	}
	if got := l.snapshot(); len(got) != 1 || got[0] != 1 {
		t.Errorf("subscription saw %v, want [1]", got)
	}
}

// TestRetireForgetsEveryClaimedIdentity: hello claims the identity in the
// server's index before it can lose to a shutdown (which leaves sess.id
// unset), and a connection may say hello twice under different ids.
// Neither may leave the index pointing at a retired session.
func TestRetireForgetsEveryClaimedIdentity(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	defer srv.Close()
	for _, tc := range []struct {
		name  string
		ended bool
		ids   []string
	}{
		{"hello lost to a shutdown", true, []string{"a"}},
		{"two hellos, two ids", false, []string{"b", "c"}},
	} {
		server, client := net.Pipe()
		go io.Copy(io.Discard, client) // the hello's OK needs a reader
		sess := srv.newSession(server)
		sess.ended = tc.ended
		for _, id := range tc.ids {
			resp := sess.hello(&Request{Kind: MsgHello, WireVersion: wireVersion, SessionID: id})
			if refused := resp != nil; refused != tc.ended {
				t.Fatalf("%s: hello(%q) returned %+v", tc.name, id, resp)
			}
		}
		sess.w.close()
		srv.retire(sess)
		client.Close()
		srv.mu.Lock()
		left := len(srv.byID)
		srv.mu.Unlock()
		if left != 0 {
			t.Errorf("%s: %d identities still indexed after retire", tc.name, left)
		}
	}
}

// scriptedReply is what scriptedServer does with one MsgHello.
type scriptedReply int

const (
	answer        scriptedReply = iota // answer, then write what the script returns
	answerThenCut                      // answer, write what the script returns, then sever the connection
)

// scriptedServer speaks just enough of the protocol to script a restore
// attempt by attempt: it adopts every tag a hello offers, tags submits
// t1, t2, …, answers pings, reads and ignores result acks, and asks
// hello how to answer each MsgHello — it may fill in resp and return
// frames to write behind the OK. conn counts accepted connections from
// 1. cut severs the current one.
func scriptedServer(t *testing.T, hello func(conn int, req *Request, resp *Response) ([]byte, scriptedReply)) (addr string, cut func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cur net.Conn
	tags := 0
	serve := func(conn net.Conn, n int) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		dec, enc := gob.NewDecoder(br), gob.NewEncoder(conn)
		for framed := false; ; framed = true {
			if framed {
				m, err := br.ReadByte()
				for err == nil && m == frameAck {
					var buf []byte
					if _, err = readFrame(br, &buf); err == nil {
						m, err = br.ReadByte()
					}
				}
				if err != nil || m != frameGob {
					return
				}
			}
			var req Request
			if err := dec.Decode(&req); err != nil {
				return
			}
			resp := Response{ID: req.ID, Kind: MsgOK}
			reply, after := answer, []byte(nil)
			switch req.Kind {
			case MsgHello:
				resp.Epoch, resp.Tags, resp.WireVersion, resp.ResultSeq = uint64(n), req.ResumeTags, wireVersion, 1
				after, reply = hello(n, &req, &resp)
			case MsgSubmit:
				mu.Lock()
				tags++
				resp.QueryTag = fmt.Sprintf("t%d", tags)
				mu.Unlock()
			case MsgPing:
				resp.Kind = MsgPong
			}
			if framed {
				if _, err := conn.Write([]byte{frameGob}); err != nil {
					return
				}
			}
			if err := enc.Encode(&resp); err != nil {
				return
			}
			if _, err := conn.Write(after); err != nil || reply == answerThenCut {
				return
			}
		}
	}
	go func() {
		for n := 1; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			cur = conn
			mu.Unlock()
			go serve(conn, n)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		cut()
	})
	return ln.Addr().String(), func() {
		mu.Lock()
		defer mu.Unlock()
		if cur != nil {
			_ = cur.Close()
		}
	}
}

// scriptedResults is a session's result stream as a scripted server's
// window holds it: delivery 1 is subscription t1's, announced by one 'S'
// frame, and result seq (from 1) is the 'D' frame of item seq.
func scriptedResults(n int) (announce []byte, frame func(seq uint64) []byte) {
	out := stream.MustSchema("t1", stream.Field{Name: "itemID", Kind: stream.KindInt})
	lay := &core.Layout{Cols: []int{0}, Members: []core.Member{{Out: out, Idx: []int{0}}}}
	announce = appendFrame(nil, frameSchema, appendSchemaFrame(nil, 1, lay))
	return announce, func(seq uint64) []byte {
		b := appendDataHeader(nil, 1, seq)
		b = appendTuple(b, stream.MustTuple(out, stream.Timestamp(seq), stream.Int(int64(seq))))
		patchDataCount(b, 1)
		return appendFrame(nil, frameData, b)
	}
}

// TestFailedRestoreResendsExactlyOnce: the resend behind a hello is cut
// half-way — inside a frame — so the attempt fails after its hello
// learned that the server's window overflowed. The next attempt resumes
// from what the cut one delivered: every held result arrives exactly
// once, in order, and the overflow's gap, owed by the failed attempt, is
// reported exactly once.
func TestFailedRestoreResendsExactlyOnce(t *testing.T) {
	const dropped, total = 2, 40 // results 1..2 overflowed while detached
	announce, frame := scriptedResults(total)
	var mu sync.Mutex
	var lasts []uint64 // per hello, the client's last contiguous result
	addr, cut := scriptedServer(t, func(conn int, req *Request, resp *Response) ([]byte, scriptedReply) {
		mu.Lock()
		lasts = append(lasts, req.ResultSeq)
		mu.Unlock()
		if conn == 1 {
			return nil, answer
		}
		resp.ResultSeq = dropped + 1
		resend := slices.Clone(announce)
		for seq := max(req.ResultSeq, dropped) + 1; seq <= total; seq++ {
			resend = append(resend, frame(seq)...)
		}
		if conn == 2 {
			return resend[:len(resend)/2], answerThenCut
		}
		return resend, answer
	})
	sub, err := DialConfig(addr, Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var rec subRecorder
	if _, err := sub.Submit("SELECT itemID FROM OpenAuction [Now]", 0, rec.onResult, rec.onEnd, rec.onGap); err != nil {
		t.Fatal(err)
	}
	cut()
	waitFor(t, 10*time.Second, "every held result", func() bool { return rec.count() == total-dropped })
	waitFor(t, 10*time.Second, "the session up", func() bool { return sub.Reconnects() >= 1 })
	// Close waits out the reconnect loop, and with it the gap callbacks.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lasts) < 3 || lasts[1] != 0 || lasts[2] <= dropped {
		t.Fatalf("hellos reported %v: want the third to resume past what the cut second delivered", lasts)
	}
	for i, item := range rec.items() {
		if item != int64(dropped+1+i) {
			t.Fatalf("result %d is item %d: a held result was lost or delivered twice (%v)", i, item, rec.items())
		}
	}
	_, gaps, _ := rec.snapshot()
	if want := (Gap{Epoch: 2, From: 1, To: dropped}); len(gaps) != 1 || gaps[0] != want {
		t.Errorf("gaps %+v, want exactly %+v", gaps, want)
	}
}

// TestConnLostAfterHelloRetries: a connection that dies right after
// answering the hello — the last round trip when every subscription is
// adopted — must not leave the client reporting the session up with no
// connection under it. The read loop sees the loss while the session is
// still coming up and leaves the retry to the reconnect loop, so the
// restore attempt has to notice and fail. Each of several attempts is
// cut this way; the client must keep retrying until a connection stays.
func TestConnLostAfterHelloRetries(t *testing.T) {
	const cutConns = 20 // connections 2..21 die after the hello OK
	var stayed atomic.Bool
	addr, cut := scriptedServer(t, func(conn int, req *Request, resp *Response) ([]byte, scriptedReply) {
		if conn == 1 {
			return nil, answer
		}
		if conn <= cutConns+1 {
			return nil, answerThenCut
		}
		stayed.Store(true)
		return nil, answer
	})
	sub, err := DialConfig(addr, Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var rec subRecorder
	if _, err := sub.Submit("SELECT itemID FROM OpenAuction [Now]", 0, rec.onResult, rec.onEnd, rec.onGap); err != nil {
		t.Fatal(err)
	}
	cut()
	waitFor(t, 20*time.Second, "a restore on a connection that stays up", stayed.Load)
	if err := sub.Quiesce(); err != nil {
		t.Fatalf("round trip after the restore: %v", err)
	}
	if _, _, ends := rec.snapshot(); len(ends) != 0 {
		t.Fatalf("subscription ended: %v", ends)
	}
}

// TestDetachedWindowOverflow: a resilient subscriber holding two
// subscriptions is detached while more than a window of results is
// produced. The parked window never holds more than windowBytes — it
// drops what it holds instead — and the resume reports the dropped
// session range as exactly one gap on each adopted subscription; every
// result after the range arrives exactly once, in order.
func TestDetachedWindowOverflow(t *testing.T) {
	_, srv, addr, pub := shareServer(t)
	info := numberedInfo()
	if err := pub.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.NewProxy(addr, faultnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	sub, err := DialConfig(proxy.Addr(), Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Two user nodes: two deliveries, so their results interleave on the
	// session's one sequence.
	var recs [2]subRecorder
	for i := range recs {
		if _, err := sub.Submit("SELECT seq, pad FROM Numbered [Now]", 5+i, recs[i].onResult, recs[i].onEnd, recs[i].onGap); err != nil {
			t.Fatal(err)
		}
	}
	pad := strings.Repeat("p", 1000)
	next := int64(1)
	publish := func(n int, each func()) {
		t.Helper()
		for ; n > 0; n-- {
			if err := pub.Publish(numberedTuple(info.Schema, next, pad)); err != nil {
				t.Fatal(err)
			}
			if err := pub.Quiesce(); err != nil {
				t.Fatal(err)
			}
			next++
			each()
		}
	}
	delivered := func() int { return recs[0].count() + recs[1].count() }
	publish(5, func() {})
	waitFor(t, 5*time.Second, "the results before the partition", func() bool { return delivered() == 10 })

	proxy.Partition()
	waitFor(t, 5*time.Second, "the server to park the session", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.parked) == 1
	})
	var parked *resultWindow
	srv.mu.Lock()
	for _, p := range srv.parked {
		parked = p.res
	}
	srv.mu.Unlock()
	peak := 0
	publish(300, func() { // about 600 KiB of results: more than two windows
		if n := parked.depth(); n > windowBytes {
			t.Fatalf("the parked window holds %d bytes, above its %d", n, windowBytes)
		} else {
			peak = max(peak, n)
		}
	})
	parked.mu.Lock()
	dropped, total := parked.dropped, parked.seq
	parked.mu.Unlock()
	if dropped <= 10 {
		t.Fatalf("the window dropped through %d after %d results: it never overflowed", dropped, total)
	}
	proxy.Heal()
	waitFor(t, 10*time.Second, "the results after the dropped range", func() bool {
		return uint64(delivered()) == 10+total-dropped
	})
	if err := sub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	want := Gap{Epoch: 2, From: 11, To: dropped}
	for i := range recs {
		_, gaps, ends := recs[i].snapshot()
		if len(ends) != 0 {
			t.Fatalf("subscription %d ended: %v", i, ends)
		}
		if len(gaps) != 1 || gaps[0] != want {
			t.Errorf("subscription %d reported %+v, want exactly %+v", i, gaps, want)
		}
		// Items 1..5, then a run that ends at the last item published.
		items := recs[i].items()
		for j, item := range items {
			if j < 5 && item != int64(j+1) || j >= 5 && item != next-int64(len(items)-j) {
				t.Fatalf("subscription %d items %v: not 1..5 followed by a run to %d", i, items, next-1)
			}
		}
	}
	t.Logf("dropped session results 11..%d of %d; the parked window peaked at %d bytes", dropped, total, peak)
}

// TestSplitCutResumesLayout cuts a session's result stream between an
// 'S' frame that changes a delivery's layout and the 'D' frame behind
// it. The client has bound the new layout, but nothing under it arrived;
// the resend from its last contiguous result replays the old layout's
// frames (skipped as already delivered) and the new 'S' frame, so the
// results behind it decode under the right layout and none is lost.
func TestSplitCutResumesLayout(t *testing.T) {
	w := newResultWindow(&wireMetrics{})
	flushes := 0
	w.mu.Lock()
	w.attach(func() { flushes++ }, 0)
	w.mu.Unlock()
	q1, q2 := &subState{}, &subState{}
	solo := &core.Layout{Cols: []int{0, 1}, Members: []core.Member{{Out: fuzzWide, Idx: []int{0, 1}, Sub: q1}}}
	pair := &core.Layout{Cols: []int{0, 1}, Members: []core.Member{
		{Out: fuzzWide, Idx: []int{0, 1}, Sub: q1},
		{Out: fuzzNarrow, Idx: []int{0}, Sub: q2},
	}}
	d := &delivery{win: w}
	row := func(i int64) stream.Tuple {
		return stream.MustTuple(fuzzSource, stream.Timestamp(i), stream.Int(i), stream.Float(float64(i)))
	}
	w.mu.Lock()
	w.add(d, solo, row(1), []bool{true})
	w.add(d, solo, row(2), []bool{true})
	w.add(d, pair, row(3), []bool{true, true}) // the layout changes: a new 'S' frame
	w.add(d, pair, row(4), []bool{false, true})
	w.mu.Unlock()
	wire := bytes.Join(w.takeUnsent(nil), nil)
	w.wrote()

	// The cut: just past the second 'S' frame.
	cut, schemas := 0, 0
	for schemas < 2 {
		if wire[cut] == frameSchema {
			schemas++
		}
		cut += frameHeaderSize + int(binary.LittleEndian.Uint32(wire[cut+1:]))
	}
	if wire[cut] != frameData {
		t.Fatalf("frame %q follows the layout change, want its 'D' frame", wire[cut])
	}
	recs := map[string]*subRecorder{"q1": {}, "q2": {}}
	c := resultClient(recs)
	feed := func(b []byte) {
		br := bufio.NewReader(bytes.NewReader(b))
		for {
			marker, err := br.ReadByte()
			if err != nil {
				return
			}
			if err := c.readBinaryFrame(br, marker); err != nil {
				if err == io.ErrUnexpectedEOF || err == io.EOF {
					return
				}
				t.Fatal(err)
			}
		}
	}
	feed(wire[:cut+3]) // and a few bytes into the next frame
	if c.lastResult != 2 {
		t.Fatalf("the client's last contiguous result is %d before the cut, want 2", c.lastResult)
	}

	// The reconnect: the window resends from the client's sequence.
	w.detach()
	w.mu.Lock()
	w.attach(func() { flushes++ }, c.lastResult)
	w.mu.Unlock()
	feed(bytes.Join(w.takeUnsent(nil), nil))
	if got, want := recs["q1"].items(), []int64{1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("q1 items %v, want %v", got, want)
	}
	if got, want := recs["q2"].items(), []int64{3, 4}; !slices.Equal(got, want) {
		t.Errorf("q2 items %v, want %v", got, want)
	}
	if rows, _, _ := recs["q2"].snapshot(); len(rows) > 0 && rows[0].Schema.Arity() != 1 {
		t.Errorf("q2 decoded under the wrong layout: %v", rows[0])
	}
}
