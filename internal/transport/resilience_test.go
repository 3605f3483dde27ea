package transport

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"runtime/metrics"
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
	seqs []uint64
	rows []stream.Tuple
	gaps []Gap
	ends []error
}

func (r *subRecorder) onResult(t stream.Tuple, seq uint64) {
	r.mu.Lock()
	r.seqs = append(r.seqs, seq)
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
func (r *subRecorder) snapshot() ([]uint64, []Gap, []error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seqs...), append([]Gap(nil), r.gaps...), append([]error(nil), r.ends...)
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
// subscriber; results emitted while it is away are reported as one gap
// with exact bounds, and delivery continues seamlessly — no duplicates,
// no reordering — at the next epoch after the partition heals.
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

	publish := func(n int) {
		for i := 0; i < n; i++ {
			tp := stream.MustTuple(info.Schema, stream.Timestamp(i), stream.Int(int64(i)), stream.Float(500))
			if err := pub.Publish(tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(5)
	waitFor(t, 5*time.Second, "first 5 results", func() bool {
		seqs, _, _ := rec.snapshot()
		return len(seqs) == 5
	})

	proxy.Partition()
	waitFor(t, 5*time.Second, "client to notice the partition", func() bool {
		sub.mu.Lock()
		defer sub.mu.Unlock()
		return !sub.up
	})
	publish(3) // lost: the subscriber is away; seqs 6..8 become the gap
	proxy.Heal()
	waitFor(t, 10*time.Second, "resume with gap", func() bool {
		_, gaps, _ := rec.snapshot()
		return len(gaps) == 1
	})
	publish(2)
	waitFor(t, 5*time.Second, "post-resume results", func() bool {
		seqs, _, _ := rec.snapshot()
		return len(seqs) == 7
	})

	seqs, gaps, ends := rec.snapshot()
	wantSeqs := []uint64{1, 2, 3, 4, 5, 9, 10}
	for i, s := range seqs {
		if s != wantSeqs[i] {
			t.Fatalf("seqs = %v, want %v", seqs, wantSeqs)
		}
	}
	if gaps[0].Unknown || gaps[0].From != 6 || gaps[0].To != 8 || gaps[0].Epoch != 2 {
		t.Errorf("gap = %+v, want epoch 2 lost 6..8", gaps[0])
	}
	if gaps[0].Lost() != 3 {
		t.Errorf("gap.Lost() = %d, want 3", gaps[0].Lost())
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

func (l *seqLedger) onResult(t stream.Tuple, _ uint64) {
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
	if limit := pubWindowBytes / tupleBytes; repeated > limit {
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
	if w := c.PublishWindow(); w < pubWindowBytes {
		t.Errorf("Publish blocked with %d bytes in the window, below the %d limit", w, pubWindowBytes)
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
		sess.w.teardown()
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

// scriptedReply is what scriptedServer does with one MsgResume.
type scriptedReply int

const (
	answer        scriptedReply = iota // answer with the resume point
	cutInstead                         // sever the connection instead of answering
	answerThenCut                      // answer, then sever the connection
)

// scriptedServer speaks just enough of the protocol to script a restore
// attempt by attempt: it adopts every tag a hello offers, tags submits
// t1, t2, …, answers pings, and asks resume for each MsgResume's resume
// point and reply. conn counts accepted connections from 1. cut severs
// the current one.
func scriptedServer(t *testing.T, resume func(conn int, req *Request) (seq uint64, reply scriptedReply)) (addr string, cut func()) {
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
				if m, err := br.ReadByte(); err != nil || m != frameGob {
					return
				}
			}
			var req Request
			if err := dec.Decode(&req); err != nil {
				return
			}
			resp := Response{ID: req.ID, Kind: MsgOK}
			reply := answer
			switch req.Kind {
			case MsgHello:
				resp.Epoch, resp.Tags, resp.WireVersion = uint64(n), req.ResumeTags, wireVersion
			case MsgSubmit:
				mu.Lock()
				tags++
				resp.QueryTag = fmt.Sprintf("t%d", tags)
				mu.Unlock()
			case MsgResume:
				var seq uint64
				if seq, reply = resume(n, &req); reply == cutInstead {
					return
				}
				resp.Seq, resp.QueryTag = seq, req.QueryTag
			case MsgPing:
				resp.Kind = MsgPong
			}
			if framed {
				if _, err := conn.Write([]byte{frameGob}); err != nil {
					return
				}
			}
			if err := enc.Encode(&resp); err != nil || reply == answerThenCut {
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

// TestFailedRestoreKeepsGapOwed: a restore attempt that resumes one
// subscription (learning its gap, advancing its lastSeq) and then fails
// on the next must not lose that gap — the attempt that completes
// cannot learn it again, so it is owed until then and reported exactly
// once.
func TestFailedRestoreKeepsGapOwed(t *testing.T) {
	var mu sync.Mutex
	var resumes []string
	addr, cut := scriptedServer(t, func(conn int, req *Request) (uint64, scriptedReply) {
		mu.Lock()
		resumes = append(resumes, fmt.Sprintf("conn%d %s last=%d", conn, req.QueryTag, req.LastSeq))
		mu.Unlock()
		switch {
		case req.QueryTag == "t1":
			return 3, answer // results 1..3 were emitted while the client was away
		case conn == 2:
			return 0, cutInstead // the first attempt dies on the second subscription
		default:
			return 0, answer
		}
	})
	sub, err := DialConfig(addr, Config{Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var rec1, rec2 subRecorder
	for _, rec := range []*subRecorder{&rec1, &rec2} {
		if _, err := sub.Submit("SELECT itemID FROM OpenAuction [Now]", 0, rec.onResult, rec.onEnd, rec.onGap); err != nil {
			t.Fatal(err)
		}
	}
	cut()
	waitFor(t, 10*time.Second, "the second restore attempt to complete", func() bool {
		return sub.Reconnects() == 1
	})
	// Close waits out the reconnect loop, and with it the gap callbacks.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"conn2 t1 last=0", "conn2 t2 last=0", "conn3 t1 last=3", "conn3 t2 last=0"}
	if !reflect.DeepEqual(resumes, want) {
		t.Fatalf("resumes = %v, want %v", resumes, want)
	}
	_, gaps1, _ := rec1.snapshot()
	if len(gaps1) != 1 || gaps1[0] != (Gap{Epoch: 2, From: 1, To: 3}) {
		t.Errorf("first subscription's gaps = %+v, want exactly the one the failed attempt learned (epoch 2, lost 1..3)", gaps1)
	}
	if _, gaps2, _ := rec2.snapshot(); len(gaps2) != 0 {
		t.Errorf("second subscription's gaps = %+v, want none", gaps2)
	}
}

// TestConnLostAfterLastResumeRetries: a connection that dies right after
// answering the last resume must not leave the client reporting the
// session up with no connection under it. The read loop sees the loss
// while the session is still coming up and leaves the retry to the
// reconnect loop, so the restore attempt has to notice and fail. Each of
// several attempts is cut this way; the client must keep retrying until
// a connection stays.
func TestConnLostAfterLastResumeRetries(t *testing.T) {
	const cutConns = 20 // connections 2..21 die after the resume OK
	var stayed atomic.Bool
	addr, cut := scriptedServer(t, func(conn int, req *Request) (uint64, scriptedReply) {
		if conn <= cutConns+1 {
			return 0, answerThenCut
		}
		stayed.Store(true)
		return 0, answer
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
