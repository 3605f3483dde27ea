package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
)

// TestConcurrentClients exercises the daemon with several clients
// registering, querying and publishing simultaneously — the shape a real
// deployment sees. Run with -race in CI.
func TestConcurrentClients(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	// One publisher client registers the stream.
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	info := auctionInfo()
	if err := pub.Register(info, 0); err != nil {
		t.Fatal(err)
	}

	const subscribers = 4
	var delivered atomic.Int64
	var wg sync.WaitGroup
	clients := make([]*Client, subscribers)
	for i := 0; i < subscribers; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
		// Each subscriber has a different threshold.
		q := fmt.Sprintf("SELECT itemID FROM OpenAuction [Now] WHERE start_price > %d", i*100)
		if _, err := c.Submit(q, (i+3)%16, func(stream.Tuple) {
			delivered.Add(1)
		}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	const tuples = 50
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < tuples; i++ {
			tp := stream.MustTuple(info.Schema, stream.Timestamp(i+1),
				stream.Int(int64(i)), stream.Float(float64((i*37)%400)))
			if err := pub.Publish(tp); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Expected deliveries: per tuple, the subscribers whose threshold is
	// below its price.
	want := 0
	for i := 0; i < tuples; i++ {
		price := float64((i * 37) % 400)
		for s := 0; s < subscribers; s++ {
			if price > float64(s*100) {
				want++
			}
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for delivered.Load() != int64(want) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := delivered.Load(); got != int64(want) {
		t.Fatalf("delivered %d results, want %d", got, want)
	}

	st, err := pub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != subscribers {
		t.Errorf("queries = %d", st.Queries)
	}
}

// startLiveServer hosts a LiveSystem behind a server on an ephemeral
// port — the cosmosd default assembly — and tears it down gracefully.
func startLiveServer(t *testing.T, workers int) (addr string, sys *core.System, shutdown func()) {
	t.Helper()
	ls, err := core.NewLiveSystem(core.Options{
		Nodes: 16, Seed: 3, ExecWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ls.System, WithSystemClose(ls.Close))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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
	return ln.Addr().String(), ls.System, func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	}
}

// TestConcurrentSubscribeCancelMidStream runs several clients against a
// live-system server, each repeatedly subscribing, taking a few results
// off a continuous publish stream, and cancelling mid-stream while the
// publisher keeps going. Every subscription must end exactly once with a
// nil error, and the system must be empty of queries afterwards. Run
// with -race in CI.
func TestConcurrentSubscribeCancelMidStream(t *testing.T) {
	addr, sys, shutdown := startLiveServer(t, 2)
	defer shutdown()

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	info := auctionInfo()
	if err := pub.Register(info, 0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tp := stream.MustTuple(info.Schema, stream.Timestamp(i+1),
				stream.Int(int64(i)), stream.Float(float64((i*37)%400)))
			if err := pub.Publish(tp); err != nil {
				return // connection torn down at test end
			}
		}
	}()

	const subscribers, rounds = 5, 3
	var wg sync.WaitGroup
	for s := 0; s < subscribers; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				var got atomic.Int64
				endCh := make(chan error, 1)
				q := fmt.Sprintf("SELECT itemID FROM OpenAuction [Now] WHERE start_price > %d", (s*50)%300)
				tag, err := c.Submit(q, (s+3)%16,
					func(stream.Tuple) { got.Add(1) },
					func(err error) { endCh <- err }, nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				deadline := time.Now().Add(10 * time.Second)
				for got.Load() == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got.Load() == 0 {
					t.Errorf("subscriber %d round %d: no results while publishing", s, r)
				}
				if err := c.Cancel(tag); err != nil {
					t.Errorf("cancel: %v", err)
				}
				select {
				case err := <-endCh:
					if err != nil {
						t.Errorf("subscription ended with %v, want nil", err)
					}
				case <-time.After(5 * time.Second):
					t.Errorf("subscriber %d round %d: onEnd never fired", s, r)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-pubDone
	deadline := time.Now().Add(5 * time.Second)
	for sys.Queries() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := sys.Queries(); n != 0 {
		t.Errorf("%d queries left after all cancels", n)
	}
}

// TestCancelAfterCloseIdempotent: cancelling after the client closed must
// fail cleanly (no panic, no hang), and Close itself is idempotent.
func TestCancelAfterCloseIdempotent(t *testing.T) {
	addr, _, shutdown := startLiveServer(t, 1)
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(auctionInfo(), 1); err != nil {
		t.Fatal(err)
	}
	ends := make(chan error, 1)
	tag, err := c.Submit("SELECT itemID FROM OpenAuction [Now]", 2,
		nil, func(err error) { ends <- err }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ends:
		if err != nil {
			t.Errorf("close ended subscription with %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onEnd never fired on Close")
	}
	if err := c.Cancel(tag); err == nil {
		t.Error("Cancel after Close should report the closed client")
	}
	if err := c.Cancel(tag); err == nil {
		t.Error("second Cancel after Close should still error, not panic")
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// TestServerShutdownDrainsAndEnds: a graceful server shutdown must first
// flush every in-flight result onto the wire, then end the subscription
// with a clean MsgEnd, before the connection drops.
func TestServerShutdownDrainsAndEnds(t *testing.T) {
	addr, _, shutdown := startLiveServer(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info := auctionInfo()
	if err := c.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	endCh := make(chan error, 1)
	if _, err := c.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100", 5,
		func(stream.Tuple) { got.Add(1) },
		func(err error) { endCh <- err }, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil { // settle the subscription
		t.Fatal(err)
	}
	const matching = 20
	for i := 0; i < matching; i++ {
		tp := stream.MustTuple(info.Schema, stream.Timestamp(i+1),
			stream.Int(int64(i)), stream.Float(500))
		if err := c.Publish(tp); err != nil {
			t.Fatal(err)
		}
	}
	// Publish is pipelined: the shutdown owes subscribers what the server
	// acknowledged, so wait for the acks — not for the results.
	waitFor(t, 5*time.Second, "publishes to be acknowledged", func() bool { return c.PublishWindow() == 0 })
	shutdown() // graceful: drains, pushes MsgEnd, closes the system
	select {
	case err := <-endCh:
		if err != nil {
			t.Errorf("subscription ended with %v, want clean end", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription never ended on server shutdown")
	}
	if n := got.Load(); n != matching {
		t.Errorf("received %d results before the end, want %d (drain must precede MsgEnd)", n, matching)
	}
	// The connection is gone: calls fail rather than hang.
	if _, err := c.Stats(); err == nil {
		t.Error("Stats after server shutdown should fail")
	}
}

// TestConcurrentPublishers: several goroutines publish into two sources
// of one connection at once while the writer drains the window and the
// read loop releases it. Every tuple must arrive exactly once, and each
// goroutine's tuples in the order it published them — whatever frames
// and chunks the interleaving produced. Run with -race in CI.
func TestConcurrentPublishers(t *testing.T) {
	addr, sys, shutdown := startLiveServer(t, 2)
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const publishers, perPublisher = 4, 3000
	var mu sync.Mutex
	last := map[int64]int64{} // publisher → last n seen
	var total, disorder atomic.Int64
	sources := make([]*Source, 2)
	for si, name := range []string{"Left", "Right"} {
		info := &stream.Info{Schema: stream.MustSchema(name,
			stream.Field{Name: "publisher", Kind: stream.KindInt},
			stream.Field{Name: "n", Kind: stream.KindInt},
		), Rate: 100}
		if err := c.Register(info, 1+si); err != nil {
			t.Fatal(err)
		}
		if sources[si], err = c.Source(name); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Submit("SELECT publisher, n FROM "+name+" [Now]", 5, func(tp stream.Tuple) {
			p, n := tp.Values[0].AsInt(), tp.Values[1].AsInt()
			mu.Lock()
			if n != last[p]+1 {
				disorder.Add(1)
			}
			last[p] = n
			mu.Unlock()
			total.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := int64(0); p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := sources[p%2] // two publishers per source: frames keep switching
			for n := int64(1); n <= perPublisher; n++ {
				if err := src.Publish(stream.MustTuple(src.Schema(), stream.Timestamp(n), stream.Int(p), stream.Int(n))); err != nil {
					t.Errorf("publisher %d: %v", p, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != publishers*perPublisher || disorder.Load() != 0 {
		t.Fatalf("%d of %d tuples arrived, %d out of order", got, publishers*perPublisher, disorder.Load())
	}
}
