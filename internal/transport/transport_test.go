package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
)

func TestSchemaCodec(t *testing.T) {
	sch := stream.MustSchema("S",
		stream.Field{Name: "a", Kind: stream.KindInt},
		stream.Field{Name: "b", Kind: stream.KindString, AvgLen: 24},
	)
	got, err := FromWireSchema(ToWireSchema(sch))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sch) {
		t.Errorf("schema round trip: %v vs %v", got, sch)
	}
}

func TestInfoCodec(t *testing.T) {
	info := &stream.Info{
		Schema: stream.MustSchema("S", stream.Field{Name: "a", Kind: stream.KindFloat}),
		Rate:   12.5,
		Stats:  map[string]stream.AttrStats{"a": {Min: 0, Max: 9, Distinct: 10}},
	}
	got, err := FromWireInfo(ToWireInfo(info))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rate != 12.5 || got.Stats["a"].Distinct != 10 || !got.Schema.Equal(info.Schema) {
		t.Errorf("info round trip: %+v", got)
	}
}

// startServer spins up a daemon-backed system on an ephemeral port.
func startServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
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
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func auctionInfo() *stream.Info {
	return &stream.Info{Schema: stream.MustSchema("OpenAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "start_price", Kind: stream.KindFloat},
	), Rate: 10}
}

func TestClientServerEndToEnd(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info := auctionInfo()
	if err := c.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []stream.Tuple
	tag, err := c.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100", 5,
		func(tp stream.Tuple) {
			mu.Lock()
			got = append(got, tp)
			mu.Unlock()
		}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag == "" {
		t.Fatal("empty tag")
	}
	pub := func(ts stream.Timestamp, item int64, price float64) {
		tp := stream.MustTuple(info.Schema, ts, stream.Int(item), stream.Float(price))
		if err := c.Publish(tp); err != nil {
			t.Fatal(err)
		}
	}
	pub(1, 7, 500)
	pub(2, 8, 50)
	pub(3, 9, 300)

	// Results are pushed asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("results = %d, want 2", len(got))
	}
	if got[0].MustGet("OpenAuction.itemID").AsInt() != 7 ||
		got[1].MustGet("OpenAuction.itemID").AsInt() != 9 {
		t.Errorf("results = %v", got)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 1 || st.Processors != 1 || st.TotalDataBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.Cancel(tag); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(tag); err == nil {
		t.Error("double cancel should fail")
	}
	st, _ = c.Stats()
	if st.Queries != 0 {
		t.Errorf("queries after cancel = %d", st.Queries)
	}
}

func TestServerErrors(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Publish before register.
	tp := stream.MustTuple(auctionInfo().Schema, 1, stream.Int(1), stream.Float(1))
	if err := c.Publish(tp); err == nil {
		t.Error("publish of unregistered stream should fail")
	}
	// Bad query.
	if _, err := c.Submit("SELECT FROM nowhere", 0, nil, nil, nil); err == nil {
		t.Error("bad query should fail")
	}
	// Bad node.
	if err := c.Register(auctionInfo(), 9999); err == nil {
		t.Error("bad node should fail")
	}
}

func TestConnectionDropCancelsQueries(t *testing.T) {
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
	if err := c.Register(auctionInfo(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("SELECT itemID FROM OpenAuction [Now]", 2, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if sys.Queries() != 1 {
		t.Fatalf("queries = %d", sys.Queries())
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for sys.Queries() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sys.Queries() != 0 {
		t.Error("queries should be cancelled when the connection drops")
	}
}
