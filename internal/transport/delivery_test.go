package transport

import (
	"bytes"
	"net"
	"slices"
	"testing"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// sharePair is one query group's worth of subscriptions: the same
// stream, [Now], different filters, so a tuple can be a result of both or
// of the wide one alone.
const (
	shareWide   = "SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > 10"
	shareNarrow = "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100"
	// Encoded rows: a timestamp, then a tagged 8-byte slot per value.
	wideBody   = 8 + 9 + 9
	narrowBody = 8 + 9
)

// shareServer hosts a synchronous system behind a server and returns
// both, and a client that has registered OpenAuction for publishing.
func shareServer(t *testing.T) (*core.System, *Server, string, *Client) {
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
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	pub, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	if err := pub.Register(auctionInfo(), 1); err != nil {
		t.Fatal(err)
	}
	return sys, srv, ln.Addr().String(), pub
}

// publishPrice publishes one OpenAuction tuple and waits until the
// server has applied it.
func publishPrice(t *testing.T, pub *Client, item int64, price float64) {
	t.Helper()
	if err := pub.Publish(stream.MustTuple(auctionInfo().Schema, stream.Timestamp(item), stream.Int(item), stream.Float(price))); err != nil {
		t.Fatal(err)
	}
	if err := pub.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// submitRec submits q at node on c, recording its results.
func submitRec(t *testing.T, c *Client, q string, node int) (string, *subRecorder) {
	t.Helper()
	rec := &subRecorder{}
	tag, err := c.Submit(q, node, rec.onResult, rec.onEnd, rec.onGap)
	if err != nil {
		t.Fatal(err)
	}
	return tag, rec
}

func (r *subRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rows)
}

// wireDelta publishes one tuple and returns how the server's result
// counters moved once want results have reached the recorders.
func wireDelta(t *testing.T, srv *Server, pub *Client, item int64, price float64, want int, recs ...*subRecorder) (results, batches, bytes int64) {
	t.Helper()
	before := srv.WireStats()
	had := 0
	for _, r := range recs {
		had += r.count()
	}
	publishPrice(t, pub, item, price)
	waitFor(t, 5*time.Second, "the results", func() bool {
		n := 0
		for _, r := range recs {
			n += r.count()
		}
		return n == had+want
	})
	after := srv.WireStats()
	return after.Results - before.Results, after.Batches - before.Batches, after.Bytes - before.Bytes
}

// TestDeliverySharingScope pins what shares a delivery: subscriptions of
// one connection, in one query group, at one user node. They cost one
// body per result plus a match bitmap; the same pair at two nodes, or on
// two connections, costs two bodies. Cancelling one member leaves the
// other's results whole and withdraws its interest from the proxy's
// broker interface, and a delivery of one subscription is framed exactly
// as wire version 3 framed a subscription.
func TestDeliverySharingScope(t *testing.T) {
	t.Run("one connection, group and node", func(t *testing.T) {
		_, srv, addr, pub := shareServer(t)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, wide := submitRec(t, c, shareWide, 5)
		_, narrow := submitRec(t, c, shareNarrow, 5)
		results, batches, n := wireDelta(t, srv, pub, 1, 150, 2, wide, narrow)
		frame := int64(6 + 8 + 1 + wideBody) // id and count, one firstSeq, one bitmap byte, one body
		if results != 2 || batches != 1 || n != frame {
			t.Fatalf("a result of both: %d results, %d frames, %d bytes; want 2, 1, %d", results, batches, n, frame)
		}
		if results, batches, n = wireDelta(t, srv, pub, 2, 50, 1, wide, narrow); results != 1 || batches != 1 || n != frame {
			t.Fatalf("a result of one: %d results, %d frames, %d bytes; want 1, 1, %d (the body is the pair's union)", results, batches, n, frame)
		}
	})

	t.Run("two nodes", func(t *testing.T) {
		_, srv, addr, pub := shareServer(t)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, wide := submitRec(t, c, shareWide, 5)
		_, narrow := submitRec(t, c, shareNarrow, 6)
		results, batches, n := wireDelta(t, srv, pub, 1, 150, 2, wide, narrow)
		if want := int64(2*dataHeaderSize + wideBody + narrowBody); results != 2 || batches != 2 || n != want {
			t.Fatalf("%d results, %d frames, %d bytes; want 2, 2, %d", results, batches, n, want)
		}
	})

	t.Run("two connections", func(t *testing.T) {
		_, srv, addr, pub := shareServer(t)
		var recs []*subRecorder
		for _, q := range []string{shareWide, shareNarrow} {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, rec := submitRec(t, c, q, 5)
			recs = append(recs, rec)
		}
		results, batches, n := wireDelta(t, srv, pub, 1, 150, 2, recs...)
		if want := int64(2*dataHeaderSize + wideBody + narrowBody); results != 2 || batches != 2 || n != want {
			t.Fatalf("%d results, %d frames, %d bytes; want 2, 2, %d", results, batches, n, want)
		}
	})

	t.Run("cancel one member", func(t *testing.T) {
		sys, srv, addr, pub := shareServer(t)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wideTag, wide := submitRec(t, c, shareWide, 5)
		narrowTag, narrow := submitRec(t, c, shareNarrow, 5)
		wireDelta(t, srv, pub, 1, 150, 2, wide, narrow)
		wireDelta(t, srv, pub, 2, 50, 1, wide, narrow)
		if err := c.Cancel(narrowTag); err != nil {
			t.Fatal(err)
		}
		wireDelta(t, srv, pub, 3, 150, 1, wide)
		wireDelta(t, srv, pub, 4, 60, 1, wide)
		if items := wide.items(); !slices.Equal(items, []int64{1, 2, 3, 4}) {
			t.Fatalf("survivor's items %v, want 1..4", items)
		}
		// Alone in its group, the survivor subscribes its group's whole
		// result stream; nothing of the cancelled member's filter or
		// projection may remain on the interface.
		var stream string
		for _, ps := range sys.StatsSnapshot().Plans {
			if slices.Contains(ps.Queries, wideTag) {
				stream = ps.ResultStream
			}
		}
		if got, want := serverHandle(t, srv, wideTag).Demand(), profile.ForResult(stream); got == nil || !got.Equal(want) {
			t.Fatalf("proxy interface demand %v, want the survivor's %v", got, want)
		}
	})

	t.Run("singleton frame is version 3", func(t *testing.T) {
		_, _, addr, pub := shareServer(t)
		p := dialRaw(t, addr)
		p.hello(t)
		if resp := p.call(t, &Request{ID: 2, Kind: MsgSubmit, CQL: shareNarrow, UserNode: 5}); resp.Kind != MsgOK {
			t.Fatalf("submit: %s", resp.Error)
		}
		publishPrice(t, pub, 7, 500)
		_, _, announced := readRawFrame(t, p, frameSchema)
		if len(announced) != 1 {
			t.Fatalf("%d members announced, want 1", len(announced))
		}
		got, _, _ := readRawFrame(t, p, frameData)
		// As version 3: id, count, firstSeq, then the subscription's own row.
		out := announced[0].schema
		want := appendDataHeader(nil, 1, 1)
		want = appendTuple(want, stream.MustTuple(out, 7, stream.Int(7)))
		patchDataCount(want, 1)
		if !bytes.Equal(got, want) {
			t.Fatalf("singleton 'D' frame\n% x\nwant the version-3 bytes\n% x", got, want)
		}
	})
}

// serverHandle finds a subscription's query on whichever session holds it.
func serverHandle(t *testing.T, srv *Server, tag string) *core.QueryHandle {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for sess := range srv.sessions {
		sess.mu.Lock()
		st := sess.subs[tag]
		sess.mu.Unlock()
		if st != nil {
			return st.h
		}
	}
	t.Fatalf("no session holds %s", tag)
	return nil
}

// readRawFrame reads the raw peer's next binary frame, which must carry
// marker, and returns its payload — decoded too when it is an 'S' frame.
func readRawFrame(t *testing.T, p *rawPeer, marker byte) ([]byte, int, []wireMember) {
	t.Helper()
	_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if m, err := p.br.ReadByte(); err != nil || m != marker {
		t.Fatalf("reading a %q frame: marker %q, err %v", marker, m, err)
	}
	var buf []byte
	b, err := readFrame(p.br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if marker != frameSchema {
		return b, 0, nil
	}
	_, arity, members, err := decodeSchemaFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return b, arity, members
}
