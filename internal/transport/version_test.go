package transport

import (
	"encoding/gob"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cosmos/internal/stream"
)

// TestWireVersionAgreed: a client and a server of this build agree on
// the one wire version in the hello and results travel end to end as
// binary frames, values and kinds intact.
func TestWireVersionAgreed(t *testing.T) {
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
	_, err = c.Submit("SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > 100", 5,
		func(tp stream.Tuple, _ uint64) {
			mu.Lock()
			got = append(got, tp)
			mu.Unlock()
		}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tp := stream.MustTuple(info.Schema, stream.Timestamp(1000+i),
			stream.Int(int64(i)), stream.Float(150.5))
		if err := c.Publish(tp); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d/5 results", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, tp := range got[:5] {
		if tp.Values[0].AsInt() != int64(i) || tp.Values[1].AsFloat() != 150.5 {
			t.Fatalf("result %d corrupted across the wire: %v", i, tp)
		}
		if tp.Values[1].Kind() != stream.KindFloat {
			t.Fatalf("result %d kind mangled: %v", i, tp.Values[1].Kind())
		}
	}
}

// rawPeer speaks the gob control protocol by hand, the way a peer of
// another build would.
type rawPeer struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawPeer{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// call sends one request and reads the (unframed) response.
func (p *rawPeer) call(t *testing.T, req *Request) *Response {
	t.Helper()
	if err := p.enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp Response
	if err := p.dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestWireVersionOlderOfferRefused: a peer whose hello offers version 1
// (gob result pushes) or none at all (a peer older than the negotiation)
// is recognised and refused with an error naming both versions; the
// connection stays usable for control traffic.
func TestWireVersionOlderOfferRefused(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	for _, offer := range []int{0, 1} {
		p := dialRaw(t, addr)
		resp := p.call(t, &Request{ID: 1, Kind: MsgHello, WireVersion: offer})
		if resp.Kind != MsgError {
			t.Fatalf("offer %d: hello answered kind %d, want a refusal", offer, resp.Kind)
		}
		want := fmt.Sprintf("wire version %d is not supported, this server speaks version %d", offer, wireVersion)
		if !strings.Contains(resp.Error, want) {
			t.Fatalf("offer %d: refusal %q does not name the versions (%q)", offer, resp.Error, want)
		}
		if resp := p.call(t, &Request{ID: 2, Kind: MsgCatalog}); resp.Kind != MsgOK {
			t.Fatalf("offer %d: control request after the refusal answered kind %d (%s)", offer, resp.Kind, resp.Error)
		}
	}
}

// TestSubmitWithoutHelloRefused: results have one framing, set up by the
// hello, so a submit on a connection that never said hello is refused —
// by name — and leaves no query behind. Control requests need no hello.
func TestSubmitWithoutHelloRefused(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	p := dialRaw(t, addr)
	if resp := p.call(t, &Request{ID: 1, Kind: MsgRegister, Info: ToWireInfo(auctionInfo()), Node: 1}); resp.Kind != MsgOK {
		t.Fatalf("register without hello: %s", resp.Error)
	}
	resp := p.call(t, &Request{ID: 2, Kind: MsgSubmit, CQL: "SELECT itemID FROM OpenAuction [Now]", UserNode: 5})
	if resp.Kind != MsgError || !strings.Contains(resp.Error, fmt.Sprintf("wire version %d", wireVersion)) {
		t.Fatalf("submit without hello answered kind %d %q; want a refusal naming the wire version", resp.Kind, resp.Error)
	}
	stats := p.call(t, &Request{ID: 3, Kind: MsgStats})
	if stats.Kind != MsgOK || stats.Stats.Queries != 0 {
		t.Fatalf("refused submit left %d queries behind (%s)", stats.Stats.Queries, stats.Error)
	}
}

// TestClientRefusesOlderServer: a server that answers the hello with a
// lower version (it would go on to push gob results) fails the dial with
// a version message, not a hung or garbled connection.
func TestClientRefusesOlderServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req Request
		if gob.NewDecoder(conn).Decode(&req) == nil {
			_ = gob.NewEncoder(conn).Encode(&Response{ID: req.ID, Kind: MsgOK, WireVersion: 1})
		}
		_, _ = conn.Read(make([]byte, 1)) // hold the connection until the client gives up
	}()
	_, err = Dial(ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("dial against a version-1 server: err %v, want a wire version mismatch", err)
	}
}
