package transport

import (
	"bufio"
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
		func(tp stream.Tuple) {
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

// rawPeer speaks the protocol by hand, the way a peer of another build —
// or a hostile one — would. Until its hello is accepted it exchanges
// bare gob; after (framed set) every message carries its marker.
type rawPeer struct {
	conn   net.Conn
	enc    *gob.Encoder
	br     *bufio.Reader // under dec, so markers and frames read in step with gob
	dec    *gob.Decoder
	framed bool
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	return &rawPeer{conn: conn, enc: gob.NewEncoder(conn), br: br, dec: gob.NewDecoder(br)}
}

// call sends one request and reads its response.
func (p *rawPeer) call(t *testing.T, req *Request) *Response {
	t.Helper()
	if p.framed {
		if _, err := p.conn.Write([]byte{frameGob}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	return p.readResponse(t)
}

func (p *rawPeer) readResponse(t *testing.T) *Response {
	t.Helper()
	_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if p.framed {
		if marker, err := p.br.ReadByte(); err != nil || marker != frameGob {
			t.Fatalf("reading a control frame: marker %q, err %v", marker, err)
		}
	}
	var resp Response
	if err := p.dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// hello opens the session at this build's wire version.
func (p *rawPeer) hello(t *testing.T) {
	t.Helper()
	if resp := p.call(t, &Request{ID: 1, Kind: MsgHello, WireVersion: wireVersion}); resp.Kind != MsgOK {
		t.Fatalf("hello refused: %s", resp.Error)
	}
	p.framed = true
}

// appendFrame appends one binary frame, header and payload, to dst.
func appendFrame(dst []byte, marker byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], marker, len(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// sendFrame writes one binary frame.
func (p *rawPeer) sendFrame(t *testing.T, marker byte, payload []byte) {
	t.Helper()
	if _, err := p.conn.Write(appendFrame(nil, marker, payload)); err != nil {
		t.Fatal(err)
	}
}

// readAck reads one 'A' frame.
func (p *rawPeer) readAck(t *testing.T) (applied uint64, refusal string) {
	t.Helper()
	_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	marker, err := p.br.ReadByte()
	if err != nil || marker != frameAck {
		t.Fatalf("reading an ack: marker %q, err %v", marker, err)
	}
	var buf []byte
	b, err := readFrame(p.br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	applied, refusal, err = decodeAck(b)
	if err != nil {
		t.Fatal(err)
	}
	return applied, refusal
}

// TestWireVersionOlderOfferRefused: a peer whose hello offers version 4
// (results numbered per subscription), version 3 (results framed per
// subscription), version 2 (gob publish requests),
// version 1 (gob result pushes) or none at all (a peer older than the
// negotiation) is recognised and refused with an error naming both
// versions; the connection stays usable for control traffic.
func TestWireVersionOlderOfferRefused(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	for _, offer := range []int{0, 1, 2, 3, 4} {
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

// TestPublishFrameBeforeHelloRefused: binary frames exist only after the
// hello. A peer that opens with a publish frame gets an error naming the
// wire version and is hung up on; a source cannot be opened without the
// hello either. Neither leaves anything behind.
func TestPublishFrameBeforeHelloRefused(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	p := dialRaw(t, addr)
	if resp := p.call(t, &Request{ID: 1, Kind: MsgRegister, Info: ToWireInfo(auctionInfo()), Node: 1}); resp.Kind != MsgOK {
		t.Fatalf("register without hello: %s", resp.Error)
	}
	resp := p.call(t, &Request{ID: 2, Kind: MsgOpenSource, Stream: "OpenAuction", Source: 1})
	if resp.Kind != MsgError || !strings.Contains(resp.Error, fmt.Sprintf("wire version %d", wireVersion)) {
		t.Fatalf("open source without hello answered kind %d %q; want a refusal naming the wire version", resp.Kind, resp.Error)
	}

	frame := appendDataHeader(nil, 1, 1)
	frame = appendTuple(frame, stream.MustTuple(auctionInfo().Schema, 1, stream.Int(1), stream.Float(1)))
	patchDataCount(frame, 1)
	p.sendFrame(t, frameData, frame)
	// Half-close: whatever the gob decoder makes of the frame's bytes, it
	// cannot wait for more of them.
	if err := p.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp = p.readResponse(t)
	if resp.Kind != MsgError || !strings.Contains(resp.Error, fmt.Sprintf("wire version %d hello", wireVersion)) {
		t.Fatalf("publish frame before hello answered kind %d %q; want a refusal naming the hello", resp.Kind, resp.Error)
	}
	if _, err := p.br.ReadByte(); err == nil {
		t.Fatal("the server kept the connection open after an undecodable request")
	}

	// The server carries on: a proper client publishes into the stream the
	// raw peer registered, and the refused frame's tuple never arrived.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish(stream.MustTuple(auctionInfo().Schema, 2, stream.Int(2), stream.Float(2))); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.Wire.IngestTuples != 1 {
		t.Fatalf("ingested %d tuples (%d over the wire), want the one published after a hello", st.Ingested, st.Wire.IngestTuples)
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
