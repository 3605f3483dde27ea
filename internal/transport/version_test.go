package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
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

// controlFrame is msg — a *Request or *Response — as the 'G' frame a
// pump writes.
func controlFrame(t testing.TB, msg any) []byte {
	t.Helper()
	var b bytes.Buffer
	p := newPump[struct{}](&b, 64)
	if err := p.writeControl(msg); err != nil {
		t.Fatal(err)
	}
	if err := p.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// appendFrame appends one frame, header and payload, to dst.
func appendFrame(dst []byte, marker byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], marker, len(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// nextFrame reads one frame the way the read loops do: the marker, then
// the payload behind the bounded length.
func nextFrame(br *bufio.Reader) (marker byte, payload []byte, err error) {
	if marker, err = br.ReadByte(); err != nil {
		return 0, nil, err
	}
	var buf []byte
	payload, err = readFrame(br, &buf)
	return marker, payload, err
}

// rawPeer speaks the protocol by hand, the way a peer of another build —
// or a hostile one — would: frames built and read with the production
// codec, in whatever order the test sends them.
type rawPeer struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawPeer{conn: conn, br: bufio.NewReader(conn)}
}

// call sends one request and reads its response.
func (p *rawPeer) call(t *testing.T, req *Request) *Response {
	t.Helper()
	p.write(t, controlFrame(t, req))
	return p.readResponse(t)
}

func (p *rawPeer) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := p.conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// read reads the next frame, which must carry marker, and returns its
// payload.
func (p *rawPeer) read(t *testing.T, marker byte) []byte {
	t.Helper()
	_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, b, err := nextFrame(p.br)
	if err != nil || m != marker {
		t.Fatalf("reading a %q frame: marker %q, err %v", marker, m, err)
	}
	return b
}

func (p *rawPeer) readResponse(t *testing.T) *Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(p.read(t, frameControl), &resp); err != nil {
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
}

// sendFrame writes one binary frame.
func (p *rawPeer) sendFrame(t *testing.T, marker byte, payload []byte) {
	t.Helper()
	p.write(t, appendFrame(nil, marker, payload))
}

// readAck reads one 'A' frame.
func (p *rawPeer) readAck(t *testing.T) (applied uint64, refusal string) {
	t.Helper()
	applied, refusal, err := decodeAck(p.read(t, frameAck))
	if err != nil {
		t.Fatal(err)
	}
	return applied, refusal
}

// hungUp reports whether the server closed the connection.
func (p *rawPeer) hungUp() bool {
	_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := p.br.ReadByte()
	return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
}

// TestWireVersionOlderOfferRefused: a framed peer whose hello offers
// version 6 (the hello and control plane as gob), version 5 (every int,
// time and timestamp in 8 bytes), version 4 (results numbered per
// subscription), version 3 (results framed per subscription), version 2
// (gob publish requests), version 1 (gob result pushes) or none at all
// is refused with an error naming both versions; the connection stays
// usable for control traffic.
func TestWireVersionOlderOfferRefused(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	for _, offer := range []int{0, 1, 2, 3, 4, 5, 6} {
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

// gobHelloV6 is how a version-6 peer's hello begins: bare gob, the
// length of its first message (the Request type's definition), then
// the definition — no frame marker.
const gobHelloV6 = "\xff\xb8\xff\xb1\x03\x01\x01\aRequest\x01\xff\x80\x00"

// TestGobPeerRefusedAtFirstByte: a peer of version 6 or older opens with
// bare gob. Its first byte is no frame marker, so the server refuses it
// there — by the framing, not by a version number it never reads — and
// hangs up.
func TestGobPeerRefusedAtFirstByte(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	p := dialRaw(t, addr)
	p.write(t, []byte(gobHelloV6))
	applied, refusal := p.readAck(t)
	want := fmt.Sprintf("unknown frame marker 0xff: every message is a wire version %d frame", wireVersion)
	if applied != 0 || !strings.Contains(refusal, want) {
		t.Fatalf("gob hello answered (%d, %q), want a refusal containing %q", applied, refusal, want)
	}
	if !p.hungUp() {
		t.Fatal("the server kept the connection of a peer that does not frame")
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
// hello. A source cannot be opened, or registered open, without it, and
// a peer that sends a publish frame first is refused — the reason,
// naming the hello, in a refusal ack — and hung up on. None of it leaves
// anything behind, and the server goes on serving others.
func TestPublishFrameBeforeHelloRefused(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	p := dialRaw(t, addr)
	if resp := p.call(t, &Request{ID: 1, Kind: MsgRegister, Info: ToWireInfo(auctionInfo()), Node: 1}); resp.Kind != MsgOK {
		t.Fatalf("register without hello: %s", resp.Error)
	}
	for _, req := range []*Request{
		{ID: 2, Kind: MsgOpenSource, Stream: "OpenAuction", Source: 1},
		{ID: 3, Kind: MsgRegister, Info: ToWireInfo(&stream.Info{Schema: stream.MustSchema("Other", stream.Field{Name: "a", Kind: stream.KindInt})}), Node: 1, Source: 2},
	} {
		resp := p.call(t, req)
		if resp.Kind != MsgError || !strings.Contains(resp.Error, fmt.Sprintf("before hello: tuples travel as wire version %d frames", wireVersion)) {
			t.Fatalf("request kind %d without hello answered kind %d %q; want a refusal naming the hello", req.Kind, resp.Kind, resp.Error)
		}
	}

	frame := appendDataHeader(nil, 1, 1)
	frame = appendTuple(frame, true, 0, stream.MustTuple(auctionInfo().Schema, 1, stream.Int(1), stream.Float(1)))
	patchDataCount(frame, 1)
	p.sendFrame(t, frameData, frame)
	applied, refusal := p.readAck(t)
	if applied != 0 || !strings.Contains(refusal, fmt.Sprintf("publish frame before hello: binary frames need the wire version %d hello first", wireVersion)) {
		t.Fatalf("publish frame before hello answered (%d, %q); want a refusal naming the hello", applied, refusal)
	}
	if !p.hungUp() {
		t.Fatal("the server kept the connection open after a frame before the hello")
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

// TestOversizeControlFrameRefused: a control frame that declares more
// than maxFramePayload is refused from its header, before any body
// arrives — the test sends none. The session ends with the refusal and
// leaves no query behind.
func TestOversizeControlFrameRefused(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	p := dialRaw(t, addr)
	p.hello(t)
	if resp := p.call(t, &Request{ID: 2, Kind: MsgRegister, Info: ToWireInfo(auctionInfo()), Node: 1}); resp.Kind != MsgOK {
		t.Fatalf("register: %s", resp.Error)
	}
	if resp := p.call(t, &Request{ID: 3, Kind: MsgSubmit, CQL: "SELECT itemID FROM OpenAuction [Now]", UserNode: 5}); resp.Kind != MsgOK {
		t.Fatalf("submit: %s", resp.Error)
	}
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], frameControl, maxFramePayload+1)
	p.write(t, hdr[:])
	_, refusal := p.readAck(t)
	if !strings.Contains(refusal, "malformed control frame") || !strings.Contains(refusal, "frame length exceeds limit") {
		t.Fatalf("oversize control frame answered %q, want a refusal naming the limit", refusal)
	}
	if !p.hungUp() {
		t.Fatal("the server kept the session after an oversize control frame")
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, 5*time.Second, "the refused session's query cancelled", func() bool {
		st, err := c.Stats()
		return err == nil && st.Queries == 0
	})
}

// fakeServer accepts one connection and hands it to serve; the returned
// address is the listener's.
func fakeServer(t *testing.T, serve func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn, bufio.NewReader(conn))
	}()
	return ln.Addr().String()
}

// answerHello reads the client's hello and answers it with an OK at
// version.
func answerHello(t *testing.T, conn net.Conn, br *bufio.Reader, version int) bool {
	marker, b, err := nextFrame(br)
	var req Request
	if err != nil || marker != frameControl || json.Unmarshal(b, &req) != nil {
		return false
	}
	_, err = conn.Write(controlFrame(t, &Response{ID: req.ID, Kind: MsgOK, WireVersion: version}))
	return err == nil
}

// TestClientRefusesOlderServer: a framed server that answers the hello
// with a lower version fails the dial with a version message; a
// version-6 server, which answers in bare gob, fails it at the answer's
// first byte with a wire version mismatch. Neither hangs.
func TestClientRefusesOlderServer(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		if answerHello(t, conn, br, wireVersion-1) {
			_, _ = br.ReadByte() // hold the connection until the client gives up
		}
	})
	_, err := Dial(addr)
	want := fmt.Sprintf("server speaks wire version %d", wireVersion-1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("dial against a version-%d server: err %v, want a wire version mismatch (%q)", wireVersion-1, err, want)
	}

	addr = fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		if _, _, err := nextFrame(br); err == nil {
			// How a version-6 server's gob answer begins: the length of
			// its first message, the Response type's definition.
			_, _ = conn.Write([]byte("\xff\x8c\x7f\x03\x01\x01\bResponse\x01\xff\x80\x00"))
		}
		_, _ = br.ReadByte()
	})
	_, err = Dial(addr)
	if err == nil || !strings.Contains(err.Error(), "wire version mismatch") {
		t.Fatalf("dial against a gob server: err %v, want a wire version mismatch", err)
	}
}

// TestClientRefusesOversizeControlFrame: a control frame that declares
// more than maxFramePayload loses the client its connection from the
// header alone, without allocating anything of the declared size.
func TestClientRefusesOversizeControlFrame(t *testing.T) {
	sent := make(chan struct{})
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader) {
		if !answerHello(t, conn, br, wireVersion) {
			return
		}
		<-sent
		var hdr [frameHeaderSize]byte
		putFrameHeader(hdr[:], frameControl, maxFramePayload+1)
		_, _ = conn.Write(hdr[:])
		_, _ = br.ReadByte()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(sent)
	waitFor(t, 5*time.Second, "the connection lost", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.failErr != nil
	})
	runtime.ReadMemStats(&after)
	if _, err := c.Catalog(); err == nil || !strings.Contains(err.Error(), "frame length exceeds limit") {
		t.Fatalf("a call after the oversize frame: err %v, want the connection lost to the limit", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFramePayload/4 {
		t.Fatalf("reading the oversize header allocated %d bytes", grew)
	}
}

// TestServerRefusesNegativeRate: the catalog's rule holds for a peer
// that skips the client's own check — a negative rate, which JSON can
// carry, is refused by the server's registry, naming the stream.
func TestServerRefusesNegativeRate(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	p := dialRaw(t, addr)
	p.hello(t)
	info := auctionInfo()
	info.Rate = -1
	resp := p.call(t, &Request{ID: 2, Kind: MsgRegister, Info: ToWireInfo(info), Node: 1})
	if resp.Kind != MsgError || !strings.Contains(resp.Error, `stream "OpenAuction": rate -1`) {
		t.Fatalf("register of a negative rate answered kind %d %q, want a refusal naming the stream", resp.Kind, resp.Error)
	}
}
