package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
)

// fuzzSchema is the stream the untrusted-input targets publish into: one
// column of every width class.
func fuzzSchema(t testing.TB) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("Fuzz",
		stream.Field{Name: "i", Kind: stream.KindInt},
		stream.Field{Name: "s", Kind: stream.KindString},
		stream.Field{Name: "f", Kind: stream.KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fuzzServer is a server over a synchronous system with Fuzz registered,
// never listening: the targets hand its sessions bytes directly. Linger
// is off so no session leaves a timer behind.
func fuzzServer(t testing.TB) (*Server, *core.SourcePort) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	port, err := sys.RegisterStream(&stream.Info{Schema: fuzzSchema(t), Rate: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(sys, WithSessionLinger(0)), port
}

// scriptConn is a connection whose peer already said everything it will:
// reads replay the script and then report EOF, writes vanish.
type scriptConn struct{ r *bytes.Reader }

func (c scriptConn) Read(b []byte) (int, error)       { return c.r.Read(b) }
func (c scriptConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c scriptConn) Close() error                     { return nil }
func (c scriptConn) LocalAddr() net.Addr              { return scriptAddr{} }
func (c scriptConn) RemoteAddr() net.Addr             { return scriptAddr{} }
func (c scriptConn) SetDeadline(time.Time) error      { return nil }
func (c scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c scriptConn) SetWriteDeadline(time.Time) error { return nil }

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

func newScriptSession(srv *Server, script []byte) *session {
	return srv.newSession(scriptConn{r: bytes.NewReader(script)})
}

// silenceLog discards what the server logs about bad input for the
// length of a fuzz target.
func silenceLog(f testing.TB) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(prev) })
}

// publishFrame builds a publish 'D' payload.
func publishFrame(srcID uint32, firstSeq uint64, tuples ...stream.Tuple) []byte {
	run, _ := encodeFrame(tuples)
	b := append(appendDataHeader(nil, srcID, firstSeq), run...)
	patchDataCount(b, len(tuples))
	return b
}

// publishFrameSeeds are the malformations the server's 'D' decode must
// refuse, next to frames it must accept, for a session whose source 1 is
// Fuzz and whose applied sequence is 10, by name.
func publishFrameSeeds(t testing.TB) map[string][]byte {
	schema := fuzzSchema(t)
	tp := func(i int64, s string) stream.Tuple {
		return stream.MustTuple(schema, stream.Timestamp(i), stream.Int(i), stream.String_(s), stream.Float(float64(i)/2))
	}
	valid := publishFrame(1, 11, tp(1, "one"), tp(2, ""), tp(3, strings.Repeat("three", 40)))
	narrow := stream.MustSchema("Fuzz", stream.Field{Name: "i", Kind: stream.KindInt})
	wrongArity := publishFrame(1, 11, stream.MustTuple(narrow, 1, stream.Int(1)))
	unknownKind := publishFrame(1, 11, tp(1, "kind"))
	unknownKind[dataHeaderSize+8] = 0xEE // the first value's tag
	truncatedString := publishFrame(1, 11, tp(1, "a string the frame ends inside of"))
	truncatedString = truncatedString[:len(truncatedString)-20]
	countLie := publishFrame(1, 11, tp(1, "lie"))
	binary.LittleEndian.PutUint16(countLie[4:6], math.MaxUint16)
	lengthLie := publishFrame(1, 11, tp(1, "lie"))
	lengthLie[dataHeaderSize+8+2+1] = 0xFF // past ts, int 1's tag and byte, and the string's tag: its uvarint length
	return map[string][]byte{
		"valid":            valid,
		"resent-overlap":   publishFrame(1, 5, tp(1, "resent"), tp(2, "overlap")), // at or below applied: skipped, not refused
		"wrong-arity":      wrongArity,
		"unknown-kind":     unknownKind,
		"truncated-string": truncatedString,
		"unopened-source":  publishFrame(7, 11, tp(1, "unopened source")),
		"count-lie":        countLie,
		"length-lie":       lengthLie,
		"sequence-gap":     publishFrame(1, 13, tp(1, "skips 11 and 12")),
		"sequence-zero":    publishFrame(1, 0, tp(1, "sequence zero")),
		"empty-batch":      publishFrame(1, 11),
		"trailing-byte":    append(slices.Clone(valid), 0),
		"short-header":     valid[:dataHeaderSize-1],
		"empty":            {},
	}
}

// TestPublishFrameSeeds pins what the server's decode makes of each seed
// of FuzzPublishFrame: the applied sequence it leaves, or the reason it
// refuses the frame.
func TestPublishFrameSeeds(t *testing.T) {
	srv, port := fuzzServer(t)
	silenceLog(t)
	seeds := publishFrameSeeds(t)
	for name, want := range map[string]string{
		"valid":            "applied 13",
		"resent-overlap":   "applied 10",
		"wrong-arity":      "declares 1 tuples",
		"unknown-kind":     "unknown value tag 0xee",
		"truncated-string": "truncated string value",
		"unopened-source":  "unopened source 7",
		"count-lie":        "declares 65535 tuples",
		"length-lie":       "truncated string value",
		"sequence-gap":     "from sequence 13 does not continue",
		"sequence-zero":    "from sequence 0 does not continue",
		"empty-batch":      "frame of 0 tuples",
		"trailing-byte":    "1 trailing bytes",
		"short-header":     "truncated data frame header",
		"empty":            "truncated data frame header",
	} {
		sess := newScriptSession(srv, nil)
		if err := sess.openSource(1, port); err != nil {
			t.Fatal(err)
		}
		sess.applied, sess.received = 10, 10
		var got string
		if err := sess.applyPublishFrame(seeds[name]); err != nil {
			got = err.Error()
		} else {
			got = fmt.Sprintf("applied %d", sess.applied)
		}
		if !strings.Contains(got, want) {
			t.Errorf("%s: %s, want %q", name, got, want)
		}
		sess.close(false)
	}
}

// FuzzPublishFrame: whatever bytes arrive as a publish 'D' payload, the
// server's decode errors or applies — it never panics, never sizes an
// allocation from a count the bytes do not back, and never moves the
// applied sequence by more than the frame declared. Each tuple it
// encounters obeys FuzzTupleDecode's round-trip property.
func FuzzPublishFrame(f *testing.F) {
	seeds := publishFrameSeeds(f)
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		f.Add(seeds[name])
	}
	srv, port := fuzzServer(f)
	schema := port.Schema()
	silenceLog(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		sess := newScriptSession(srv, nil)
		defer sess.close(false)
		if err := sess.openSource(1, port); err != nil {
			t.Fatal(err)
		}
		const applied = 10
		sess.applied, sess.received = applied, applied
		err := sess.applyPublishFrame(b)
		_, count, firstSeq, hdrErr := decodeDataHeader(b)
		if err == nil {
			if hdrErr != nil {
				t.Fatal("a frame without a whole header was accepted")
			}
			if sess.applied < applied || sess.applied > max(applied, firstSeq+uint64(count)-1) {
				t.Fatalf("applied moved from %d to %d on a frame of %d tuples from sequence %d", applied, sess.applied, count, firstSeq)
			}
		} else if sess.applied != applied && hdrErr != nil {
			t.Fatalf("applied moved to %d on a frame with no header", sess.applied)
		}
		if hdrErr != nil {
			return
		}
		pos, prev := dataHeaderSize, stream.Timestamp(0)
		for i := 0; i < count; i++ {
			got, next, ok := checkTupleRoundTrip(t, schema, b, pos, i == 0, prev)
			if !ok {
				break
			}
			pos, prev = next, got.Ts
		}
	})
}

// requestScript gob-encodes a client's side of a connection: the hello
// bare, everything after it marker-framed, frames verbatim.
type requestScript struct {
	buf    bytes.Buffer
	enc    *gob.Encoder
	framed bool
}

func newRequestScript() *requestScript {
	s := &requestScript{}
	s.enc = gob.NewEncoder(&s.buf)
	return s
}

func (s *requestScript) request(t testing.TB, req Request) *requestScript {
	t.Helper()
	if s.framed {
		s.buf.WriteByte(frameGob)
	}
	if err := s.enc.Encode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Kind == MsgHello && req.WireVersion >= wireVersion {
		s.framed = true
	}
	return s
}

func (s *requestScript) frame(marker byte, payload []byte) *requestScript {
	s.buf.Write(appendFrame(nil, marker, payload))
	return s
}

func (s *requestScript) bytes() []byte { return s.buf.Bytes() }

// requestScriptSeeds are whole client→server byte streams: well-formed
// sessions of every request kind, version refusals, and streams that go
// wrong part-way.
func requestScriptSeeds(t testing.TB) [][]byte {
	schema := fuzzSchema(t)
	tp := stream.MustTuple(schema, 1, stream.Int(1), stream.String_("x"), stream.Float(1))
	hello := Request{ID: 1, Kind: MsgHello, WireVersion: wireVersion}
	other := &stream.Info{Schema: stream.MustSchema("Other", stream.Field{Name: "a", Kind: stream.KindInt}), Rate: 1}
	publisher := newRequestScript().
		request(t, hello).
		request(t, Request{ID: 2, Kind: MsgOpenSource, Stream: "Fuzz", Source: 1}).
		frame(frameData, publishFrame(1, 1, tp, tp)).
		request(t, Request{ID: 3, Kind: MsgQuiesce}).
		frame(frameData, publishFrame(1, 3, tp)).
		request(t, Request{ID: 4, Kind: MsgPing})
	subscriber := newRequestScript().
		request(t, Request{ID: 1, Kind: MsgHello, SessionID: "abc", WireVersion: wireVersion}).
		request(t, Request{ID: 2, Kind: MsgRegister, Info: ToWireInfo(other), Node: 2, Source: 2}).
		request(t, Request{ID: 3, Kind: MsgSubmit, CQL: "SELECT i FROM Fuzz [Now] WHERE i > 3", UserNode: 4}).
		frame(frameAck, binary.LittleEndian.AppendUint64(nil, 0)).
		request(t, Request{ID: 4, Kind: MsgCancel, QueryTag: "q00000"}).
		request(t, Request{ID: 5, Kind: MsgStats}).
		request(t, Request{ID: 6, Kind: MsgCatalog})
	// Client→server result acks that do not parse: each ends its session.
	ack := func(payload []byte) []byte {
		return newRequestScript().request(t, hello).frame(frameAck, payload).
			request(t, Request{ID: 2, Kind: MsgCatalog}).bytes()
	}
	ackShort := ack([]byte{1, 0, 0})
	ackTrailing := ack(append(binary.LittleEndian.AppendUint64(nil, 0), 0))
	ackBeyond := ack(binary.LittleEndian.AppendUint64(nil, 5)) // nothing was sent
	noHello := newRequestScript().
		request(t, Request{ID: 1, Kind: MsgCatalog}).
		request(t, Request{ID: 2, Kind: MsgSubmit, CQL: "SELECT i FROM Fuzz [Now]", UserNode: 4}).
		request(t, Request{ID: 3, Kind: MsgOpenSource, Stream: "Fuzz", Source: 1})
	oldPeer := newRequestScript().
		request(t, Request{ID: 1, Kind: MsgHello, WireVersion: 2}).
		request(t, Request{ID: 2, Kind: MsgKind(1)}) // version 2's gob publish
	badMarker := newRequestScript().request(t, hello).frame('Z', []byte("what"))
	badFrame := newRequestScript().request(t, hello).
		request(t, Request{ID: 2, Kind: MsgOpenSource, Stream: "Fuzz", Source: 1}).
		frame(frameData, publishFrame(9, 1, tp))
	hugeFrame := newRequestScript().request(t, hello)
	hugeFrame.buf.Write([]byte{frameData, 0xFF, 0xFF, 0xFF, 0xFF})
	frameFirst := newRequestScript().frame(frameData, publishFrame(1, 1, tp))
	return [][]byte{
		publisher.bytes(),
		subscriber.bytes(),
		noHello.bytes(),
		oldPeer.bytes(),
		badMarker.bytes(),
		badFrame.bytes(),
		hugeFrame.bytes(),
		frameFirst.bytes(),
		publisher.bytes()[:len(publisher.bytes())/2],
		ackShort,
		ackTrailing,
		ackBeyond,
		{},
	}
}

// FuzzRequestDecode hands a session's read loop an arbitrary byte stream
// as everything its client ever sends — gob control requests, markers,
// frames — and requires it to end: by an error or at EOF, never by a
// panic, and with every query the stream submitted cancelled again.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range requestScriptSeeds(f) {
		f.Add(seed)
	}
	srv, _ := fuzzServer(f)
	silenceLog(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		sess := newScriptSession(srv, script)
		// readLoop, not serve: serve would contain the very panic this
		// target is looking for.
		sess.readLoop()
		sess.close(false)
		srv.retire(sess)
		if n := srv.sys.Queries(); n != 0 {
			t.Fatalf("%d queries left behind by a session that ended", n)
		}
	})
}

// Result-direction layouts over a source row (itemID, price): a pair of
// subscriptions sharing a delivery, and one alone.
var (
	fuzzSource = stream.MustSchema("Src",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "price", Kind: stream.KindFloat})
	fuzzWide   = stream.MustSchema("q1", fuzzSource.Fields...)
	fuzzNarrow = stream.MustSchema("q2", fuzzSource.Fields[0])
	fuzzPair   = &core.Layout{Cols: []int{0, 1}, Members: []core.Member{
		{Out: fuzzWide, Idx: []int{0, 1}},
		{Out: fuzzNarrow, Idx: []int{0}},
	}}
	fuzzSolo = &core.Layout{Cols: []int{1, 0}, Members: []core.Member{
		{Out: stream.MustSchema("q3", fuzzSource.Fields[1], fuzzSource.Fields[0]), Idx: []int{0, 1}},
	}}
)

// resultFrame builds a result 'D' payload of delivery id under lay from
// session sequence first: row i is a result of the members hits[i] sets.
func resultFrame(id uint32, lay *core.Layout, first uint64, hits [][]bool) []byte {
	b, k := appendDataHeader(nil, id, first), len(lay.Members)
	for i, h := range hits {
		at := len(b)
		b = append(b, make([]byte, bitmapBytes(k))...)
		for j, hit := range h {
			if hit && k > 1 {
				b[at+j/8] |= 1 << (j % 8)
			}
		}
		row := stream.MustTuple(fuzzSource, stream.Timestamp(i+1), stream.Int(int64(i+1)), stream.Float(float64(i)/2))
		b = appendBody(b, i == 0, stream.Timestamp(i), row, lay.Cols)
	}
	patchDataCount(b, len(hits))
	return b
}

// resultStreamSeeds are whole server→client byte streams past the hello:
// a well-formed exchange, and each way its 'S' and 'D' frames can lie.
func resultStreamSeeds() map[string][]byte {
	frames := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	schema := func(id uint32, lay *core.Layout) []byte {
		return appendFrame(nil, frameSchema, appendSchemaFrame(nil, id, lay))
	}
	data := func(payload []byte) []byte { return appendFrame(nil, frameData, payload) }
	pairRows := resultFrame(1, fuzzPair, 1, [][]bool{{true, true}, {true, false}, {true, true}})
	soloRows := resultFrame(2, fuzzSolo, 4, [][]bool{{true}, {true}})

	beyondBody := appendSchemaFrame(nil, 1, &core.Layout{Cols: []int{0}, Members: []core.Member{
		{Out: fuzzNarrow, Idx: []int{1}}, // the body has one column
	}})
	memberLie := binary.LittleEndian.AppendUint32(nil, 1)
	memberLie = binary.AppendUvarint(memberLie, 2)
	memberLie = binary.AppendUvarint(memberLie, 1<<40)
	noMembers := binary.AppendUvarint(binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, 1), 2), 0)
	bitsBeyond := slices.Clone(pairRows)
	bitsBeyond[dataHeaderSize] |= 1 << 2 // the first row's bitmap names a third member
	countLie := slices.Clone(pairRows)
	binary.LittleEndian.PutUint16(countLie[4:], math.MaxUint16)
	kindLie := appendSchemaFrame(nil, 1, &core.Layout{Cols: []int{0, 1}, Members: []core.Member{
		{Out: stream.MustSchema("q1", stream.Field{Name: "itemID", Kind: stream.KindString}), Idx: []int{0}},
		{Out: fuzzNarrow, Idx: []int{0}},
	}})
	return map[string][]byte{
		"valid": frames(schema(1, fuzzPair), data(pairRows), schema(2, fuzzSolo), data(soloRows),
			appendFrame(nil, frameAck, appendAck(nil, 4, ""))),
		"layout-change": frames(schema(1, fuzzPair), data(pairRows), schema(1, fuzzSolo),
			data(resultFrame(1, fuzzSolo, 4, [][]bool{{true}}))),
		// A resend replays what arrived: skipped whole, 'S' frames rebound.
		"resent": frames(schema(1, fuzzPair), data(pairRows), schema(1, fuzzPair), data(pairRows),
			schema(2, fuzzSolo), data(soloRows)),
		"sequence-hole":        frames(schema(1, fuzzPair), data(pairRows), schema(2, fuzzSolo), data(resultFrame(2, fuzzSolo, 6, [][]bool{{true}}))),
		"sequence-backwards":   frames(schema(1, fuzzPair), data(pairRows), data(resultFrame(1, fuzzPair, 2, [][]bool{{true, false}, {true, false}, {true, false}}))),
		"column-beyond-body":   appendFrame(nil, frameSchema, beyondBody),
		"member-count-lie":     appendFrame(nil, frameSchema, memberLie),
		"no-members":           appendFrame(nil, frameSchema, noMembers),
		"bitmap-beyond-k":      frames(schema(1, fuzzPair), data(bitsBeyond)),
		"count-lie":            frames(schema(1, fuzzPair), data(countLie)),
		"kind-lie":             frames(appendFrame(nil, frameSchema, kindLie), data(pairRows)),
		"short-header":         frames(schema(1, fuzzPair), data(pairRows[:dataHeaderSize])),
		"trailing-byte":        frames(schema(1, fuzzPair), data(append(slices.Clone(pairRows), 0))),
		"unannounced-delivery": data(pairRows),
		"length-lie":           {frameData, 0xFF, 0xFF, 0xFF, 0x03},
		"empty":                {},
	}
}

// resultClient is a client that never dialled, holding subscriptions
// q1, q2 and q3 whose results land in recs.
func resultClient(recs map[string]*subRecorder) *Client {
	c := &Client{subs: map[string]*clientSub{}, byServer: map[string]*clientSub{}, wireSubs: map[uint32]*wireSub{}}
	c.cond = sync.NewCond(&c.mu)
	c.pub.cond = sync.NewCond(&c.pub.mu)
	for tag, rec := range recs {
		cs := &clientSub{onResult: rec.onResult, logical: tag, server: tag}
		c.subs[tag], c.byServer[tag] = cs, cs
	}
	return c
}

// FuzzResultFrames feeds a client's read loop an arbitrary byte stream as
// everything its server sends after the hello — 'S', 'D' and 'A' frames
// — through Client.readBinaryFrame. A malformed frame must end the stream
// with an error, never a panic and never an allocation its bytes do not
// back (frameArena, decodeSchemaFrame and readFrame check counts and
// lengths against the bytes present first). The session's result
// sequence only moves forward, and whatever is delivered is a result of a
// known subscription that obeys FuzzTupleDecode's round-trip property
// under its own schema.
func FuzzResultFrames(f *testing.F) {
	for _, seed := range resultStreamSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		recs := map[string]*subRecorder{"q1": {}, "q2": {}, "q3": {}}
		c := resultClient(recs)
		br := bufio.NewReader(bytes.NewReader(script))
		for {
			marker, err := br.ReadByte()
			if err != nil || (marker != frameData && marker != frameSchema && marker != frameAck) {
				break
			}
			last := c.lastResult
			err = c.readBinaryFrame(br, marker)
			if c.lastResult < last {
				t.Fatalf("result sequence went back from %d to %d", last, c.lastResult)
			}
			if err != nil {
				break
			}
		}
		for tag, rec := range recs {
			for _, row := range rec.rows {
				if row.Schema.Stream != tag {
					t.Fatalf("%s received a row of %s", tag, row.Schema.Stream)
				}
				enc := appendTuple(nil, true, 0, row)
				if _, next, ok := checkTupleRoundTrip(t, row.Schema, enc, 0, true, 0); !ok || next != len(enc) {
					t.Fatalf("%s: delivered %v does not decode under its own schema", tag, row)
				}
			}
		}
	})
}

// TestResultStreamSeeds pins what the seeds of FuzzResultFrames deliver.
func TestResultStreamSeeds(t *testing.T) {
	seeds := resultStreamSeeds()
	for name, want := range map[string]map[string]int{
		"valid":              {"q1": 3, "q2": 2, "q3": 2},
		"layout-change":      {"q1": 3, "q2": 2, "q3": 1},
		"resent":             {"q1": 3, "q2": 2, "q3": 2},
		"sequence-hole":      {"q1": 3, "q2": 2},
		"sequence-backwards": {"q1": 3, "q2": 2},
		"kind-lie":           {}, // the first row's q1 result is rejected
	} {
		recs := map[string]*subRecorder{"q1": {}, "q2": {}, "q3": {}}
		c := resultClient(recs)
		br := bufio.NewReader(bytes.NewReader(seeds[name]))
		var err error
		for err == nil {
			var marker byte
			if marker, err = br.ReadByte(); err == nil {
				err = c.readBinaryFrame(br, marker)
			}
		}
		for tag, rec := range recs {
			if got := rec.count(); got != want[tag] {
				t.Errorf("%s: %s got %d results, want %d (stream ended: %v)", name, tag, got, want[tag], err)
			}
		}
	}
	for _, name := range []string{"column-beyond-body", "member-count-lie", "no-members", "bitmap-beyond-k",
		"count-lie", "short-header", "trailing-byte", "unannounced-delivery", "length-lie",
		"sequence-hole", "sequence-backwards"} {
		c := resultClient(map[string]*subRecorder{})
		br := bufio.NewReader(bytes.NewReader(seeds[name]))
		var frameErr error
		for frameErr == nil {
			marker, err := br.ReadByte()
			if err != nil {
				break
			}
			frameErr = c.readBinaryFrame(br, marker)
		}
		if frameErr == nil {
			t.Errorf("%s: every frame was accepted", name)
		}
	}
}

// TestMalformedPublishFrameEndsOnlyThatSession: a session that sends a
// publish frame the server cannot accept as a frame — here for a source
// it never opened — is told why in a refusal ack and dropped, with the
// reason logged; a session publishing beside it never notices.
func TestMalformedPublishFrameEndsOnlyThatSession(t *testing.T) {
	var logged syncBuffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	addr, shutdown := startServer(t)
	defer shutdown()

	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	info := auctionInfo()
	if err := good.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []int64
	if _, err := good.Submit("SELECT itemID FROM OpenAuction [Now]", 5, func(tp stream.Tuple) {
		mu.Lock()
		got = append(got, tp.Values[0].AsInt())
		mu.Unlock()
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	publish := func(item int64) {
		t.Helper()
		if err := good.Publish(stream.MustTuple(info.Schema, stream.Timestamp(item), stream.Int(item), stream.Float(1))); err != nil {
			t.Fatal(err)
		}
		if err := good.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	publish(1)

	bad := dialRaw(t, addr)
	bad.hello(t)
	if resp := bad.call(t, &Request{ID: 2, Kind: MsgOpenSource, Stream: "OpenAuction", Source: 1}); resp.Kind != MsgOK {
		t.Fatalf("open source: %s", resp.Error)
	}
	tp := stream.MustTuple(info.Schema, 99, stream.Int(99), stream.Float(1))
	bad.sendFrame(t, frameData, publishFrame(1, 1, tp))
	if applied, refusal := bad.readAck(t); applied != 1 || refusal != "" {
		t.Fatalf("a well-formed frame was answered (%d, %q)", applied, refusal)
	}
	bad.sendFrame(t, frameData, publishFrame(2, 2, tp)) // source 2 was never opened
	applied, refusal := bad.readAck(t)
	if applied != 1 || !strings.Contains(refusal, "malformed publish frame") || !strings.Contains(refusal, "unopened source 2") {
		t.Fatalf("the malformed frame was answered (%d, %q), want applied 1 and the reason", applied, refusal)
	}
	if _, err := bad.br.ReadByte(); err == nil {
		t.Fatal("the server kept the session after a malformed publish frame")
	}
	if !strings.Contains(logged.String(), "malformed publish frame") {
		t.Errorf("the server logged no reason: %q", logged.String())
	}

	publish(2)
	waitFor(t, 5*time.Second, "the surviving session's results", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 1 || got[1] != 99 || got[2] != 2 {
		t.Errorf("results %v, want [1 99 2]: the accepted frame's tuple between the survivor's two", got)
	}
}

// syncBuffer is a log sink safe to read while the server still logs.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
