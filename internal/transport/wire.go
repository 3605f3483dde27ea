package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"cosmos/internal/core"
	"cosmos/internal/stream"
)

// The wire format of the TCP protocol: one framing for every message.
//
// The control plane (requests, OKs, errors, session management) is cold
// and schema-rich: each message travels as the JSON encoding of one
// Request or Response (protocol.go), the codec cosmosd -metrics-addr
// serves the same SystemStats in. The data plane — the tuples sources
// publish and the results subscriptions receive, by far the hottest
// traffic in either direction — travels as binary frames whose column
// layout is fixed at a control-plane moment, the same trick
// predicate.Compile plays: the source's open, or the delivery's 'S'
// frame. Tuples then encode and decode with zero reflection and zero
// per-value allocation.
//
// From a connection's first byte, in both directions, every message is
// a marker, a u32 little-endian payload length and the payload — the
// MsgHello that opens the connection and its OK included:
//
//	'G' | u32 len | JSON Request or Response    (control)
//	'D' | u32 len | id count firstSeq tuples    (a batch of tuples)
//	'S' | u32 len | id arity members            (server→client: a delivery's layout)
//	'A' | u32 len | seq [refusal]               (a cumulative ack of the other direction)
//
// A reader checks the marker and the declared length (maxFramePayload)
// before it reads or allocates any of the payload, whichever the kind.
//
// Each direction is one stream, numbered by one sequence per session and
// held by its sender until the receiver's 'A' covers it (window.go):
// publishes client→server, results server→client. After a reconnect the
// hello carries how far each arrived and only the rest is sent again.
//
// Results travel per delivery: a session's subscriptions in one query
// group at one user node share a delivery proxy (core.SubmitTo), and a
// result crosses the wire once, as a body — the union of their output
// columns — behind a bitmap of the k members it is for (none when k = 1,
// where the body is exactly the subscription's row).
//
// 'D' payload layout (all integers little-endian):
//
//	u32  id         server→client: the delivery id an 'S' frame
//	                announced; client→server: the source id the client
//	                chose when it opened (or registered) the source
//	u16  count      number of tuples in the batch
//	u64  firstSeq   the session sequence of the batch's first tuple, the
//	                next ones following on: published tuples across the
//	                session's sources in the order the server applies
//	                them, results across its deliveries
//	tuple × count   each behind a ⌈k/8⌉-byte bitmap when k > 1: bit i (of
//	                byte i/8, LSB first) set if it is member i's result
//
// Each tuple is its timestamp, then one value per column (of the body,
// or of the source's schema). The frame's first tuple carries its ts as
// an i64; each later one the zigzag uvarint of its step from the tuple
// before it, so a frame is decoded front to back and a chunk (window.go)
// holds whole frames. A value is a one-byte tag — its kind in the low 3
// bits, a width or a bool's value in the high 5 — then its payload. The
// data model lets an int populate a float or time column (see
// stream.NewTuple's widening), so the schema alone does not pin the value
// kind and a faithful round trip must preserve it. Payloads take the
// bytes they need:
//
//	int, time  tag kind | w<<3, then the zigzag value's w low bytes (0–8,
//	           the top one non-zero; 0 is w = 0, no payload)
//	bool       tag KindBool | v<<3 (v 0 or 1), no payload
//	float      tag KindFloat, then the 8-byte IEEE bits
//	string     tag KindString, then a uvarint length and the bytes
//
// The decoder refuses every other tag, a width that is not minimal and a
// non-minimal uvarint, so every tuple it accepts re-encodes to its own
// bytes.
//
// 'S' payload layout:
//
//	u32 id, uvarint arity (body columns), uvarint k,
//	then per member: str tag, uvarint nfields,
//	then per field: str name, u8 kind, uvarint avgLen, uvarint bodyColumn
//
// A member's fields form its output schema, named by its tag. The server
// encodes an 'S' frame before a delivery's first 'D' frame and whenever
// its layout changes, in the same chunk of the session's result stream.
// Delivery ids are per session on both ends, so a resend that replays an
// 'S' frame rebinds the id to the layout it already had, and the 'D'
// frames behind it decode as they did the first time; a window that
// overflowed while detached announces every layout again. Publishing
// needs no 'S' frame: opening a source (a control round trip) binds the
// id to the catalog's own schema, and the client checks each tuple's
// layout against it before encoding.
//
// 'A' payload layout: u64 seq — every tuple of the acknowledged
// direction up to it arrived (server→client: was handed to its source
// port) — followed, only server→client and when the server refused a
// frame, by the reason as raw bytes to the end of the payload. A
// client→server 'A' is exactly its 8 bytes.

// wireVersion is the one wire format version this build speaks: the
// framing above, JSON control frames, values and timestamp steps in the
// bytes they need. Every MsgHello carries it; a framed peer offering
// less is refused by name, and a peer of version 6 or older, which opens
// with bare gob, at its first byte — there is no second framing to fall
// back to. ARCHITECTURE.md, "Wire format and the two pumps", lists what
// each older version sent.
const wireVersion = 7

// Frame markers (both directions, from the first byte).
const (
	frameControl byte = 'G'
	frameData    byte = 'D'
	frameSchema  byte = 'S'
	frameAck     byte = 'A'
)

// frameHeaderSize is the marker plus the u32 payload length that open
// every frame.
const frameHeaderSize = 5

// putFrameHeader writes a frame's marker and payload length into
// hdr[:frameHeaderSize].
//
//cosmos:hotpath
func putFrameHeader(hdr []byte, marker byte, payloadLen int) {
	hdr[0] = marker
	binary.LittleEndian.PutUint32(hdr[1:frameHeaderSize], uint32(payloadLen))
}

// maxFramePayload bounds a declared frame length on the read side: a
// longer prefix means a corrupt stream, not a legitimate frame, and must
// error before allocating.
const maxFramePayload = 64 << 20

// batchSoftBytes flushes a growing batch frame before it exceeds this
// size; a single tuple larger than the cap still travels whole.
const batchSoftBytes = 56 << 10

// maxBatchTuples caps tuples per 'D' frame (count is a u16).
const maxBatchTuples = 4096

// framePool recycles frame buffers between the windows (encode side) and
// the frame readers (decode side).
var framePool = sync.Pool{
	New: func() interface{} { b := make([]byte, 0, 4096); return &b },
}

// maxPooledFrame keeps pathological frames (one giant string tuple)
// from pinning memory in the pool forever.
const maxPooledFrame = 1 << 20

//cosmos:hotpath-ok — a pool hit; a miss allocates once and is amortised over the buffer's reuse
func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) <= maxPooledFrame {
		*b = (*b)[:0]
		framePool.Put(b)
	}
}

var errFrameTooLong = errors.New("transport: frame length exceeds limit")

// readFrame reads one frame's length prefix and payload (the
// marker is already consumed) into *bufp. Untrusted input: a declared
// length beyond maxFramePayload errors before anything is allocated for
// it, and below it the buffer grows with the bytes that actually arrive.
// The prefix is read in place from br's buffer (an array handed to
// io.ReadFull would escape, one allocation per frame): io.EOF when the
// stream ends cleanly before it, io.ErrUnexpectedEOF within it.
func readFrame(br *bufio.Reader, bufp *[]byte) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if _, err := br.Discard(4); err != nil {
		return nil, err
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: %d bytes declared (wire version mismatch?)", errFrameTooLong, n)
	}
	b := (*bufp)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), 4096)))
		}
		m, err := io.ReadFull(br, b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		if err != nil {
			*bufp = b
			return nil, err
		}
	}
	*bufp = b
	return b, nil
}

// ackHeaderSize is the fixed part of an 'A' payload: its sequence.
const ackHeaderSize = 8

// appendAck builds an 'A' payload.
func appendAck(buf []byte, applied uint64, refusal string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, applied)
	return append(buf, refusal...)
}

// decodeAck parses an 'A' payload.
func decodeAck(b []byte) (applied uint64, refusal string, err error) {
	if len(b) < ackHeaderSize {
		return 0, "", fmt.Errorf("transport: truncated ack frame")
	}
	return binary.LittleEndian.Uint64(b), string(b[ackHeaderSize:]), nil
}

// appendTuple encodes t onto buf: its timestamp — whole when it opens a
// 'D' frame (first), else as its step from prev, the timestamp of the
// frame's tuple before it — then every value.
//
//cosmos:hotpath
func appendTuple(buf []byte, first bool, prev stream.Timestamp, t stream.Tuple) []byte {
	buf = appendTs(buf, first, prev, t.Ts)
	for i := range t.Values {
		buf = appendValue(buf, &t.Values[i])
	}
	return buf
}

// appendBody encodes a result body onto buf: t's timestamp, as
// appendTuple does, and the values of the columns cols lists, straight
// from the delivered tuple.
//
//cosmos:hotpath
func appendBody(buf []byte, first bool, prev stream.Timestamp, t stream.Tuple, cols []int) []byte {
	buf = appendTs(buf, first, prev, t.Ts)
	for _, j := range cols {
		buf = appendValue(buf, &t.Values[j])
	}
	return buf
}

// appendTs encodes a tuple's timestamp: an i64 for a frame's first tuple,
// else the zigzag uvarint of its step from prev. The step wraps like the
// i64 arithmetic that undoes it, so any two timestamps follow each other.
//
//cosmos:hotpath
func appendTs(buf []byte, first bool, prev, ts stream.Timestamp) []byte {
	if first {
		return binary.LittleEndian.AppendUint64(buf, uint64(int64(ts)))
	}
	return binary.AppendUvarint(buf, zigzag(int64(ts)-int64(prev)))
}

// Value tags: a value's kind in the low bits, and above them its
// payload's width (int, time) or its value (bool).
const (
	tagKindBits = 3
	tagKindMask = 1<<tagKindBits - 1
)

// appendValue encodes one value: its tag, then its payload — an int's or
// a time's zigzag value in the fewest little-endian bytes that hold it
// (none for zero), a float's 8 bytes, a string's uvarint length and
// bytes, and for a bool nothing, its value riding in the tag.
//
//cosmos:hotpath
func appendValue(buf []byte, v *stream.Value) []byte {
	switch v.Kind() {
	case stream.KindInt:
		return appendWidth(buf, stream.KindInt, zigzag(v.AsInt()))
	case stream.KindTime:
		return appendWidth(buf, stream.KindTime, zigzag(int64(v.AsTime())))
	case stream.KindFloat:
		buf = append(buf, byte(stream.KindFloat))
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
	case stream.KindString:
		s := v.AsString()
		buf = append(buf, byte(stream.KindString))
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	case stream.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return append(buf, byte(stream.KindBool)|b<<tagKindBits)
	default:
		// Invalid values cannot legally appear in a tuple
		// (stream.NewTuple rejects them); encode the tag so the
		// decoder errors instead of desynchronising.
		return append(buf, byte(v.Kind()))
	}
}

// appendWidth encodes an int or time tag and u in the bytes it needs.
//
//cosmos:hotpath
func appendWidth(buf []byte, kind stream.Kind, u uint64) []byte {
	w := (bits.Len64(u) + 7) / 8
	end := len(buf) + 1 + w
	buf = append(buf, byte(kind)|byte(w)<<tagKindBits)
	return binary.LittleEndian.AppendUint64(buf, u)[:end]
}

//cosmos:hotpath
func zigzag(n int64) uint64 { return uint64(n<<1) ^ uint64(n>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// readUvarint reads the uvarint at b[pos], refusing a truncated, an
// overlong or a non-minimal one: what decodes re-encodes to its bytes.
func readUvarint(b []byte, pos int) (uint64, int, bool) {
	n, w := binary.Uvarint(b[pos:])
	if w <= 0 || (w > 1 && b[pos+w-1] == 0) {
		return 0, 0, false
	}
	return n, pos + w, true
}

// decodeValues decodes one encoded tuple at b[pos] — its timestamp
// (first and prev as appendTuple took them) and len(values) values, into
// values — and returns the timestamp and the position one past its end;
// checking the kinds against a schema is the caller's. Untrusted input:
// every read is bounds-checked, malformed bytes return an error, and only
// the encoder's own bytes for a tuple are accepted.
func decodeValues(b []byte, pos int, first bool, prev stream.Timestamp, values []stream.Value) (stream.Timestamp, int, error) {
	var ts stream.Timestamp
	if first {
		if pos+8 > len(b) {
			return 0, 0, fmt.Errorf("transport: truncated tuple timestamp")
		}
		ts = stream.Timestamp(int64(binary.LittleEndian.Uint64(b[pos:])))
		pos += 8
	} else {
		step, next, ok := readUvarint(b, pos)
		if !ok {
			return 0, 0, fmt.Errorf("transport: malformed tuple timestamp step")
		}
		ts = stream.Timestamp(int64(prev) + unzigzag(step))
		pos = next
	}
	for i := range values {
		if pos >= len(b) {
			return 0, 0, fmt.Errorf("transport: truncated tuple value %d", i)
		}
		tag := b[pos]
		kind, w := stream.Kind(tag&tagKindMask), int(tag>>tagKindBits)
		pos++
		switch {
		case (kind == stream.KindInt || kind == stream.KindTime) && w <= 8:
			if w > len(b)-pos || (w > 0 && b[pos+w-1] == 0) {
				return 0, 0, fmt.Errorf("transport: truncated or overlong %v value", kind)
			}
			var u uint64
			if len(b)-pos >= 8 {
				u = binary.LittleEndian.Uint64(b[pos:]) & (math.MaxUint64 >> (64 - 8*w))
			} else {
				for j := w - 1; j >= 0; j-- {
					u = u<<8 | uint64(b[pos+j])
				}
			}
			pos += w
			if kind == stream.KindInt {
				values[i] = stream.Int(unzigzag(u))
			} else {
				values[i] = stream.Time(stream.Timestamp(unzigzag(u)))
			}
		case kind == stream.KindFloat && w == 0:
			if pos+8 > len(b) {
				return 0, 0, fmt.Errorf("transport: truncated float value")
			}
			values[i] = stream.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[pos:])))
			pos += 8
		case kind == stream.KindBool && w <= 1:
			values[i] = stream.Bool(w == 1)
		case kind == stream.KindString && w == 0:
			n, next, ok := readUvarint(b, pos)
			if !ok || n > uint64(len(b)-next) {
				return 0, 0, fmt.Errorf("transport: truncated string value")
			}
			values[i] = stream.String_(string(b[next : next+int(n)]))
			pos = next + int(n)
		default:
			return 0, 0, fmt.Errorf("transport: unknown value tag %#x", tag)
		}
	}
	return ts, pos, nil
}

// frameArena cuts from slab the value arena a 'D' frame's tuples of
// arity values share (each keeps its sub-slice); a frame of many tuples
// is wider than a slab cuts and gets an arena of its own. The declared
// count is first checked against the tupleBytes present — the smallest
// encoded tuple is its prefix, a one-byte timestamp step and a one-byte
// tag per value, and the first one's timestamp takes 8 bytes, not 1 — so
// a lying count cannot size the allocation.
func frameArena(slab *stream.Slab, count, arity, prefix, tupleBytes int) ([]stream.Value, error) {
	if count*(prefix+1+arity)+7 > tupleBytes {
		return nil, fmt.Errorf("transport: data frame declares %d tuples in %d bytes", count, tupleBytes)
	}
	return slab.Take(count * arity), nil
}

// appendString encodes a uvarint-length-prefixed string.
//
//cosmos:hotpath
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString decodes a uvarint-length-prefixed string at b[pos].
func readString(b []byte, pos int) (string, int, error) {
	n, w := binary.Uvarint(b[pos:])
	if w <= 0 || n > uint64(len(b)-pos-w) {
		return "", 0, fmt.Errorf("transport: truncated string")
	}
	pos += w
	return string(b[pos : pos+int(n)]), pos + int(n), nil
}

// appendSchemaFrame builds an 'S' payload announcing delivery id's layout.
func appendSchemaFrame(buf []byte, id uint32, lay *core.Layout) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(lay.Cols)))
	buf = binary.AppendUvarint(buf, uint64(len(lay.Members)))
	for _, m := range lay.Members {
		buf = appendString(buf, m.Out.Stream)
		buf = binary.AppendUvarint(buf, uint64(len(m.Out.Fields)))
		for i, f := range m.Out.Fields {
			buf = appendString(buf, f.Name)
			buf = append(buf, byte(f.Kind))
			buf = binary.AppendUvarint(buf, uint64(f.AvgLen))
			buf = binary.AppendUvarint(buf, uint64(m.Idx[i]))
		}
	}
	return buf
}

// wireMember is one member of a delivery as its 'S' frame announced it:
// the subscription's tag, its output schema, and per output column the
// body column carrying it.
type wireMember struct {
	tag    string
	schema *stream.Schema
	idx    []int
	lo     int        // where idx runs contiguously through the body, or -1
	cs     *clientSub // resolved by tag on first use
}

// decodeSchemaFrame parses an 'S' payload. Untrusted input: counts are
// checked against the bytes present before they size anything, members
// name at most the body's arity of its columns, and output schemas are
// rebuilt through stream.NewSchema.
func decodeSchemaFrame(b []byte) (id uint32, arity int, members []wireMember, err error) {
	bad := fmt.Errorf("transport: malformed schema frame")
	if len(b) < 4 {
		return 0, 0, nil, bad
	}
	id, pos := binary.LittleEndian.Uint32(b), 4
	// uvarint reads the next uvarint, which must not exceed limit.
	uvarint := func(limit int) (int, bool) {
		n, w := binary.Uvarint(b[pos:])
		if w <= 0 || n > uint64(limit) {
			return 0, false
		}
		pos += w
		return int(n), true
	}
	arity, ok := uvarint(maxFramePayload / 2) // a body value takes two bytes at least
	k, ok2 := uvarint(len(b) - pos)           // a member takes two bytes at least
	if !ok || !ok2 || k == 0 {
		return 0, 0, nil, bad
	}
	members = make([]wireMember, k)
	for i := range members {
		m := &members[i]
		if m.tag, pos, err = readString(b, pos); err != nil {
			return 0, 0, nil, err
		}
		nf, ok := uvarint(min(arity, len(b)-pos))
		if !ok {
			return 0, 0, nil, bad
		}
		fields, avgOK, colOK := make([]stream.Field, nf), true, true
		m.idx = make([]int, nf)
		for j := range fields {
			if fields[j].Name, pos, err = readString(b, pos); err != nil {
				return 0, 0, nil, err
			}
			if pos >= len(b) {
				return 0, 0, nil, bad
			}
			fields[j].Kind, pos = stream.Kind(b[pos]), pos+1
			fields[j].AvgLen, avgOK = uvarint(math.MaxInt32)
			m.idx[j], colOK = uvarint(arity - 1)
			if !avgOK || !colOK {
				return 0, 0, nil, bad
			}
			if j == 0 {
				m.lo = m.idx[0]
			} else if m.lo >= 0 && m.idx[j] != m.lo+j {
				m.lo = -1
			}
		}
		if m.schema, err = stream.NewSchema(m.tag, fields...); err != nil {
			return 0, 0, nil, fmt.Errorf("transport: decoded schema rejected: %v", err)
		}
	}
	if pos != len(b) {
		return 0, 0, nil, fmt.Errorf("transport: %d trailing bytes in schema frame", len(b)-pos)
	}
	return id, arity, members, nil
}

// dataHeaderSize is the prefix of a 'D' payload: id, count, firstSeq.
const dataHeaderSize = 4 + 2 + 8

// appendDataHeader writes the batch header; count is patched in by
// patchDataCount once the batch is sealed.
//
//cosmos:hotpath
func appendDataHeader(buf []byte, id uint32, firstSeq uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = append(buf, 0, 0) // count placeholder
	return binary.LittleEndian.AppendUint64(buf, firstSeq)
}

//cosmos:hotpath
func patchDataCount(buf []byte, count int) {
	binary.LittleEndian.PutUint16(buf[4:6], uint16(count))
}

// bitmapBytes is the size of a k-member delivery's match bitmap.
//
//cosmos:hotpath
func bitmapBytes(k int) int { return (k + 7) / 8 * min(k-1, 1) }

// decodeDataHeader parses a 'D' payload's header.
func decodeDataHeader(b []byte) (id uint32, count int, firstSeq uint64, err error) {
	if len(b) < dataHeaderSize {
		return 0, 0, 0, fmt.Errorf("transport: truncated data frame header")
	}
	id = binary.LittleEndian.Uint32(b)
	count = int(binary.LittleEndian.Uint16(b[4:6]))
	firstSeq = binary.LittleEndian.Uint64(b[6:dataHeaderSize])
	return id, count, firstSeq, nil
}
