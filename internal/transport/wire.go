package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"cosmos/internal/stream"
)

// The wire format: the data plane of the TCP protocol.
//
// The control plane (requests, OKs, errors, session management) stays
// gob — it is cold and self-describing. The data plane — the tuples
// sources publish and the results subscriptions receive, by far the
// hottest traffic in either direction — travels as length-prefixed
// binary frames using a codec compiled once per schema, the same
// compile-at-control-plane trick predicate.Compile plays: resolve the
// column layout when the subscription is announced or the source is
// opened, then encode/decode tuples with zero reflection and zero
// per-value allocation.
//
// The MsgHello that opens a connection and its OK are the only unframed
// messages. After them every message, in both directions, carries a
// one-byte frame marker:
//
//	'G' | gob-encoded Request or Response       (control; self-delimiting)
//	'D' | u32 len | id count firstSeq tuples    (a batch of tuples)
//	'S' | u32 len | subID tag schema            (server→client: a subscription's layout)
//	'A' | u32 len | appliedSeq [refusal]        (server→client: cumulative publish ack)
//
// 'D' payload layout (all integers little-endian):
//
//	u32  id         server→client: the pump-assigned subscription id its
//	                'S' frame announced; client→server: the source id the
//	                client chose when it opened (or registered) the source
//	u16  count      number of tuples in the batch
//	u64  firstSeq   sequence of the first tuple; tuple i has firstSeq+i.
//	                Results count per subscription; published tuples count
//	                per session, across its sources — one connection's
//	                publishes are totally ordered, and the server applies
//	                them in that order
//	tuple × count
//
// Each tuple is: i64 ts, then one value per schema column. Values
// carry a one-byte kind tag before their payload — the data model lets
// an int populate a float or time column (see stream.NewTuple's
// widening), so the schema alone does not pin the value kind and a
// faithful round trip must preserve it. Payloads are fixed-width
// 8-byte slots for int/float/time, one byte for bool, and
// uvarint-length-prefixed bytes for strings.
//
// 'S' payload layout:
//
//	u32 subID, str tag, str streamName, uvarint nfields,
//	then per field: str name, u8 kind, uvarint avgLen
//
// The pump emits an 'S' frame before a subscription's first 'D' frame
// and again whenever the result schema pointer changes; the client
// keeps a per-connection subID table, so reconnects (fresh connection,
// fresh pump) re-announce naturally. The publish direction needs no 'S'
// frame: opening a source is a control round trip (MsgOpenSource, or the
// MsgRegister that created the stream) that binds the id to the
// catalog's own schema, and the client checks each tuple's layout
// against that schema before encoding it.
//
// 'A' payload layout: u64 appliedSeq — every published tuple up to it has
// been handed to its source port — followed, when the server refused a
// frame, by the reason as raw bytes to the end of the payload. Acks are
// cumulative; the client retains what it sent until an ack covers it
// (publish.go).

// wireVersion is the one wire format version this build speaks: gob
// control, binary data frames both ways. Every MsgHello carries it; a
// peer offering less (version 1 pushed results as gob, version 2
// published tuples as gob requests), or one that submits or publishes
// without a hello, is refused by name — there is no second framing to
// fall back to.
const wireVersion = 3

// Frame markers (both directions, after the hello and its OK).
const (
	frameGob    byte = 'G'
	frameData   byte = 'D'
	frameSchema byte = 'S'
	frameAck    byte = 'A'
)

// frameHeaderSize is the marker plus the u32 payload length that open
// every binary frame.
const frameHeaderSize = 5

// putFrameHeader writes a binary frame's marker and payload length into
// hdr[:frameHeaderSize].
//
//cosmos:hotpath
func putFrameHeader(hdr []byte, marker byte, payloadLen int) {
	hdr[0] = marker
	binary.LittleEndian.PutUint32(hdr[1:frameHeaderSize], uint32(payloadLen))
}

// maxFramePayload bounds a declared frame length on the read side: a
// longer prefix means a corrupt stream (or an unframed gob peer), not a
// legitimate frame, and must error before allocating.
const maxFramePayload = 64 << 20

// batchSoftBytes flushes a growing batch frame before it exceeds this
// size; a single tuple larger than the cap still travels whole.
const batchSoftBytes = 56 << 10

// maxBatchTuples caps tuples per 'D' frame (count is a u16).
const maxBatchTuples = 4096

// framePool recycles frame buffers between the per-connection pumps and
// publish windows (encode side) and the frame readers (decode side).
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

// readFrame reads one binary frame's length prefix and payload (the
// marker is already consumed) into *bufp, growing it on demand. Untrusted
// input: a declared length beyond maxFramePayload errors before anything
// is allocated for it.
func readFrame(br *bufio.Reader, bufp *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: %d bytes declared (wire version mismatch?)", errFrameTooLong, n)
	}
	if cap(*bufp) < int(n) {
		*bufp = make([]byte, n)
	}
	b := (*bufp)[:n]
	*bufp = b
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ackHeaderSize is the fixed part of an 'A' payload: appliedSeq.
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

// tupleCodec is a schema's compiled encoder/decoder. Compiling is a
// control-plane act (once per 'S' frame or opened source); the encode/decode
// methods run per tuple on the data plane with zero reflection —
// encode allocates nothing, decode allocates only the value slice and
// string copies.
type tupleCodec struct {
	schema   *stream.Schema
	arity    int
	sizeHint int // estimated encoded bytes per tuple, for buffer growth
}

func newTupleCodec(s *stream.Schema) *tupleCodec {
	c := &tupleCodec{schema: s, arity: s.Arity(), sizeHint: 8}
	for _, f := range s.Fields {
		switch f.Kind {
		case stream.KindString:
			c.sizeHint += 1 + 2 + f.AvgLen
		case stream.KindBool:
			c.sizeHint += 2
		default:
			c.sizeHint += 9
		}
	}
	return c
}

// appendTuple encodes t onto buf. The caller guarantees t.Schema is
// the codec's schema (batches are grouped by schema pointer), which
// pins the arity; value kinds are self-tagged.
//
//cosmos:hotpath
func (c *tupleCodec) appendTuple(buf []byte, t stream.Tuple) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(t.Ts)))
	for _, v := range t.Values {
		switch v.Kind() {
		case stream.KindInt:
			buf = append(buf, byte(stream.KindInt))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.AsInt()))
		case stream.KindFloat:
			buf = append(buf, byte(stream.KindFloat))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
		case stream.KindString:
			s := v.AsString()
			buf = append(buf, byte(stream.KindString))
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case stream.KindBool:
			b := byte(0)
			if v.AsBool() {
				b = 1
			}
			buf = append(buf, byte(stream.KindBool), b)
		case stream.KindTime:
			buf = append(buf, byte(stream.KindTime))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v.AsTime())))
		default:
			// Invalid values cannot legally appear in a tuple
			// (stream.NewTuple rejects them); encode the tag so the
			// decoder errors instead of desynchronising.
			buf = append(buf, byte(v.Kind()))
		}
	}
	return buf
}

// decodeTuple decodes one tuple starting at b[pos], returning it and
// the position one past its end. Untrusted input: every read is
// bounds-checked and malformed bytes return an error, never panic.
func (c *tupleCodec) decodeTuple(b []byte, pos int) (stream.Tuple, int, error) {
	return c.decodeTupleInto(b, pos, nil)
}

// decodeTupleInto is decodeTuple with a caller-provided value slice
// (len >= arity), letting batch decoders amortise the per-tuple value
// allocation across a whole frame. The tuple keeps the slice.
func (c *tupleCodec) decodeTupleInto(b []byte, pos int, values []stream.Value) (stream.Tuple, int, error) {
	if pos+8 > len(b) {
		return stream.Tuple{}, 0, fmt.Errorf("transport: truncated tuple timestamp")
	}
	ts := stream.Timestamp(int64(binary.LittleEndian.Uint64(b[pos:])))
	pos += 8
	if len(values) < c.arity {
		values = make([]stream.Value, c.arity)
	} else {
		values = values[:c.arity]
	}
	for i := 0; i < c.arity; i++ {
		if pos >= len(b) {
			return stream.Tuple{}, 0, fmt.Errorf("transport: truncated tuple value %d", i)
		}
		kind := stream.Kind(b[pos])
		pos++
		switch kind {
		case stream.KindInt, stream.KindTime:
			if pos+8 > len(b) {
				return stream.Tuple{}, 0, fmt.Errorf("transport: truncated %v value", kind)
			}
			n := int64(binary.LittleEndian.Uint64(b[pos:]))
			pos += 8
			if kind == stream.KindInt {
				values[i] = stream.Int(n)
			} else {
				values[i] = stream.Time(stream.Timestamp(n))
			}
		case stream.KindFloat:
			if pos+8 > len(b) {
				return stream.Tuple{}, 0, fmt.Errorf("transport: truncated float value")
			}
			values[i] = stream.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[pos:])))
			pos += 8
		case stream.KindBool:
			if pos >= len(b) {
				return stream.Tuple{}, 0, fmt.Errorf("transport: truncated bool value")
			}
			values[i] = stream.Bool(b[pos] != 0)
			pos++
		case stream.KindString:
			n, w := binary.Uvarint(b[pos:])
			if w <= 0 || n > uint64(len(b)-pos-w) {
				return stream.Tuple{}, 0, fmt.Errorf("transport: truncated string value")
			}
			pos += w
			values[i] = stream.String_(string(b[pos : pos+int(n)]))
			pos += int(n)
		default:
			return stream.Tuple{}, 0, fmt.Errorf("transport: unknown value kind %d", kind)
		}
	}
	t, err := stream.NewTuple(c.schema, ts, values...)
	if err != nil {
		return stream.Tuple{}, 0, fmt.Errorf("transport: decoded tuple rejected: %v", err)
	}
	return t, pos, nil
}

// frameArena allocates the one value arena a 'D' frame's tuples share —
// each decoded tuple keeps its sub-slice, so the backing array lives as
// long as they do. The declared count is first checked against the bytes
// actually present (the smallest encoded tuple is a timestamp plus two
// bytes per value), so a lying count cannot size the allocation.
func (c *tupleCodec) frameArena(count, tupleBytes int) ([]stream.Value, error) {
	if count*(8+2*c.arity) > tupleBytes {
		return nil, fmt.Errorf("transport: data frame declares %d tuples in %d bytes", count, tupleBytes)
	}
	return make([]stream.Value, count*c.arity), nil
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

// appendSchemaFrame builds an 'S' payload announcing subID's layout.
func appendSchemaFrame(buf []byte, subID uint32, tag string, s *stream.Schema) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, subID)
	buf = appendString(buf, tag)
	buf = appendString(buf, s.Stream)
	buf = binary.AppendUvarint(buf, uint64(len(s.Fields)))
	for _, f := range s.Fields {
		buf = appendString(buf, f.Name)
		buf = append(buf, byte(f.Kind))
		buf = binary.AppendUvarint(buf, uint64(f.AvgLen))
	}
	return buf
}

// decodeSchemaFrame parses an 'S' payload. The schema is rebuilt
// through stream.NewSchema so a corrupt frame fails validation instead
// of producing a half-formed schema.
func decodeSchemaFrame(b []byte) (subID uint32, tag string, schema *stream.Schema, err error) {
	if len(b) < 4 {
		return 0, "", nil, fmt.Errorf("transport: truncated schema frame")
	}
	subID = binary.LittleEndian.Uint32(b)
	pos := 4
	if tag, pos, err = readString(b, pos); err != nil {
		return 0, "", nil, err
	}
	var name string
	if name, pos, err = readString(b, pos); err != nil {
		return 0, "", nil, err
	}
	nf, w := binary.Uvarint(b[pos:])
	if w <= 0 || nf > uint64(len(b)-pos) {
		return 0, "", nil, fmt.Errorf("transport: truncated schema field count")
	}
	pos += w
	fields := make([]stream.Field, nf)
	for i := range fields {
		var fname string
		if fname, pos, err = readString(b, pos); err != nil {
			return 0, "", nil, err
		}
		if pos >= len(b) {
			return 0, "", nil, fmt.Errorf("transport: truncated schema field kind")
		}
		kind := stream.Kind(b[pos])
		pos++
		avg, w := binary.Uvarint(b[pos:])
		if w <= 0 {
			return 0, "", nil, fmt.Errorf("transport: truncated schema field avglen")
		}
		pos += w
		fields[i] = stream.Field{Name: fname, Kind: kind, AvgLen: int(avg)}
	}
	if pos != len(b) {
		return 0, "", nil, fmt.Errorf("transport: %d trailing bytes in schema frame", len(b)-pos)
	}
	schema, err = stream.NewSchema(name, fields...)
	if err != nil {
		return 0, "", nil, fmt.Errorf("transport: decoded schema rejected: %v", err)
	}
	return subID, tag, schema, nil
}

// dataHeaderSize is the fixed prefix of a 'D' payload: subID + count +
// firstSeq.
const dataHeaderSize = 4 + 2 + 8

// appendDataHeader writes the batch header; count is patched in by
// patchDataCount once the batch is sealed.
//
//cosmos:hotpath
func appendDataHeader(buf []byte, subID uint32, firstSeq uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, subID)
	buf = append(buf, 0, 0) // count placeholder
	return binary.LittleEndian.AppendUint64(buf, firstSeq)
}

//cosmos:hotpath
func patchDataCount(buf []byte, count int) {
	binary.LittleEndian.PutUint16(buf[4:6], uint16(count))
}

// decodeDataHeader parses a 'D' payload prefix.
func decodeDataHeader(b []byte) (subID uint32, count int, firstSeq uint64, err error) {
	if len(b) < dataHeaderSize {
		return 0, 0, 0, fmt.Errorf("transport: truncated data frame header")
	}
	subID = binary.LittleEndian.Uint32(b)
	count = int(binary.LittleEndian.Uint16(b[4:6]))
	firstSeq = binary.LittleEndian.Uint64(b[6:14])
	return subID, count, firstSeq, nil
}
