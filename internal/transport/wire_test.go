package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cosmos/internal/core"
	"cosmos/internal/stream"
)

// wireTestSchema covers every kind, strings included.
func wireTestSchema(t testing.TB) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("Mixed",
		stream.Field{Name: "i", Kind: stream.KindInt},
		stream.Field{Name: "f", Kind: stream.KindFloat},
		stream.Field{Name: "s", Kind: stream.KindString, AvgLen: 12},
		stream.Field{Name: "b", Kind: stream.KindBool},
		stream.Field{Name: "t", Kind: stream.KindTime},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fixedWireSchema has no strings: its tuples encode to a fixed width.
func fixedWireSchema(t testing.TB) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("Fixed",
		stream.Field{Name: "a", Kind: stream.KindInt},
		stream.Field{Name: "b", Kind: stream.KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTupleCodecRoundTripEdgeCases: encode→decode is the identity for
// every kind, including the floats gob historically mangles elsewhere
// (NaN, ±Inf, integers past 2^53) and empty/huge strings.
func TestTupleCodecRoundTripEdgeCases(t *testing.T) {
	schema := wireTestSchema(t)
	cases := []struct {
		name string
		ts   stream.Timestamp
		vals []stream.Value
	}{
		{"zeroes", 0, []stream.Value{stream.Int(0), stream.Float(0), stream.String_(""), stream.Bool(false), stream.Time(0)}},
		{"negatives", 1, []stream.Value{stream.Int(-1), stream.Float(-0.5), stream.String_("x"), stream.Bool(true), stream.Time(1)}},
		{"extremes", 1 << 40, []stream.Value{
			stream.Int(math.MaxInt64), stream.Float(math.MaxFloat64),
			stream.String_(strings.Repeat("π≠", 4096)), stream.Bool(true),
			stream.Time(stream.Timestamp(math.MinInt64)),
		}},
		{"nan", 2, []stream.Value{stream.Int(math.MinInt64), stream.Float(math.NaN()), stream.String_("\x00\xff"), stream.Bool(false), stream.Time(7)}},
		{"inf", 3, []stream.Value{stream.Int(1 << 53), stream.Float(math.Inf(1)), stream.String_("inf"), stream.Bool(true), stream.Time(3)}},
		{"neginf", 4, []stream.Value{stream.Int((1 << 53) + 1), stream.Float(math.Inf(-1)), stream.String_(""), stream.Bool(false), stream.Time(4)}},
		{"widened", 5, []stream.Value{stream.Int(9), stream.Int(42), stream.String_("int-in-float"), stream.Bool(true), stream.Int(99)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := stream.NewTuple(schema, tc.ts, tc.vals...)
			if err != nil {
				t.Fatal(err)
			}
			buf := appendTuple(nil, true, 0, orig)
			got, pos, err := decodeOne(schema, buf, 0)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if pos != len(buf) {
				t.Fatalf("decode consumed %d of %d bytes", pos, len(buf))
			}
			if got.Ts != orig.Ts {
				t.Fatalf("ts %d != %d", got.Ts, orig.Ts)
			}
			for i, v := range got.Values {
				ov := orig.Values[i]
				if v.Kind() != ov.Kind() {
					t.Fatalf("value %d kind %v != %v (kind must round-trip exactly)", i, v.Kind(), ov.Kind())
				}
				// NaN != NaN: compare bit patterns for floats.
				if v.Kind() == stream.KindFloat {
					if math.Float64bits(v.AsFloat()) != math.Float64bits(ov.AsFloat()) {
						t.Fatalf("value %d float bits differ", i)
					}
				} else if !v.Equal(ov) {
					t.Fatalf("value %d: %v != %v", i, v, ov)
				}
			}
		})
	}
}

// randomTuple draws a schema-conforming tuple of timestamp ts from rng:
// ints and times of every encoded width, the int-widens-to-float/time
// corner on occasion, and strings from empty to longer than a one-byte
// length prefix.
func randomTuple(t testing.TB, rng *rand.Rand, schema *stream.Schema, ts stream.Timestamp) stream.Tuple {
	vals := make([]stream.Value, len(schema.Fields))
	for j, f := range schema.Fields {
		switch f.Kind {
		case stream.KindInt:
			vals[j] = stream.Int(randomWidthInt(rng))
		case stream.KindFloat:
			if rng.Intn(4) == 0 {
				vals[j] = stream.Int(rng.Int63n(1000)) // widened int
			} else {
				vals[j] = stream.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40))))
			}
		case stream.KindString:
			n := rng.Intn(64)
			if rng.Intn(4) == 0 {
				n = []int{0, 127, 128, 300}[rng.Intn(4)] // around the length's second byte
			}
			b := make([]byte, n)
			rng.Read(b)
			vals[j] = stream.String_(string(b))
		case stream.KindBool:
			vals[j] = stream.Bool(rng.Intn(2) == 0)
		case stream.KindTime:
			if rng.Intn(4) == 0 {
				vals[j] = stream.Int(randomWidthInt(rng)) // widened int
			} else {
				vals[j] = stream.Time(stream.Timestamp(randomWidthInt(rng)))
			}
		}
	}
	tp, err := stream.NewTuple(schema, ts, vals...)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// randomWidthInt draws an int whose zigzag form takes a uniformly drawn
// 0 to 8 bytes, the extremes among them.
func randomWidthInt(rng *rand.Rand) int64 {
	switch w := rng.Intn(11); w {
	case 9:
		return math.MinInt64
	case 10:
		return math.MaxInt64
	case 0:
		return 0
	default:
		u := rng.Uint64()>>(64-8*w) | 1<<(8*w-1) // the top byte non-zero
		return unzigzag(u)
	}
}

// randomStep draws a timestamp step: zero, small either way, large, or —
// rarely — beyond ±2^55, where a step outgrows an i64.
func randomStep(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -rng.Int63n(1000)
	case 3:
		return rng.Int63n(1 << 40)
	case 4:
		return rng.Int63n(1<<55) - 1<<54
	default:
		return rng.Int63() - rng.Int63()
	}
}

// encodeFrame encodes tuples as the run of one 'D' frame's tuples, each
// stepping from the one before; ends[i] is where tuple i's bytes end.
func encodeFrame(tuples []stream.Tuple) (buf []byte, ends []int) {
	for i, tp := range tuples {
		prev := stream.Timestamp(0)
		if i > 0 {
			prev = tuples[i-1].Ts
		}
		buf = appendTuple(buf, i == 0, prev, tp)
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// TestTupleCodecRandomRoundTrip: seeded property test over many random
// tuples, decoded from one frame's run of them like a real batch, their
// timestamps stepping by every size either way.
func TestTupleCodecRandomRoundTrip(t *testing.T) {
	schema := wireTestSchema(t)
	rng := rand.New(rand.NewSource(42))
	tuples := make([]stream.Tuple, 500)
	ts := stream.Timestamp(rng.Int63() - rng.Int63())
	for i := range tuples {
		tuples[i] = randomTuple(t, rng, schema, ts)
		ts += stream.Timestamp(randomStep(rng))
	}
	buf, _ := encodeFrame(tuples)
	pos, prev := 0, stream.Timestamp(0)
	for i, want := range tuples {
		got, next, err := decodeNext(schema, buf, pos, i == 0, prev)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		pos, prev = next, got.Ts
		if !tuplesBitEqual(got, want) {
			t.Fatalf("tuple %d: %v != %v", i, got, want)
		}
	}
	if pos != len(buf) {
		t.Fatalf("consumed %d of %d bytes", pos, len(buf))
	}
}

// TestWireNeverWider: a tuple's version-6 bytes never exceed what
// version 5 spent on it — an 8-byte timestamp, 9 bytes per int, float and
// time, 2 per bool, and a tag, uvarint length and bytes per string —
// over random tuples of every kind, strings empty and long. The one
// exception is a timestamp that steps by 2^55 or more from the frame's
// tuple before it: its zigzag uvarint outgrows 8 bytes.
func TestWireNeverWider(t *testing.T) {
	schema := wireTestSchema(t)
	v5 := func(tp stream.Tuple) int {
		n := 8
		for _, v := range tp.Values {
			switch v.Kind() {
			case stream.KindInt, stream.KindFloat, stream.KindTime:
				n += 9
			case stream.KindBool:
				n += 2
			case stream.KindString:
				n += 1 + len(binary.AppendUvarint(nil, uint64(len(v.AsString())))) + len(v.AsString())
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(6))
	exceptions := 0
	for frame := 0; frame < 200; frame++ {
		tuples := make([]stream.Tuple, 1+rng.Intn(20))
		ts := stream.Timestamp(rng.Int63() - rng.Int63())
		for i := range tuples {
			if i > 0 {
				ts += stream.Timestamp(randomStep(rng))
			}
			tuples[i] = randomTuple(t, rng, schema, ts)
		}
		_, ends := encodeFrame(tuples)
		for i, tp := range tuples {
			size := ends[i]
			if i > 0 {
				size -= ends[i-1]
			}
			if size <= v5(tp) {
				continue
			}
			step := int64(tp.Ts) - int64(tuples[i-1].Ts)
			if i == 0 || (step > -1<<55 && step < 1<<55) {
				t.Fatalf("frame %d tuple %d (%v): %d bytes, version 5 took %d", frame, i, tp, size, v5(tp))
			}
			exceptions++
		}
	}
	if exceptions == 0 {
		t.Fatal("no timestamp step of 2^55 or more was drawn: the exception went unexercised")
	}
}

// TestTupleCodecTruncationNeverPanics: every proper prefix of a valid
// encoding must decode to an error, never a panic or a phantom tuple.
func TestTupleCodecTruncationNeverPanics(t *testing.T) {
	schema := wireTestSchema(t)
	tp, err := stream.NewTuple(schema, 77,
		stream.Int(123), stream.Float(4.5), stream.String_("truncate me"), stream.Bool(true), stream.Time(9))
	if err != nil {
		t.Fatal(err)
	}
	buf := appendTuple(nil, true, 0, tp)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeOne(schema, buf[:cut], 0); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(buf))
		}
	}
	// A later tuple of a frame, its timestamp a one-byte step.
	buf = appendTuple(nil, false, 70, tp)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeNext(schema, buf[:cut], 0, false, 70); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix of a stepped tuple succeeded", cut, len(buf))
		}
	}
}

// TestTupleCodecCorruptKind: of the 256 tag bytes the decoder accepts
// only those the encoder writes — int and time of width 0 to 8, bool of
// value 0 or 1, float and string with no width — and refuses the rest
// cleanly: kinds 0, 6 and 7, a width on a float or a string, a bool above
// 1, a width above 8, and a width whose top byte is zero. An accepted tag
// re-encodes to its own bytes.
func TestTupleCodecCorruptKind(t *testing.T) {
	accepted := 0
	for tag := 0; tag < 256; tag++ {
		kind, w := stream.Kind(tag&tagKindMask), tag>>tagKindBits
		want := ((kind == stream.KindInt || kind == stream.KindTime) && w <= 8) ||
			(kind == stream.KindBool && w <= 1) ||
			((kind == stream.KindFloat || kind == stream.KindString) && w == 0)
		// A timestamp, the tag, and payload bytes enough for any width;
		// 0x01 is a non-zero top byte, and a one-byte string's length and
		// byte.
		buf := binary.LittleEndian.AppendUint64(nil, 9)
		buf = append(buf, byte(tag))
		buf = append(buf, bytes.Repeat([]byte{1}, 8)...)
		values := make([]stream.Value, 1)
		ts, next, err := decodeValues(buf, 0, true, 0, values)
		if (err == nil) != want {
			t.Fatalf("tag %#02x (kind %d, width %d): decode error %v, want accepted %v", tag, kind, w, err, want)
		}
		if err != nil {
			continue
		}
		accepted++
		if again := appendTuple(nil, true, 0, stream.Tuple{Ts: ts, Values: values}); !bytes.Equal(again, buf[:next]) {
			t.Fatalf("tag %#02x: decoded %v re-encodes to % x, not its own % x", tag, values[0], again, buf[:next])
		}
		if (kind == stream.KindInt || kind == stream.KindTime) && w > 0 {
			buf[8+w] = 0 // the top payload byte
			if _, _, err := decodeValues(buf, 0, true, 0, values); err == nil {
				t.Fatalf("tag %#02x: a width whose top byte is zero was accepted", tag)
			}
		}
	}
	if accepted != 2*9+2+2 {
		t.Fatalf("%d tags accepted, want 22", accepted)
	}
	// A timestamp step or a string length in more bytes than it needs.
	for _, tc := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}} {
		if _, _, err := decodeValues(tc, 0, false, 0, nil); err == nil {
			t.Fatalf("non-minimal step % x accepted", tc)
		}
		b := append(binary.LittleEndian.AppendUint64(nil, 0), byte(stream.KindString))
		b = append(append(b, tc...), make([]byte, 2)...)
		if _, _, err := decodeValues(b, 0, true, 0, make([]stream.Value, 1)); err == nil {
			t.Fatalf("non-minimal string length % x accepted", tc)
		}
	}
}

// TestSchemaFrameRoundTripAndCorruption: 'S' payloads round-trip, and
// every truncation of one errors instead of panicking.
func TestSchemaFrameRoundTripAndCorruption(t *testing.T) {
	q3 := wireTestSchema(t).Rename("Q3")
	q4 := stream.MustSchema("Q4", q3.Fields[2], q3.Fields[0])
	lay := &core.Layout{Cols: []int{4, 0, 1, 2, 3, 9}, Members: []core.Member{
		{Out: q3, Idx: []int{0, 1, 2, 3, 4}},
		{Out: q4, Idx: []int{3, 0}},
	}}
	buf := appendSchemaFrame(nil, 7, lay)
	id, arity, got, err := decodeSchemaFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || arity != 6 || len(got) != 2 {
		t.Fatalf("round trip mismatch: id %d, arity %d, %d members", id, arity, len(got))
	}
	for i, m := range lay.Members {
		if got[i].tag != m.Out.Stream || !got[i].schema.Equal(m.Out) || !reflect.DeepEqual(got[i].idx, m.Idx) {
			t.Fatalf("member %d: got %q %v %v, want %q %v %v", i, got[i].tag, got[i].schema, got[i].idx, m.Out.Stream, m.Out, m.Idx)
		}
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, _, err := decodeSchemaFrame(buf[:cut]); err == nil {
			t.Fatalf("schema frame prefix %d/%d decoded successfully", cut, len(buf))
		}
	}
}

// FuzzTupleDecode: arbitrary bytes, read as the run of tuples of one 'D'
// frame, must never panic the decoder, and every tuple that decodes
// re-encodes to its own bytes. The seeds cover every int width from 0 to
// 8, negative ints, MinInt64 and MaxInt64, NaN and ±Inf, and timestamp
// steps of zero, negative and large size.
func FuzzTupleDecode(f *testing.F) {
	schema, err := stream.NewSchema("Fuzz",
		stream.Field{Name: "i", Kind: stream.KindInt},
		stream.Field{Name: "s", Kind: stream.KindString},
		stream.Field{Name: "f", Kind: stream.KindFloat},
	)
	if err != nil {
		f.Fatal(err)
	}
	tp := func(ts stream.Timestamp, i int64, s string, x float64) stream.Tuple {
		return stream.MustTuple(schema, ts, stream.Int(i), stream.String_(s), stream.Float(x))
	}
	seed := func(tuples ...stream.Tuple) {
		b, _ := encodeFrame(tuples)
		f.Add(b)
	}
	seed(tp(5, -9, "seed", math.Pi))
	var widths []stream.Tuple
	for w := 0; w <= 8; w++ {
		var narrowest uint64
		if w > 0 {
			narrowest = 1 << (8*w - 8)
		}
		widths = append(widths, tp(5, unzigzag(math.MaxUint64>>(64-8*w)), "", 0),
			tp(5, unzigzag(narrowest), "w", math.Copysign(0, -1)))
	}
	seed(widths...)
	seed(tp(1<<40, math.MinInt64, "min", math.NaN()), tp(1<<40, math.MaxInt64, "max", math.Inf(1)),
		tp(1<<40-3, -1, strings.Repeat("x", 200), math.Inf(-1)))
	seed(tp(-7, 0, "", 0), tp(-7, 1, "", 1), tp(1<<50, 2, "", 2), tp(math.MinInt64, 3, "", 3), tp(math.MaxInt64, 4, "", 4))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		pos, prev := 0, stream.Timestamp(0)
		for i := 0; pos < len(b); i++ {
			got, next, ok := checkTupleRoundTrip(t, schema, b, pos, i == 0, prev)
			if !ok {
				return
			}
			pos, prev = next, got.Ts
		}
	})
}

// checkTupleRoundTrip is the tuple codec's property on untrusted bytes,
// in either direction of the wire: the tuple at b[pos] — a frame's first
// or, stepping from prev, a later one — decodes to an error (ok is false)
// or to a tuple that ends inside b and re-encodes to exactly its bytes.
func checkTupleRoundTrip(t *testing.T, schema *stream.Schema, b []byte, pos int, first bool, prev stream.Timestamp) (got stream.Tuple, next int, ok bool) {
	t.Helper()
	got, next, err := decodeNext(schema, b, pos, first, prev)
	if err != nil {
		return stream.Tuple{}, 0, false
	}
	if next <= pos || next > len(b) {
		t.Fatalf("decode from %d reported position %d for %d input bytes", pos, next, len(b))
	}
	if again := appendTuple(nil, first, prev, got); !bytes.Equal(again, b[pos:next]) {
		t.Fatalf("%v decoded from % x re-encodes to % x", got, b[pos:next], again)
	}
	return got, next, true
}

// decodeOne decodes the tuple of s that opens a frame at b[pos] into a
// value slice of its own.
func decodeOne(s *stream.Schema, b []byte, pos int) (stream.Tuple, int, error) {
	return decodeNext(s, b, pos, true, 0)
}

// decodeNext decodes a tuple of s at b[pos], the frame's first or one
// stepping from prev, into a value slice of its own.
func decodeNext(s *stream.Schema, b []byte, pos int, first bool, prev stream.Timestamp) (stream.Tuple, int, error) {
	values := make([]stream.Value, s.Arity())
	ts, next, err := decodeValues(b, pos, first, prev, values)
	if err != nil {
		return stream.Tuple{}, 0, err
	}
	t, err := stream.NewTuple(s, ts, values...)
	return t, next, err
}

// tuplesBitEqual is Tuple.Equal with bit-exact float comparison, so NaN
// payloads (which fuzzing will find) compare equal to themselves.
func tuplesBitEqual(a, b stream.Tuple) bool {
	if a.Ts != b.Ts || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		w := b.Values[i]
		if v.Kind() != w.Kind() {
			return false
		}
		if v.Kind() == stream.KindFloat {
			if math.Float64bits(v.AsFloat()) != math.Float64bits(w.AsFloat()) {
				return false
			}
		} else if !v.Equal(w) {
			return false
		}
	}
	return true
}

// TestEncodeFastPathAllocs asserts the steady-state encode path —
// appendTuple into a pre-grown buffer — allocates nothing per tuple.
func TestEncodeFastPathAllocs(t *testing.T) {
	schema := wireTestSchema(t)
	tp, err := stream.NewTuple(schema, 3,
		stream.Int(7), stream.Float(2.5), stream.String_("steady"), stream.Bool(true), stream.Time(11))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendTuple(buf[:0], false, 2, tp)
	})
	if allocs != 0 {
		t.Fatalf("encode allocates %.1f/tuple, want 0", allocs)
	}
}

// TestDecodeFastPathAllocs bounds the decode path: for a string-free
// schema, only the value slice itself (1 alloc) per tuple.
func TestDecodeFastPathAllocs(t *testing.T) {
	schema := fixedWireSchema(t)
	tp, err := stream.NewTuple(schema, 3, stream.Int(7), stream.Float(2.5))
	if err != nil {
		t.Fatal(err)
	}
	buf := appendTuple(nil, true, 0, tp)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := decodeOne(schema, buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("decode allocates %.1f/tuple, want <= 1 (the value slice)", allocs)
	}
}

// repeatReader yields b over and over.
type repeatReader struct {
	b   []byte
	pos int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m := copy(p[n:], r.b[r.pos:])
		n += m
		r.pos = (r.pos + m) % len(r.b)
	}
	return n, nil
}

// TestReadFrameAllocs pins readFrame's steady state: with a warm buffer
// a frame costs no allocation, its length prefix included. A stream
// that ends before a prefix reads io.EOF, one that ends within the
// prefix or the payload io.ErrUnexpectedEOF.
func TestReadFrameAllocs(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, 100)
	frame = append(frame, bytes.Repeat([]byte{7}, 100)...)
	br := bufio.NewReaderSize(&repeatReader{b: frame}, 4096)
	var buf []byte
	read := func() {
		if b, err := readFrame(br, &buf); err != nil || len(b) != 100 {
			t.Fatalf("readFrame = %d bytes, %v; want 100", len(b), err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Errorf("readFrame allocates %.1f/frame on a warm buffer, want 0", allocs)
	}
	for _, tc := range []struct {
		in   []byte
		want error
	}{
		{nil, io.EOF},
		{frame[:2], io.ErrUnexpectedEOF},
		{frame[:50], io.ErrUnexpectedEOF},
	} {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(tc.in)), &buf); !errors.Is(err, tc.want) {
			t.Errorf("readFrame of %d bytes: %v, want %v", len(tc.in), err, tc.want)
		}
	}
}

// TestFrameArenaRefusesCountBeyondBytes: a 'D' frame of tuples in the
// fewest bytes the format allows — zero ints and times, bools, one-byte
// timestamp steps — holds exactly the count it declares, so frameArena
// cuts its arena, and a count one higher is refused before the cut, by
// the server's publish decode and the client's result decode alike.
func TestFrameArenaRefusesCountBeyondBytes(t *testing.T) {
	minimal := stream.MustSchema("Min",
		stream.Field{Name: "i", Kind: stream.KindInt},
		stream.Field{Name: "b", Kind: stream.KindBool},
		stream.Field{Name: "t", Kind: stream.KindTime})
	const n = 5
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.MustTuple(minimal, 9, stream.Int(0), stream.Bool(i%2 == 0), stream.Time(0))
	}
	run, _ := encodeFrame(tuples)
	if want := 8 + n*(1+minimal.Arity()) - 1; len(run) != want {
		t.Fatalf("%d minimal tuples encode to %d bytes, want %d", n, len(run), want)
	}
	var slab stream.Slab
	for _, prefix := range []int{0, 1} {
		bytes := len(run) + n*prefix
		if arena, err := frameArena(&slab, n, minimal.Arity(), prefix, bytes); err != nil || len(arena) != n*minimal.Arity() {
			t.Fatalf("prefix %d: %d tuples in their %d bytes: arena of %d, %v", prefix, n, bytes, len(arena), err)
		}
		if arena, err := frameArena(&slab, n+1, minimal.Arity(), prefix, bytes); err == nil || arena != nil {
			t.Fatalf("prefix %d: %d tuples declared in the %d bytes of %d were accepted", prefix, n+1, bytes, n)
		}
	}

	// The server's publish decode.
	srv, _ := fuzzServer(t)
	port, err := srv.sys.RegisterStream(&stream.Info{Schema: minimal, Rate: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := newScriptSession(srv, nil)
	defer sess.close(false)
	if err := sess.openSource(1, port); err != nil {
		t.Fatal(err)
	}
	frame := publishFrame(1, 1, tuples...)
	lie := slices.Clone(frame)
	patchDataCount(lie, n+1)
	if err := sess.applyPublishFrame(lie); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("publish frame declaring %d of %d tuples: %v, want the count refused", n+1, n, err)
	}
	if err := sess.applyPublishFrame(frame); err != nil || sess.applied != n {
		t.Fatalf("the truthful frame: %v, applied %d, want %d", err, sess.applied, n)
	}

	// The client's result decode, for a pair of members: a bitmap byte
	// before each body.
	lay := &core.Layout{Cols: []int{0, 1, 2}, Members: []core.Member{
		{Out: minimal.Rename("q1"), Idx: []int{0, 1, 2}},
		{Out: stream.MustSchema("q2", minimal.Fields[0]), Idx: []int{0}},
	}}
	results := appendDataHeader(nil, 1, 1)
	for i, tp := range tuples {
		results = appendBody(append(results, 3), i == 0, tp.Ts, tp, lay.Cols)
	}
	lie = slices.Clone(results)
	patchDataCount(lie, n+1)
	patchDataCount(results, n)
	recs := map[string]*subRecorder{"q1": {}, "q2": {}}
	c := resultClient(recs)
	if _, _, members, err := decodeSchemaFrame(appendSchemaFrame(nil, 1, lay)); err != nil {
		t.Fatal(err)
	} else {
		c.wireSubs[1] = &wireSub{arity: 3, members: members}
	}
	if err := c.readResults(lie); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("result frame declaring %d of %d bodies: %v, want the count refused", n+1, n, err)
	}
	if err := c.readResults(results); err != nil || recs["q1"].count() != n || recs["q2"].count() != n {
		t.Fatalf("the truthful frame: %v, %d and %d results, want %d each", err, recs["q1"].count(), recs["q2"].count(), n)
	}
}

// TestResultWindowAppendAllocs: a result appended to a session's window
// — a continuing frame's timestamp step included — allocates nothing once
// the window's chunks are warm.
func TestResultWindowAppendAllocs(t *testing.T) {
	w := newResultWindow(&wireMetrics{})
	q := &subState{}
	lay := &core.Layout{Cols: []int{0, 1}, Members: []core.Member{{Out: fuzzWide, Idx: []int{0, 1}, Sub: q}}}
	d := &delivery{win: w}
	match := []bool{true}
	ts := stream.Timestamp(1)
	rows := make([]stream.Tuple, 64)
	for i := range rows {
		rows[i] = stream.MustTuple(fuzzSource, stream.Timestamp(i), stream.Int(int64(i)), stream.Float(float64(i)))
	}
	run := func() {
		w.mu.Lock()
		for _, row := range rows {
			row.Ts = ts
			ts += 3
			w.add(d, lay, row, match)
		}
		w.dropAll()
		w.mu.Unlock()
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("%d results appended with %.1f allocations, want 0", len(rows), allocs)
	}
}

// codecBenchShape is a row shape the benchmark workloads put on the
// wire most, as a function of its sequence number.
type codecBenchShape struct {
	name string
	row  func(i int64) stream.Tuple
}

// codecBenchShapes are a fanout_tcp body (seq, pubns and three floats)
// and a remote_churn aggregate row (MAX(seq), COUNT(*), MIN(seq), four
// float aggregates, MAX(pubns)), each at a timestamp step of 1.
func codecBenchShapes() []codecBenchShape {
	field := func(name string, kind stream.Kind) stream.Field { return stream.Field{Name: name, Kind: kind} }
	i, f := stream.KindInt, stream.KindFloat
	fanout := stream.MustSchema("fanout", field("seq", i), field("pubns", i), field("v0", f), field("v1", f), field("v2", f))
	churn := stream.MustSchema("churn", field("max_seq", i), field("count", i), field("min_seq", i),
		field("sum_v0", f), field("max_v1", f), field("min_v2", f), field("avg_v0", f), field("max_pubns", i))
	const pubns = 500_000 // one event every 500 µs, as fanout_tcp's 2000/s
	return []codecBenchShape{
		{"fanout_tcp", func(n int64) stream.Tuple {
			x := float64(n%1000) / 10
			return stream.MustTuple(fanout, stream.Timestamp(n), stream.Int(n), stream.Int(n*pubns),
				stream.Float(x), stream.Float(100-x), stream.Float(x/3))
		}},
		{"remote_churn", func(n int64) stream.Tuple {
			x := float64(n%1000) / 10
			return stream.MustTuple(churn, stream.Timestamp(n), stream.Int(n), stream.Int(1), stream.Int(n),
				stream.Float(x), stream.Float(100-x), stream.Float(x/3), stream.Float(x), stream.Int(n*pubns))
		}},
	}
}

// BenchmarkTupleCodec encodes and decodes a full frame of each
// codecBenchShapes row, as the wire layer's own trajectory: ns/tuple and
// B/tuple, the encoded bytes per tuple.
func BenchmarkTupleCodec(b *testing.B) {
	const frame = 256
	for _, shape := range codecBenchShapes() {
		tuples := make([]stream.Tuple, frame)
		for i := range tuples {
			tuples[i] = shape.row(10_000 + int64(i))
		}
		arity := tuples[0].Schema.Arity()
		b.Run(shape.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, 64<<10)
			for b.Loop() {
				buf = buf[:0]
				for i, tp := range tuples {
					prev := stream.Timestamp(0)
					if i > 0 {
						prev = tuples[i-1].Ts
					}
					buf = appendTuple(buf, i == 0, prev, tp)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/tuple")
			b.ReportMetric(float64(len(buf))/frame, "B/tuple")
		})
		b.Run(shape.name+"/decode", func(b *testing.B) {
			buf, _ := encodeFrame(tuples)
			values := make([]stream.Value, arity)
			for b.Loop() {
				pos, ts := 0, stream.Timestamp(0)
				for i := range frame {
					var err error
					if ts, pos, err = decodeValues(buf, pos, i == 0, ts, values); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/tuple")
			b.ReportMetric(float64(len(buf))/frame, "B/tuple")
		})
	}
}
