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
			buf := appendTuple(nil, orig)
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

// randomTuple draws a schema-conforming tuple from rng, exercising
// the int-widens-to-float/time corner on occasion.
func randomTuple(t testing.TB, rng *rand.Rand, schema *stream.Schema, i int) stream.Tuple {
	vals := make([]stream.Value, len(schema.Fields))
	for j, f := range schema.Fields {
		switch f.Kind {
		case stream.KindInt:
			vals[j] = stream.Int(rng.Int63() - rng.Int63())
		case stream.KindFloat:
			if rng.Intn(4) == 0 {
				vals[j] = stream.Int(rng.Int63n(1000)) // widened int
			} else {
				vals[j] = stream.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40))))
			}
		case stream.KindString:
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			vals[j] = stream.String_(string(b))
		case stream.KindBool:
			vals[j] = stream.Bool(rng.Intn(2) == 0)
		case stream.KindTime:
			vals[j] = stream.Time(stream.Timestamp(rng.Int63()))
		}
	}
	tp, err := stream.NewTuple(schema, stream.Timestamp(i), vals...)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestTupleCodecRandomRoundTrip: seeded property test over many random
// tuples, decoded from a concatenated buffer like a real batch.
func TestTupleCodecRandomRoundTrip(t *testing.T) {
	schema := wireTestSchema(t)
	rng := rand.New(rand.NewSource(42))
	var buf []byte
	tuples := make([]stream.Tuple, 500)
	for i := range tuples {
		tuples[i] = randomTuple(t, rng, schema, i)
		buf = appendTuple(buf, tuples[i])
	}
	pos := 0
	for i, want := range tuples {
		got, next, err := decodeOne(schema, buf, pos)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		pos = next
		if !tuplesBitEqual(got, want) {
			t.Fatalf("tuple %d: %v != %v", i, got, want)
		}
	}
	if pos != len(buf) {
		t.Fatalf("consumed %d of %d bytes", pos, len(buf))
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
	buf := appendTuple(nil, tp)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeOne(schema, buf[:cut], 0); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(buf))
		}
	}
}

// TestTupleCodecCorruptKind: a bad kind tag errors cleanly.
func TestTupleCodecCorruptKind(t *testing.T) {
	schema := fixedWireSchema(t)
	tp, _ := stream.NewTuple(schema, 1, stream.Int(1), stream.Float(2))
	buf := appendTuple(nil, tp)
	buf[8] = 0xEE // first value's kind tag
	if _, _, err := decodeOne(schema, buf, 0); err == nil {
		t.Fatal("corrupt kind tag decoded successfully")
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

// FuzzTupleDecode: arbitrary bytes must never panic the decoder, and
// valid encodings must round-trip.
func FuzzTupleDecode(f *testing.F) {
	schema, err := stream.NewSchema("Fuzz",
		stream.Field{Name: "i", Kind: stream.KindInt},
		stream.Field{Name: "s", Kind: stream.KindString},
		stream.Field{Name: "f", Kind: stream.KindFloat},
	)
	if err != nil {
		f.Fatal(err)
	}
	tp, _ := stream.NewTuple(schema, 5, stream.Int(-9), stream.String_("seed"), stream.Float(math.Pi))
	f.Add(appendTuple(nil, tp))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, b []byte) { checkTupleRoundTrip(t, schema, b, 0) })
}

// checkTupleRoundTrip is the tuple codec's property on untrusted bytes,
// in either direction of the wire: b[pos:] decodes to an error (ok is
// false) or to a tuple that ends inside b and survives a re-encode round
// trip.
func checkTupleRoundTrip(t *testing.T, schema *stream.Schema, b []byte, pos int) (next int, ok bool) {
	t.Helper()
	got, next, err := decodeOne(schema, b, pos)
	if err != nil {
		return 0, false
	}
	if next <= pos || next > len(b) {
		t.Fatalf("decode from %d reported position %d for %d input bytes", pos, next, len(b))
	}
	// Whatever decodes must survive a re-encode round trip (byte
	// equality is too strong: Uvarint accepts non-minimal varints).
	again, _, err := decodeOne(schema, appendTuple(nil, got), 0)
	if err != nil {
		t.Fatalf("re-decode of re-encoded tuple: %v", err)
	}
	if !tuplesBitEqual(again, got) {
		t.Fatalf("re-encode round trip changed the tuple")
	}
	return next, true
}

// decodeOne decodes one tuple of s at b[pos] into a value slice of its
// own.
func decodeOne(s *stream.Schema, b []byte, pos int) (stream.Tuple, int, error) {
	values := make([]stream.Value, s.Arity())
	ts, next, err := decodeValues(b, pos, values)
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
		buf = appendTuple(buf[:0], tp)
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
	buf := appendTuple(nil, tp)
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
