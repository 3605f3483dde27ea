package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) = %v", v)
	}
	if v := String_("hi"); v.Kind() != KindString || v.AsString() != "hi" {
		t.Errorf("String_ = %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool(true) = %v", v)
	}
	if v := Time(99); v.Kind() != KindTime || v.AsTime() != 99 {
		t.Errorf("Time(99) = %v", v)
	}
	if (Value{}).Valid() {
		t.Error("zero Value should be invalid")
	}
}

func TestValueCompareNumericCross(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(1.5), Int(1), 1},
		{Float(2.0), Int(2), 0},
		{Time(5), Int(5), 0},
		{Time(4), Time(9), -1},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("b"), 0},
		{Bool(false), Bool(true), -1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareIncomparable(t *testing.T) {
	if _, err := Int(1).Compare(String_("x")); err == nil {
		t.Error("int vs string should be incomparable")
	}
	if _, err := Bool(true).Compare(Int(1)); err == nil {
		t.Error("bool vs int should be incomparable")
	}
	if Int(1).Equal(String_("1")) {
		t.Error("int and string must not be Equal")
	}
}

func TestValueCompareLargeIntsExact(t *testing.T) {
	// Two large int64s that collide when rounded to float64 must still
	// compare exactly via the integral path.
	a := Int(math.MaxInt64)
	b := Int(math.MaxInt64 - 1)
	c, err := a.Compare(b)
	if err != nil || c != 1 {
		t.Errorf("Compare(maxint, maxint-1) = %d, %v", c, err)
	}
}

func TestValueSub(t *testing.T) {
	v, err := Time(5000).Sub(Time(2000))
	if err != nil || v.AsInt() != 3000 {
		t.Fatalf("Time sub = %v, %v", v, err)
	}
	v, err = Float(1.5).Sub(Int(1))
	if err != nil || v.AsFloat() != 0.5 {
		t.Fatalf("Float sub = %v, %v", v, err)
	}
	if _, err := String_("a").Sub(Int(1)); err == nil {
		t.Error("string sub should error")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Int(a).Compare(Int(b))
		y, err2 := Int(b).Compare(Int(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		Now:         "Now",
		Unbounded:   "Unbounded",
		3 * Hour:    "3 Hour",
		30 * Minute: "30 Minute",
		2 * Day:     "2 Day",
		1500:        "1500 Millisecond",
		5 * Second:  "5 Second",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, name := range []string{"int", "float", "string", "bool", "time"} {
		k, err := ParseKind(name)
		if err != nil || k == KindInvalid {
			t.Errorf("ParseKind(%q) = %v, %v", name, k, err)
		}
		if k.String() != name && !(name == "time" && k == KindTime) {
			t.Errorf("round trip %q -> %q", name, k.String())
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema("OpenAuction",
		Field{Name: "itemID", Kind: KindInt},
		Field{Name: "sellerID", Kind: KindInt},
		Field{Name: "start_price", Kind: KindFloat},
		Field{Name: "timestamp", Kind: KindTime},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.Arity() != 4 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.ColIndex("sellerID") != 1 || s.ColIndex("nope") != -1 {
		t.Error("ColIndex wrong")
	}
	if !s.Has("itemID") || s.Has("bogus") {
		t.Error("Has wrong")
	}
	if got := s.TupleWidth(); got != 8+8+8+8 {
		t.Errorf("TupleWidth = %d", got)
	}
	want := "OpenAuction(itemID int, sellerID int, start_price float, timestamp time)"
	if s.String() != want {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty stream name should fail")
	}
	if _, err := NewSchema("S", Field{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty field name should fail")
	}
	if _, err := NewSchema("S", Field{Name: "a", Kind: KindInt}, Field{Name: "a", Kind: KindInt}); err == nil {
		t.Error("duplicate field should fail")
	}
	if _, err := NewSchema("S", Field{Name: "a"}); err == nil {
		t.Error("invalid kind should fail")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project([]string{"timestamp", "itemID"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.Fields[0].Name != "timestamp" || p.Fields[1].Name != "itemID" {
		t.Errorf("projected schema = %v", p)
	}
	if _, err := s.Project([]string{"missing"}); err == nil {
		t.Error("projecting missing attr should fail")
	}
}

func TestSchemaRenameAndEqual(t *testing.T) {
	s := testSchema(t)
	r := s.Rename("Result1")
	if r.Stream != "Result1" || r.Arity() != s.Arity() {
		t.Errorf("rename = %v", r)
	}
	if s.Equal(r) {
		t.Error("renamed schema should not be Equal")
	}
	if !s.Equal(testSchema(t)) {
		t.Error("identical schemas should be Equal")
	}
	var nilSchema *Schema
	if nilSchema.Equal(s) || !nilSchema.Equal(nil) {
		t.Error("nil schema equality wrong")
	}
}

func TestJoinSchema(t *testing.T) {
	open := testSchema(t)
	closed := MustSchema("ClosedAuction",
		Field{Name: "itemID", Kind: KindInt},
		Field{Name: "buyerID", Kind: KindInt},
		Field{Name: "timestamp", Kind: KindTime},
	)
	js, err := JoinSchema("rep1", []string{"O", "C"}, []*Schema{open, closed})
	if err != nil {
		t.Fatal(err)
	}
	if js.Arity() != 7 {
		t.Fatalf("join arity = %d", js.Arity())
	}
	if !js.Has("O.itemID") || !js.Has("C.buyerID") || !js.Has("C.timestamp") {
		t.Errorf("join schema missing qualified attrs: %v", js)
	}
	if _, err := JoinSchema("x", []string{"A"}, []*Schema{open, closed}); err == nil {
		t.Error("mismatched alias count should fail")
	}
}

func TestTupleBasics(t *testing.T) {
	s := testSchema(t)
	tp, err := NewTuple(s, 100, Int(7), Int(3), Float(9.5), Time(100))
	if err != nil {
		t.Fatal(err)
	}
	if v := tp.MustGet("start_price"); v.AsFloat() != 9.5 {
		t.Errorf("get = %v", v)
	}
	if _, ok := tp.Get("nope"); ok {
		t.Error("Get of missing attr should fail")
	}
	if tp.WireSize() != 8+8+8+8+8 {
		t.Errorf("WireSize = %d", tp.WireSize())
	}
}

func TestTupleValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := NewTuple(s, 1, Int(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := NewTuple(s, 1, String_("x"), Int(1), Float(1), Time(1)); err == nil {
		t.Error("kind mismatch should fail")
	}
	// Int widens into float and time fields.
	if _, err := NewTuple(s, 1, Int(1), Int(2), Int(3), Int(4)); err != nil {
		t.Errorf("int widening should be allowed: %v", err)
	}
}

func TestTupleProjectAndConcat(t *testing.T) {
	s := testSchema(t)
	tp := MustTuple(s, 50, Int(7), Int(3), Float(9.5), Time(50))
	ps, _ := s.Project([]string{"itemID", "timestamp"})
	pt, err := tp.Project(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Values) != 2 || pt.Values[0].AsInt() != 7 {
		t.Errorf("projected tuple = %v", pt)
	}

	closed := MustSchema("ClosedAuction",
		Field{Name: "itemID", Kind: KindInt},
		Field{Name: "buyerID", Kind: KindInt},
		Field{Name: "timestamp", Kind: KindTime},
	)
	js, _ := JoinSchema("rep1", []string{"O", "C"}, []*Schema{s, closed})
	ct := MustTuple(closed, 80, Int(7), Int(55), Time(80))
	joined := Concat(js, tp, ct)
	if joined.Ts != 80 {
		t.Errorf("join ts = %d, want max(50,80)", joined.Ts)
	}
	if joined.MustGet("C.buyerID").AsInt() != 55 || joined.MustGet("O.itemID").AsInt() != 7 {
		t.Errorf("joined tuple = %v", joined)
	}
}

func TestTupleEqualAndKey(t *testing.T) {
	s := testSchema(t)
	a := MustTuple(s, 1, Int(1), Int(2), Float(3), Time(1))
	b := MustTuple(s, 1, Int(1), Int(2), Float(3), Time(1))
	c := MustTuple(s, 2, Int(1), Int(2), Float(3), Time(2))
	if !a.Equal(b) {
		t.Error("identical tuples should be Equal")
	}
	if a.Equal(c) {
		t.Error("different ts should not be Equal")
	}
	if a.Key() == c.Key() {
		t.Error("keys should differ")
	}
	if a.Key() != b.Key() {
		t.Error("keys should match")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	s := testSchema(t)
	info := &Info{Schema: s, Rate: 10, Stats: map[string]AttrStats{
		"start_price": {Min: 0, Max: 100, Distinct: 100},
	}}
	if err := r.Register(info); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup("OpenAuction")
	if !ok || got.Rate != 10 {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	if sc, ok := r.Schema("OpenAuction"); !ok || sc.Arity() != 4 {
		t.Error("Schema lookup failed")
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("missing stream should not resolve")
	}
	if r.Len() != 1 || len(r.Names()) != 1 {
		t.Error("Len/Names wrong")
	}
	if got.Bps() != 10*float64(s.TupleWidth()+8) {
		t.Errorf("Bps = %f", got.Bps())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Error("Snapshot wrong")
	}
	r.Deregister("OpenAuction")
	if r.Len() != 0 {
		t.Error("Deregister failed")
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil register should fail")
	}
}

func TestAttrStatsSpan(t *testing.T) {
	if (AttrStats{Min: 2, Max: 10}).Span() != 8 {
		t.Error("span wrong")
	}
	if (AttrStats{Min: 5, Max: 5}).Span() != 0 {
		t.Error("degenerate span should be 0")
	}
	if (AttrStats{Min: 9, Max: 2}).Span() != 0 {
		t.Error("inverted span should be 0")
	}
}

func TestFieldWidth(t *testing.T) {
	if (Field{Name: "s", Kind: KindString}).Width() != DefaultStringWidth {
		t.Error("default string width")
	}
	if (Field{Name: "s", Kind: KindString, AvgLen: 40}).Width() != 40 {
		t.Error("declared string width")
	}
	if (Field{Name: "n", Kind: KindInt, AvgLen: 40}).Width() != 8 {
		t.Error("AvgLen must not affect ints")
	}
}

func TestValueWireSize(t *testing.T) {
	if Int(5).WireSize() != 8 || Bool(true).WireSize() != 1 {
		t.Error("numeric wire sizes")
	}
	if String_("hello").WireSize() != 5 {
		t.Error("string wire size should be its length")
	}
	if String_("").WireSize() != 1 {
		t.Error("empty string has minimal framing size")
	}
}

func TestProjectIdxMatchesProject(t *testing.T) {
	s := MustSchema("R",
		Field{Name: "A", Kind: KindInt},
		Field{Name: "B", Kind: KindFloat},
		Field{Name: "C", Kind: KindString},
	)
	tp := MustTuple(s, 42, Int(1), Float(2.5), String_("x"))
	names := []string{"C", "A"}
	proj, idx, err := s.ProjectIdx(names)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Project(names)
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Equal(want) {
		t.Fatalf("ProjectIdx schema %s, want %s", proj, want)
	}
	fast := tp.ProjectIdx(idx, proj, nil)
	slow, err := tp.Project(want)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Equal(slow) {
		t.Fatalf("ProjectIdx tuple %s, want %s", fast, slow)
	}
	if fast.Ts != 42 {
		t.Fatalf("ProjectIdx must keep the timestamp, got %d", fast.Ts)
	}
	if _, _, err := s.ProjectIdx([]string{"missing"}); err == nil {
		t.Fatal("ProjectIdx should reject unknown attributes")
	}
}
