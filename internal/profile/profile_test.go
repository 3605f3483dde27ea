package profile

import (
	"strings"
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

var rSchema = stream.MustSchema("R",
	stream.Field{Name: "A", Kind: stream.KindInt},
	stream.Field{Name: "B", Kind: stream.KindInt},
	stream.Field{Name: "C", Kind: stream.KindInt},
)

func rTuple(t *testing.T, ts stream.Timestamp, a, b, c int64) stream.Tuple {
	t.Helper()
	return stream.MustTuple(rSchema, ts, stream.Int(a), stream.Int(b), stream.Int(c))
}

func TestProfileCovers(t *testing.T) {
	p := New()
	p.AddStream("R", []string{"A", "B"}, predicate.DNF{
		{predicate.C("A", predicate.GT, stream.Int(10))},
	})
	ok, err := p.Covers(rTuple(t, 0, 11, 0, 0))
	if err != nil || !ok {
		t.Fatalf("covers = %v, %v", ok, err)
	}
	ok, _ = p.Covers(rTuple(t, 0, 9, 0, 0))
	if ok {
		t.Error("A=9 must not be covered")
	}
	// Unknown stream is never covered.
	other := stream.MustTuple(stream.MustSchema("X", stream.Field{Name: "A", Kind: stream.KindInt}), 0, stream.Int(99))
	if ok, _ := p.Covers(other); ok {
		t.Error("unknown stream covered")
	}
}

func TestProfileCoversNoFilter(t *testing.T) {
	p := New()
	p.AddStream("R", nil, nil)
	if ok, _ := p.Covers(rTuple(t, 0, 0, 0, 0)); !ok {
		t.Error("filterless profile covers everything on the stream")
	}
}

func TestProfileProject(t *testing.T) {
	p := New()
	p.AddStream("R", []string{"A", "C"}, nil)
	out, err := p.Project(rTuple(t, 5, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Arity() != 2 || out.MustGet("A").AsInt() != 1 || out.MustGet("C").AsInt() != 3 {
		t.Errorf("projected = %v", out)
	}
	if out.Ts != 5 {
		t.Error("timestamp must survive projection")
	}
	// No projection set: tuple passes through whole.
	p2 := New()
	p2.AddStream("R", nil, nil)
	out2, err := p2.Project(rTuple(t, 5, 1, 2, 3))
	if err != nil || out2.Schema.Arity() != 3 {
		t.Errorf("pass-through = %v, %v", out2, err)
	}
}

func TestProfileMergeFiltersAndAttrs(t *testing.T) {
	a := New()
	a.AddStream("R", []string{"A"}, predicate.DNF{{predicate.C("A", predicate.GT, stream.Int(10))}})
	b := New()
	b.AddStream("R", []string{"B"}, predicate.DNF{{predicate.C("A", predicate.LT, stream.Int(0))}})
	a.Merge(b)
	attrs := a.AttrsFor("R")
	if strings.Join(attrs, ",") != "A,B" {
		t.Errorf("merged attrs = %v", attrs)
	}
	f := a.FilterFor("R")
	if len(f) != 2 {
		t.Errorf("merged filter = %s", f)
	}
	// Merging a TRUE filter widens to TRUE.
	c := New()
	c.AddStream("R", nil, nil)
	a.Merge(c)
	if !a.FilterFor("R").IsTrue() {
		t.Errorf("TRUE merge = %s", a.FilterFor("R"))
	}
	if a.AttrsFor("R") != nil {
		t.Error("nil (all) attrs must dominate union")
	}
}

func TestProfileMergeNewStream(t *testing.T) {
	a := New()
	a.AddStream("R", []string{"A"}, nil)
	b := New()
	b.AddStream("S2", []string{"X"}, predicate.DNF{{predicate.C("X", predicate.EQ, stream.Int(1))}})
	a.Merge(b)
	if len(a.Streams) != 2 || a.Streams[0] != "R" || a.Streams[1] != "S2" {
		t.Errorf("streams = %v", a.Streams)
	}
	if a.FilterFor("S2").IsTrue() {
		t.Error("new stream filter lost")
	}
}

func TestCoversProfile(t *testing.T) {
	wide := New()
	wide.AddStream("R", nil, predicate.DNF{{predicate.C("A", predicate.GT, stream.Int(0))}})
	narrow := New()
	narrow.AddStream("R", []string{"A"}, predicate.DNF{{predicate.C("A", predicate.GT, stream.Int(10))}})
	if !wide.CoversProfile(narrow) {
		t.Error("wide should cover narrow")
	}
	if narrow.CoversProfile(wide) {
		t.Error("narrow must not cover wide")
	}
	// Projection matters: a profile with fewer attrs cannot cover one
	// needing more.
	narrowAttrs := New()
	narrowAttrs.AddStream("R", []string{"A"}, nil)
	wantsMore := New()
	wantsMore.AddStream("R", []string{"A", "B"}, nil)
	if narrowAttrs.CoversProfile(wantsMore) {
		t.Error("projection superset required for covering")
	}
	if !wantsMore.CoversProfile(narrowAttrs) {
		t.Error("attr superset with TRUE filters should cover")
	}
	// Stream set matters.
	other := New()
	other.AddStream("S2", nil, nil)
	if wide.CoversProfile(other) {
		t.Error("different stream not covered")
	}
}

func TestCoversProfileSemantics(t *testing.T) {
	// If p covers q, every tuple covered by q is covered by p.
	p := New()
	p.AddStream("R", nil, predicate.DNF{{predicate.C("A", predicate.GE, stream.Int(5))}})
	q := New()
	q.AddStream("R", []string{"A"}, predicate.DNF{
		{predicate.C("A", predicate.GE, stream.Int(7)), predicate.C("B", predicate.EQ, stream.Int(1))},
	})
	if !p.CoversProfile(q) {
		t.Fatal("p should cover q")
	}
	for a := int64(0); a < 12; a++ {
		for b := int64(0); b < 3; b++ {
			tp := rTuple(t, 0, a, b, 0)
			qc, _ := q.Covers(tp)
			pc, _ := p.Covers(tp)
			if qc && !pc {
				t.Fatalf("covering violated at A=%d B=%d", a, b)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New()
	p.AddStream("R", []string{"A"}, predicate.DNF{{predicate.C("A", predicate.GT, stream.Int(1))}})
	c := p.Clone()
	c.AddStream("R", []string{"A", "B"}, nil)
	if strings.Join(p.AttrsFor("R"), ",") != "A" {
		t.Error("clone mutation leaked into original")
	}
	if p.String() != p.Clone().String() {
		t.Error("clone should render as the original")
	}
	if p.String() == c.String() {
		t.Error("diverged clone should not render as the original")
	}
}

func testCatalog() *stream.Registry {
	r := stream.NewRegistry()
	for _, in := range []*stream.Info{
		{Schema: stream.MustSchema("R",
			stream.Field{Name: "A", Kind: stream.KindInt},
			stream.Field{Name: "B", Kind: stream.KindInt},
		), Rate: 1},
		{Schema: stream.MustSchema("S",
			stream.Field{Name: "B", Kind: stream.KindInt},
			stream.Field{Name: "C", Kind: stream.KindInt},
		), Rate: 1},
	} {
		if err := r.Register(in); err != nil {
			panic(err)
		}
	}
	return r
}

func TestFromQueryPaperExample(t *testing.T) {
	b, err := cql.AnalyzeString("SELECT R.A, S.C FROM R [Now], S [Now] WHERE R.B = S.B AND R.A > 10", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	p := FromQuery(b)
	if strings.Join(p.Streams, ",") != "R,S" {
		t.Errorf("S = %v", p.Streams)
	}
	if strings.Join(p.AttrsFor("R"), ",") != "A,B" {
		t.Errorf("P(R) = %v", p.AttrsFor("R"))
	}
	if strings.Join(p.AttrsFor("S"), ",") != "B,C" {
		t.Errorf("P(S) = %v", p.AttrsFor("S"))
	}
	if got := p.FilterFor("R").String(); got != "(A > 10)" {
		t.Errorf("F(R) = %s", got)
	}
	if !p.FilterFor("S").IsTrue() {
		t.Errorf("F(S) = %s", p.FilterFor("S"))
	}
}

func TestForResult(t *testing.T) {
	p := ForResult("result-42")
	if len(p.Streams) != 1 || p.Streams[0] != "result-42" {
		t.Errorf("streams = %v", p.Streams)
	}
	if p.AttrsFor("result-42") != nil {
		t.Error("result profile has no projection predicate")
	}
	if !p.FilterFor("result-42").IsTrue() {
		t.Error("result profile has no filter")
	}
}

func TestProfileString(t *testing.T) {
	p := New()
	p.AddStream("R", []string{"A"}, predicate.DNF{{predicate.C("A", predicate.GT, stream.Int(1))}})
	s := p.String()
	if !strings.Contains(s, "S={R}") || !strings.Contains(s, "P(R)={A}") || !strings.Contains(s, "A > 1") {
		t.Errorf("String = %s", s)
	}
}
