package profile

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// genProfile builds a random single-stream profile over R's attributes
// with small integer constants, for exhaustive-domain property checks.
func genProfile(r *rand.Rand) *Profile {
	p := New()
	var filter predicate.DNF
	for d := 0; d <= r.Intn(2); d++ {
		var cj predicate.Conj
		for c := 0; c <= r.Intn(2); c++ {
			attr := []string{"A", "B"}[r.Intn(2)]
			op := []predicate.Op{predicate.EQ, predicate.LT, predicate.LE, predicate.GT, predicate.GE}[r.Intn(5)]
			cj = append(cj, predicate.C(attr, op, stream.Int(int64(r.Intn(5)))))
		}
		filter = append(filter, cj)
	}
	var attrs []string
	switch r.Intn(3) {
	case 0:
		attrs = nil // all
	case 1:
		attrs = []string{"A"}
	default:
		attrs = []string{"A", "B"}
	}
	p.AddStream("R", attrs, filter)
	return p
}

// TestMergeCoversBothInputsProperty: after p.Merge(q), every tuple
// covered by either original profile is covered by the merged one.
func TestMergeCoversBothInputsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		p1 := genProfile(r)
		p2 := genProfile(r)
		merged := p1.Clone()
		merged.Merge(p2)
		for a := int64(0); a < 5; a++ {
			for b := int64(0); b < 5; b++ {
				tp := rTuple(t, 0, a, b, 0)
				c1, _ := p1.Covers(tp)
				c2, _ := p2.Covers(tp)
				cm, err := merged.Covers(tp)
				if err != nil {
					t.Fatal(err)
				}
				if (c1 || c2) && !cm {
					t.Fatalf("merge lost coverage at (%d,%d):\n p1=%s\n p2=%s\n merged=%s",
						a, b, p1, p2, merged)
				}
			}
		}
		// Projection union: the merged attrs must include both sides'.
		for _, src := range []*Profile{p1, p2} {
			srcAttrs := src.AttrsFor("R")
			mAttrs := merged.AttrsFor("R")
			if mAttrs == nil {
				continue // all attributes
			}
			if srcAttrs == nil {
				t.Fatalf("merged narrowed an all-attrs side: %s + %s -> %s", p1, p2, merged)
			}
			set := map[string]bool{}
			for _, a := range mAttrs {
				set[a] = true
			}
			for _, a := range srcAttrs {
				if !set[a] {
					t.Fatalf("merged lost attr %s: %s + %s -> %s", a, p1, p2, merged)
				}
			}
		}
	}
}

// TestCoversProfileSoundnessProperty: whenever CoversProfile(p, q)
// reports true, p covers every tuple q covers on the sample domain.
func TestCoversProfileSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	positives := 0
	for trial := 0; trial < 2000; trial++ {
		p := genProfile(r)
		q := genProfile(r)
		if !p.CoversProfile(q) {
			continue
		}
		positives++
		for a := int64(0); a < 5; a++ {
			for b := int64(0); b < 5; b++ {
				tp := rTuple(t, 0, a, b, 0)
				cq, _ := q.Covers(tp)
				cp, _ := p.Covers(tp)
				if cq && !cp {
					t.Fatalf("covering violated at (%d,%d):\n p=%s\n q=%s", a, b, p, q)
				}
			}
		}
	}
	if positives < 20 {
		t.Fatalf("only %d positive covering pairs; test too weak", positives)
	}
}

// TestCompiledApplyArrivalOrderProperty: over random schemas and
// attribute sets, CompiledStream.Apply equals the name-resolved
// projection (Profile.Project), which keeps the arriving schema's
// order. Every column is the tuple itself; a contiguous run shares the
// tuple's values with cap == len, so an append cannot reach the
// columns past it; a gap copies.
func TestCompiledApplyArrivalOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	kinds := []stream.Kind{stream.KindInt, stream.KindFloat, stream.KindString}
	runs, gaps, idents := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		arity := 1 + r.Intn(7)
		fields := make([]stream.Field, arity)
		vals := make([]stream.Value, arity)
		for i, n := range r.Perm(10)[:arity] {
			fields[i] = stream.Field{Name: fmt.Sprintf("a%d", n), Kind: kinds[r.Intn(len(kinds))]}
			switch fields[i].Kind {
			case stream.KindInt:
				vals[i] = stream.Int(int64(r.Intn(100)))
			case stream.KindFloat:
				vals[i] = stream.Float(r.Float64())
			default:
				vals[i] = stream.String_(fmt.Sprint(r.Intn(100)))
			}
		}
		s := stream.MustSchema("R", fields...)
		tp := stream.MustTuple(s, stream.Timestamp(trial), vals...)
		var attrs []string
		for _, i := range r.Perm(arity)[:1+r.Intn(arity)] {
			attrs = append(attrs, fields[i].Name)
		}
		p := New()
		p.AddStream("R", attrs, nil)
		cs, err := p.CompileFor(s)
		if err != nil {
			t.Fatal(err)
		}
		got := cs.Apply(tp)
		want, err := p.Project(tp)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("schema %s, attrs %v", s, attrs)
		if !got.Equal(want) || got.Ts != tp.Ts {
			t.Fatalf("%s: Apply = %s, want %s", ctx, got, want)
		}
		if g, w := got.Schema.AttrNames(), want.Schema.AttrNames(); !slices.Equal(g, w) {
			t.Fatalf("%s: projected attrs %v, want %v", ctx, g, w)
		}
		lo := s.ColIndex(got.Schema.Fields[0].Name)
		shared := &got.Values[0] == &tp.Values[lo]
		switch {
		case len(attrs) == arity:
			idents++
			if got.Schema != s || !shared {
				t.Fatalf("%s: every column must forward the tuple itself", ctx)
			}
		case s.ColIndex(got.Schema.Fields[len(attrs)-1].Name)-lo == len(attrs)-1:
			runs++
			if !shared || cap(got.Values) != len(got.Values) {
				t.Fatalf("%s: a run must share the values with cap == len, shared %v cap %d len %d",
					ctx, shared, cap(got.Values), len(got.Values))
			}
		default:
			gaps++
			if shared {
				t.Fatalf("%s: a gapped projection must copy", ctx)
			}
		}
	}
	if runs < 100 || gaps < 100 || idents < 100 {
		t.Fatalf("too few cases: %d runs, %d gaps, %d identities", runs, gaps, idents)
	}
}

// genPart adds a random request of stream s to p, or none: a filter of up
// to three disjuncts over A and B (TRUE a third of the time) and a
// projection of all attributes, none (an aggregate's empty set), A or
// both.
func genPart(r *rand.Rand, p *Profile, s string) {
	if r.Intn(4) == 0 {
		return // this part lacks the stream
	}
	var filter predicate.DNF
	if r.Intn(3) > 0 {
		for d := 0; d <= r.Intn(3); d++ {
			var cj predicate.Conj
			for c := 0; c <= r.Intn(2); c++ {
				attr := []string{"A", "B"}[r.Intn(2)]
				op := []predicate.Op{predicate.EQ, predicate.LT, predicate.LE, predicate.GT, predicate.GE}[r.Intn(5)]
				cj = append(cj, predicate.C(attr, op, stream.Int(int64(r.Intn(4)))))
			}
			filter = append(filter, cj)
		}
	}
	attrs := [][]string{nil, {}, {"A"}, {"A", "B"}}[r.Intn(4)]
	p.AddStream(s, attrs, filter)
}

// TestUnionOnMatchesLeftFoldProperty: UnionOn's pairwise fold over the
// parts themselves requests, per stream, exactly what merging the
// profiles into an empty one, one at a time, does (SameOn): the halving
// and the parts it skips change how much work a union takes, never its
// result. Part lists mix profiles lacking the stream, nil entries, TRUE
// filters and all-attribute projections.
func TestUnionOnMatchesLeftFoldProperty(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 3000; trial++ {
		ps := make([]*Profile, r.Intn(9))
		for i := range ps {
			if r.Intn(10) == 0 {
				continue // a nil entry requests nothing
			}
			ps[i] = New()
			genPart(r, ps[i], "R")
			genPart(r, ps[i], "S")
		}
		fold := New()
		for _, p := range ps {
			if p != nil {
				fold.Merge(p)
			}
		}
		for _, s := range []string{"R", "S"} {
			if got := UnionOn(s, ps); !SameOn(got, fold, s) || len(got.Streams) > 1 {
				t.Fatalf("trial %d stream %s: UnionOn = %s, left fold = %s\nparts: %v", trial, s, got, fold, ps)
			}
		}
	}
}
