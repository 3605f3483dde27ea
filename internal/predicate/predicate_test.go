package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cosmos/internal/stream"
)

var testSch = stream.MustSchema("R",
	stream.Field{Name: "x", Kind: stream.KindInt},
	stream.Field{Name: "y", Kind: stream.KindInt},
	stream.Field{Name: "s", Kind: stream.KindString},
)

func tup(t *testing.T, x, y int64, s string) stream.Tuple {
	t.Helper()
	return stream.MustTuple(testSch, 0, stream.Int(x), stream.Int(y), stream.String_(s))
}

func TestOpHolds(t *testing.T) {
	cases := []struct {
		op   Op
		cmp  int
		want bool
	}{
		{EQ, 0, true}, {EQ, 1, false},
		{NE, 0, false}, {NE, -1, true},
		{LT, -1, true}, {LT, 0, false},
		{LE, 0, true}, {LE, 1, false},
		{GT, 1, true}, {GT, 0, false},
		{GE, 0, true}, {GE, -1, false},
	}
	for _, c := range cases {
		if got := c.op.Holds(c.cmp); got != c.want {
			t.Errorf("%s.Holds(%d) = %v", c.op, c.cmp, got)
		}
	}
}

func TestOpNegateFlip(t *testing.T) {
	for _, op := range []Op{EQ, NE, LT, LE, GT, GE} {
		if op.Negate().Negate() != op {
			t.Errorf("double negate of %s", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("double flip of %s", op)
		}
	}
	// Negation is complementary on every comparison outcome.
	for _, op := range []Op{EQ, NE, LT, LE, GT, GE} {
		for _, cmp := range []int{-1, 0, 1} {
			if op.Holds(cmp) == op.Negate().Holds(cmp) {
				t.Errorf("%s and its negation agree on %d", op, cmp)
			}
		}
	}
	// Flip mirrors the comparison: a op b == b flip(op) a.
	for _, op := range []Op{EQ, NE, LT, LE, GT, GE} {
		for _, cmp := range []int{-1, 0, 1} {
			if op.Holds(cmp) != op.Flip().Holds(-cmp) {
				t.Errorf("flip of %s wrong on %d", op, cmp)
			}
		}
	}
}

func TestTermResolve(t *testing.T) {
	tp := tup(t, 7, 3, "a")
	v, err := Attr("x").Resolve(tp)
	if err != nil || v.AsInt() != 7 {
		t.Fatalf("attr resolve = %v, %v", v, err)
	}
	v, err = Diff("x", "y").Resolve(tp)
	if err != nil || v.AsInt() != 4 {
		t.Fatalf("diff resolve = %v, %v", v, err)
	}
	if _, err := Attr("z").Resolve(tp); err == nil {
		t.Error("missing attr should error")
	}
	if _, err := Diff("x", "z").Resolve(tp); err == nil {
		t.Error("missing diff attr should error")
	}
	if _, err := Diff("x", "s").Resolve(tp); err == nil {
		t.Error("subtracting a string should error")
	}
}

func TestConstraintEval(t *testing.T) {
	tp := tup(t, 11, 2, "go")
	cases := []struct {
		c    Constraint
		want bool
	}{
		{C("x", GT, stream.Int(10)), true},
		{C("x", GT, stream.Int(11)), false},
		{C("x", LE, stream.Int(11)), true},
		{C("s", EQ, stream.String_("go")), true},
		{C("s", NE, stream.String_("go")), false},
		{Constraint{Term: Diff("x", "y"), Op: EQ, Const: stream.Int(9)}, true},
		{Constraint{Term: Diff("x", "y"), Op: LT, Const: stream.Int(9)}, false},
	}
	for _, c := range cases {
		got, err := c.c.Eval(tp)
		if err != nil {
			t.Fatalf("%s: %v", c.c, err)
		}
		if got != c.want {
			t.Errorf("%s on %v = %v, want %v", c.c, tp, got, c.want)
		}
	}
	if _, err := C("x", EQ, stream.String_("oops")).Eval(tp); err == nil {
		t.Error("kind mismatch should error")
	}
}

func TestConjEvalAndAttrs(t *testing.T) {
	cj := Conj{C("x", GT, stream.Int(5)), C("y", LT, stream.Int(10))}
	ok, err := cj.Eval(tup(t, 6, 3, ""))
	if err != nil || !ok {
		t.Fatalf("eval = %v, %v", ok, err)
	}
	ok, _ = cj.Eval(tup(t, 4, 3, ""))
	if ok {
		t.Error("x=4 should fail x>5")
	}
	attrs := cj.Attrs()
	if len(attrs) != 2 || attrs[0] != "x" || attrs[1] != "y" {
		t.Errorf("attrs = %v", attrs)
	}
	if (Conj{}).String() != "TRUE" {
		t.Error("empty conj should print TRUE")
	}
	// Empty conjunction accepts everything.
	if ok, _ := (Conj{}).Eval(tup(t, 0, 0, "")); !ok {
		t.Error("empty conj must accept")
	}
}

func TestSatisfiable(t *testing.T) {
	cases := []struct {
		cj   Conj
		want bool
	}{
		{Conj{}, true},
		{Conj{C("x", GT, stream.Int(5)), C("x", LT, stream.Int(3))}, false},
		{Conj{C("x", GT, stream.Int(5)), C("x", LT, stream.Int(7))}, true},
		{Conj{C("x", GE, stream.Int(5)), C("x", LE, stream.Int(5))}, true},
		{Conj{C("x", GT, stream.Int(5)), C("x", LE, stream.Int(5))}, false},
		{Conj{C("x", EQ, stream.Int(5)), C("x", NE, stream.Int(5))}, false},
		{Conj{C("x", EQ, stream.Int(5)), C("x", NE, stream.Int(6))}, true},
		{Conj{C("s", EQ, stream.String_("a")), C("s", EQ, stream.String_("b"))}, false},
		{Conj{C("s", EQ, stream.String_("a")), C("s", NE, stream.String_("a"))}, false},
		{Conj{C("s", EQ, stream.String_("a")), C("s", NE, stream.String_("b"))}, true},
	}
	for _, c := range cases {
		if got := c.cj.Satisfiable(); got != c.want {
			t.Errorf("Satisfiable(%s) = %v, want %v", c.cj, got, c.want)
		}
	}
}

func TestImpliesDirected(t *testing.T) {
	cases := []struct {
		a, b Conj
		want bool
	}{
		// Tighter range implies looser range.
		{Conj{C("x", GT, stream.Int(10))}, Conj{C("x", GT, stream.Int(5))}, true},
		{Conj{C("x", GT, stream.Int(5))}, Conj{C("x", GT, stream.Int(10))}, false},
		// Anything implies TRUE.
		{Conj{C("x", EQ, stream.Int(1))}, Conj{}, true},
		// TRUE implies nothing constrained.
		{Conj{}, Conj{C("x", GT, stream.Int(0))}, false},
		// Equality implies range.
		{Conj{C("x", EQ, stream.Int(7))}, Conj{C("x", GE, stream.Int(7)), C("x", LE, stream.Int(7))}, true},
		// Equality implies NE of another point.
		{Conj{C("x", EQ, stream.Int(7))}, Conj{C("x", NE, stream.Int(9))}, true},
		{Conj{C("x", EQ, stream.Int(7))}, Conj{C("x", NE, stream.Int(7))}, false},
		// Range implies NE outside it.
		{Conj{C("x", LT, stream.Int(5))}, Conj{C("x", NE, stream.Int(9))}, true},
		// Strings.
		{Conj{C("s", EQ, stream.String_("a"))}, Conj{C("s", NE, stream.String_("b"))}, true},
		{Conj{C("s", EQ, stream.String_("a"))}, Conj{C("s", EQ, stream.String_("a"))}, true},
		{Conj{C("s", NE, stream.String_("b"))}, Conj{C("s", EQ, stream.String_("a"))}, false},
		// Unsatisfiable premise implies anything.
		{Conj{C("x", GT, stream.Int(5)), C("x", LT, stream.Int(3))}, Conj{C("s", EQ, stream.String_("zz"))}, true},
		// Multi-attribute.
		{
			Conj{C("x", GT, stream.Int(10)), C("y", EQ, stream.Int(2))},
			Conj{C("x", GT, stream.Int(0))},
			true,
		},
		// Attribute-difference terms (window re-tightening form).
		{
			Conj{{Term: Diff("a.ts", "b.ts"), Op: GE, Const: stream.Int(-3)}},
			Conj{{Term: Diff("a.ts", "b.ts"), Op: GE, Const: stream.Int(-5)}},
			true,
		},
	}
	for _, c := range cases {
		if got := Implies(c.a, c.b); got != c.want {
			t.Errorf("Implies(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestImpliesBothDirections(t *testing.T) {
	a := Conj{C("x", GE, stream.Int(3)), C("x", LE, stream.Int(3))}
	b := Conj{C("x", EQ, stream.Int(3))}
	if !Implies(a, b) || !Implies(b, a) {
		t.Error("x in [3,3] should be equivalent to x=3")
	}
	c := Conj{C("x", EQ, stream.Int(4))}
	if Implies(a, c) || Implies(c, a) {
		t.Error("different points must not imply each other")
	}
}

// genConj builds a random conjunction over attributes x and y with integer
// constants in [0,6) so properties can be verified by exhaustive
// evaluation over a small domain.
func genConj(r *rand.Rand) Conj {
	n := r.Intn(3)
	cj := make(Conj, 0, n)
	attrs := []string{"x", "y"}
	ops := []Op{EQ, NE, LT, LE, GT, GE}
	for i := 0; i < n; i++ {
		cj = append(cj, C(attrs[r.Intn(2)], ops[r.Intn(len(ops))], stream.Int(int64(r.Intn(6)))))
	}
	return cj
}

// evalDomain evaluates a conjunction on every point of the 6x6 domain.
func evalDomain(t *testing.T, cj Conj) [36]bool {
	t.Helper()
	var out [36]bool
	for x := int64(0); x < 6; x++ {
		for y := int64(0); y < 6; y++ {
			ok, err := cj.Eval(tup(t, x, y, ""))
			if err != nil {
				t.Fatalf("eval error: %v", err)
			}
			out[x*6+y] = ok
		}
	}
	return out
}

func TestImpliesSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := genConj(r), genConj(r)
		if !Implies(a, b) {
			continue
		}
		ea, eb := evalDomain(t, a), evalDomain(t, b)
		for p := range ea {
			if ea[p] && !eb[p] {
				t.Fatalf("Implies(%s, %s) answered true but point %d satisfies a only", a, b, p)
			}
		}
	}
}

func TestHullWeakeningProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := genConj(r), genConj(r)
		h := Hull(a, b)
		ea, eb, eh := evalDomain(t, a), evalDomain(t, b), evalDomain(t, h)
		for p := range ea {
			if (ea[p] || eb[p]) && !eh[p] {
				t.Fatalf("Hull(%s, %s) = %s rejects point %d accepted by an input", a, b, h, p)
			}
		}
	}
}

func TestHullImpliedByInputs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b := genConj(r), genConj(r)
		h := Hull(a, b)
		if a.Satisfiable() && !Implies(a, h) {
			t.Fatalf("a=%s does not imply Hull=%s", a, h)
		}
		if b.Satisfiable() && !Implies(b, h) {
			t.Fatalf("b=%s does not imply Hull=%s", b, h)
		}
	}
}

func TestSatisfiableSoundnessProperty(t *testing.T) {
	// If Satisfiable says no, no domain point may satisfy the conjunction.
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		cj := genConj(r)
		if cj.Satisfiable() {
			continue
		}
		e := evalDomain(t, cj)
		for p, ok := range e {
			if ok {
				t.Fatalf("unsatisfiable %s satisfied at point %d", cj, p)
			}
		}
	}
}

func TestDNFEvalOrSimplify(t *testing.T) {
	d := DNF{
		{C("x", GT, stream.Int(4))},
		{C("x", LT, stream.Int(2))},
	}
	ok, err := d.Eval(tup(t, 5, 0, ""))
	if err != nil || !ok {
		t.Fatalf("eval high = %v, %v", ok, err)
	}
	if ok, _ := d.Eval(tup(t, 3, 0, "")); ok {
		t.Error("x=3 matches neither disjunct")
	}
	if ok, _ := d.Eval(tup(t, 1, 0, "")); !ok {
		t.Error("x=1 should match")
	}

	// Simplify drops covered and unsatisfiable disjuncts.
	d2 := DNF{
		{C("x", GT, stream.Int(0))},
		{C("x", GT, stream.Int(5))},                            // covered by the first
		{C("x", GT, stream.Int(9)), C("x", LT, stream.Int(1))}, // unsat
	}
	s := d2.Simplify()
	if len(s) != 1 {
		t.Fatalf("Simplify kept %d disjuncts: %v", len(s), s)
	}
	// Duplicate disjuncts collapse to one.
	d3 := DNF{{C("x", EQ, stream.Int(1))}, {C("x", EQ, stream.Int(1))}}
	if got := len(d3.Simplify()); got != 1 {
		t.Errorf("duplicate disjuncts kept %d", got)
	}
}

func TestDNFSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		d := DNF{genConj(r), genConj(r), genConj(r)}
		s := d.Simplify()
		for x := int64(0); x < 6; x++ {
			for y := int64(0); y < 6; y++ {
				tp := tup(t, x, y, "")
				b1, _ := d.Eval(tp)
				b2, _ := s.Eval(tp)
				if b1 != b2 {
					t.Fatalf("Simplify changed semantics of %s at (%d,%d): %v->%v", d, x, y, b1, b2)
				}
			}
		}
	}
}

func TestDNFOrAndTrue(t *testing.T) {
	d := True()
	if !d.IsTrue() || !d.Satisfiable() {
		t.Error("True() should be true and satisfiable")
	}
	if (DNF{}).Satisfiable() {
		t.Error("empty DNF is FALSE")
	}
	union := DNF{{C("x", GT, stream.Int(3))}}.Or(DNF{{C("x", LE, stream.Int(3))}})
	// Both disjuncts survive (neither covers the other).
	if len(union) != 2 {
		t.Errorf("Or produced %d disjuncts", len(union))
	}
	anded := True().And(Conj{C("x", EQ, stream.Int(1))})
	if ok, _ := anded.Eval(tup(t, 1, 0, "")); !ok {
		t.Error("And result should accept x=1")
	}
	if ok, _ := anded.Eval(tup(t, 2, 0, "")); ok {
		t.Error("And result should reject x=2")
	}
}

func TestImpliesDNF(t *testing.T) {
	narrow := DNF{{C("x", EQ, stream.Int(1))}, {C("x", EQ, stream.Int(5))}}
	wide := DNF{{C("x", GE, stream.Int(0))}}
	if !ImpliesDNF(narrow, wide) {
		t.Error("narrow should imply wide")
	}
	if ImpliesDNF(wide, narrow) {
		t.Error("wide should not imply narrow")
	}
	// Unsatisfiable disjuncts on the left are skipped.
	withUnsat := DNF{{C("x", GT, stream.Int(5)), C("x", LT, stream.Int(1))}}
	if !ImpliesDNF(withUnsat, narrow) {
		t.Error("unsat lhs implies anything")
	}
}

func TestDNFEvalErrorDoesNotMaskMatch(t *testing.T) {
	// First disjunct references a missing attribute; the second matches.
	d := DNF{
		{C("missing", EQ, stream.Int(1))},
		{C("x", EQ, stream.Int(5))},
	}
	ok, err := d.Eval(tup(t, 5, 0, ""))
	if !ok || err != nil {
		t.Fatalf("match should win over disjunct error: %v, %v", ok, err)
	}
	// If nothing matches, the error surfaces.
	ok, err = d.Eval(tup(t, 4, 0, ""))
	if ok || err == nil {
		t.Fatalf("expected error surfaced, got %v, %v", ok, err)
	}
}

func TestAttrCmp(t *testing.T) {
	joined := stream.MustSchema("J",
		stream.Field{Name: "O.itemID", Kind: stream.KindInt},
		stream.Field{Name: "C.itemID", Kind: stream.KindInt},
	)
	tp := stream.MustTuple(joined, 0, stream.Int(4), stream.Int(4))
	eq := AttrCmp{Left: "O.itemID", Op: EQ, Right: "C.itemID"}
	ok, err := eq.Eval(tp)
	if err != nil || !ok {
		t.Fatalf("join eval = %v, %v", ok, err)
	}
	tp2 := stream.MustTuple(joined, 0, stream.Int(4), stream.Int(5))
	if ok, _ := eq.Eval(tp2); ok {
		t.Error("4 != 5")
	}
	if _, err := (AttrCmp{Left: "nope", Op: EQ, Right: "C.itemID"}).Eval(tp); err == nil {
		t.Error("missing attr should error")
	}
	// Canonicalisation makes A=B and B=A identical.
	r1 := AttrCmp{Left: "b", Op: LT, Right: "a"}.Canonical()
	r2 := AttrCmp{Left: "a", Op: GT, Right: "b"}.Canonical()
	if r1 != r2 {
		t.Errorf("canonical forms differ: %v vs %v", r1, r2)
	}
	sig := CanonicalAttrCmps([]AttrCmp{{Left: "b", Op: EQ, Right: "a"}, {Left: "c", Op: EQ, Right: "a"}})
	sig2 := CanonicalAttrCmps([]AttrCmp{{Left: "a", Op: EQ, Right: "c"}, {Left: "a", Op: EQ, Right: "b"}})
	if sig != sig2 {
		t.Errorf("signatures differ: %q vs %q", sig, sig2)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := AtLeast(2, false).Intersect(AtMost(5, true)) // [2,5)
	if iv.Empty() || !iv.Contains(2) || iv.Contains(5) || !iv.Contains(4.9) {
		t.Errorf("interval [2,5) wrong: %v", iv)
	}
	if iv.String() != "[2, 5)" {
		t.Errorf("String = %q", iv.String())
	}
	if !Universal().IsUniversal() {
		t.Error("universal")
	}
	if p, ok := PointI(3).IsPoint(); !ok || p != 3 {
		t.Error("point")
	}
	empty := AtLeast(5, true).Intersect(AtMost(5, false))
	if !empty.Empty() {
		t.Errorf("(5,5] should be empty: %v", empty)
	}
	if PointI(1).Width(0, 10) != 0 {
		t.Error("point width")
	}
	if AtLeast(2, false).Width(0, 10) != 8 {
		t.Error("clamped width")
	}
	if Universal().Width(0, 10) != 10 {
		t.Error("universal width = span")
	}
}

func TestIntervalContainsIntervalProperty(t *testing.T) {
	f := func(alo, ahi, blo, bhi int8, aLoOpen, aHiOpen, bLoOpen, bHiOpen bool) bool {
		a := Interval{HasLo: true, Lo: float64(alo), LoOpen: aLoOpen, HasHi: true, Hi: float64(ahi), HiOpen: aHiOpen}
		b := Interval{HasLo: true, Lo: float64(blo), LoOpen: bLoOpen, HasHi: true, Hi: float64(bhi), HiOpen: bHiOpen}
		if !a.ContainsInterval(b) {
			return true // only verify the positive claim
		}
		// Sample integer and half-integer points to validate containment.
		for x := -130.0; x <= 130; x += 0.5 {
			if b.Contains(x) && !a.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntervalHullProperty(t *testing.T) {
	f := func(alo, ahi, blo, bhi int8) bool {
		a := Interval{HasLo: true, Lo: float64(alo), HasHi: true, Hi: float64(ahi)}
		b := Interval{HasLo: true, Lo: float64(blo), HasHi: true, Hi: float64(bhi)}
		h := a.Hull(b)
		if a.Empty() || b.Empty() {
			return true // hull of empty inputs is unspecified beyond soundness
		}
		return h.ContainsInterval(a) && h.ContainsInterval(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestConjStringCanonical(t *testing.T) {
	a := Conj{C("x", GT, stream.Int(1)), C("y", LT, stream.Int(2))}
	b := Conj{C("y", LT, stream.Int(2)), C("x", GT, stream.Int(1))}
	if a.String() != b.String() {
		t.Errorf("canonical strings differ: %q vs %q", a.String(), b.String())
	}
}

func TestSummaryTerms(t *testing.T) {
	cj := Conj{
		C("x", GE, stream.Int(2)),
		C("y", EQ, stream.Int(1)),
		Constraint{Term: Diff("a.ts", "b.ts"), Op: LE, Const: stream.Int(5)},
		C("x", LT, stream.Int(8)),
	}
	s := Summarize(cj)
	terms := s.Terms()
	if len(terms) != 3 {
		t.Fatalf("want 3 terms, got %d", len(terms))
	}
	x := &terms[0]
	if x.Term != Attr("x") || len(x.Constraints) != 2 ||
		x.Constraints[0] != cj[0] || x.Constraints[1] != cj[3] {
		t.Errorf("x summary holds %v", x.Constraints)
	}
	if iv, ok := x.RangeInterval(); !ok || iv.String() != "[2, 8)" {
		t.Errorf("x interval = %v, %v", iv, ok)
	}
	if _, ok := terms[1].RangeInterval(); ok {
		t.Error("an equality is not a range comparison")
	}
	if terms[2].Term != Diff("a.ts", "b.ts") {
		t.Errorf("third term = %v", terms[2].Term)
	}
	if s.find(Attr("z")) != nil {
		t.Error("unconstrained term should have no summary")
	}
}
