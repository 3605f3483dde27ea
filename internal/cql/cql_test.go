package cql

import (
	"strings"
	"testing"

	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

// paperCatalog builds the auction schemas of Table 1 plus the R/S example
// of §4.
func paperCatalog() *stream.Registry {
	r := stream.NewRegistry()
	must := func(info *stream.Info) {
		if err := r.Register(info); err != nil {
			panic(err)
		}
	}
	must(&stream.Info{Schema: stream.MustSchema("OpenAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "sellerID", Kind: stream.KindInt},
		stream.Field{Name: "start_price", Kind: stream.KindFloat},
		stream.Field{Name: "timestamp", Kind: stream.KindTime},
	), Rate: 50})
	must(&stream.Info{Schema: stream.MustSchema("ClosedAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "buyerID", Kind: stream.KindInt},
		stream.Field{Name: "timestamp", Kind: stream.KindTime},
	), Rate: 30})
	must(&stream.Info{Schema: stream.MustSchema("R",
		stream.Field{Name: "A", Kind: stream.KindInt},
		stream.Field{Name: "B", Kind: stream.KindInt},
	), Rate: 10})
	must(&stream.Info{Schema: stream.MustSchema("S",
		stream.Field{Name: "B", Kind: stream.KindInt},
		stream.Field{Name: "C", Kind: stream.KindInt},
	), Rate: 10})
	return r
}

const q1Text = `SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`
const q2Text = `SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`
const q3Text = `SELECT O.*, C.buyerID, C.timestamp FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`

func TestParsePaperQ1(t *testing.T) {
	q, err := Parse(q1Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || !q.Select[0].Star || q.Select[0].Qualifier != "O" {
		t.Errorf("select = %v", q.Select)
	}
	if len(q.From) != 2 {
		t.Fatalf("from = %v", q.From)
	}
	if q.From[0].Stream != "OpenAuction" || q.From[0].Window != 3*stream.Hour || q.From[0].Alias != "O" {
		t.Errorf("from[0] = %+v", q.From[0])
	}
	if q.From[1].Window != stream.Now || q.From[1].Alias != "C" {
		t.Errorf("from[1] = %+v", q.From[1])
	}
	cmp, ok := q.Where.(*CmpExpr)
	if !ok || cmp.Op != predicate.EQ {
		t.Fatalf("where = %v", q.Where)
	}
}

func TestParseWindows(t *testing.T) {
	cases := map[string]stream.Duration{
		"S [Now]":              stream.Now,
		"S [Unbounded]":        stream.Unbounded,
		"S [Range 30 Minute]":  30 * stream.Minute,
		"S [Range 2 Day]":      2 * stream.Day,
		"S [Range 10 Second]":  10 * stream.Second,
		"S [range 5 hours]":    5 * stream.Hour, // case-insensitive, plural
		"S [RANGE 100 ms]":     100 * stream.Millisecond,
		"S":                    stream.Unbounded, // default
		"S [Range 15 minutes]": 15 * stream.Minute,
	}
	for text, want := range cases {
		q, err := Parse("SELECT * FROM " + text)
		if err != nil {
			t.Errorf("%s: %v", text, err)
			continue
		}
		if q.From[0].Window != want {
			t.Errorf("%s: window = %v, want %v", text, q.From[0].Window, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * WHERE x = 1",
		"SELECT * FROM S [Range x Hour]",
		"SELECT * FROM S [Range 3 Fortnight]",
		"SELECT * FROM S [Range -3 Hour]",
		"SELECT * FROM S [Maybe]",
		"SELECT * FROM S WHERE",
		"SELECT * FROM S WHERE x",
		"SELECT * FROM S WHERE x = ",
		"SELECT * FROM S WHERE NOT x = 1",
		"SELECT * FROM S WHERE (x = 1",
		"SELECT * FROM S trailing garbage !",
		"SELECT SUM(*) FROM S",
		"SELECT x AS FROM FROM S",
		"SELECT * FROM S WHERE 'a' = 'b' AND",
		"SELECT * FROM SELECT",
		"SELECT * FROM S GROUP x",
		"SELECT * FROM S WHERE x ! 1",
		"SELECT * FROM S WHERE s = 'unterminated",
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestParseLiteralsAndOperators(t *testing.T) {
	q := MustParse("SELECT * FROM S WHERE a = -5 AND b >= 2.5 AND c != 'x''y' AND d <> 3 AND e = TRUE")
	// Walk the AND chain counting comparisons.
	var count int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch ex := e.(type) {
		case *BinExpr:
			walk(ex.L)
			walk(ex.R)
		case *CmpExpr:
			count++
		}
	}
	walk(q.Where)
	if count != 5 {
		t.Errorf("comparison count = %d", count)
	}
	s := q.Where.String()
	if !strings.Contains(s, "-5") || !strings.Contains(s, "2.5") {
		t.Errorf("where string = %s", s)
	}
}

func TestParsePrecedenceOrAnd(t *testing.T) {
	q := MustParse("SELECT * FROM S WHERE a = 1 OR b = 2 AND c = 3")
	top, ok := q.Where.(*BinExpr)
	if !ok || top.Op != OpOr {
		t.Fatalf("top = %v", q.Where)
	}
	r, ok := top.R.(*BinExpr)
	if !ok || r.Op != OpAnd {
		t.Fatalf("AND should bind tighter: %v", q.Where)
	}
	// Parenthesised override.
	q2 := MustParse("SELECT * FROM S WHERE (a = 1 OR b = 2) AND c = 3")
	top2, ok := q2.Where.(*BinExpr)
	if !ok || top2.Op != OpAnd {
		t.Fatalf("parens should force AND at top: %v", q2.Where)
	}
}

func TestParseColumnDifference(t *testing.T) {
	q := MustParse("SELECT * FROM S WHERE a - b <= 5")
	cmp := q.Where.(*CmpExpr)
	if !cmp.Left.IsDiff || cmp.Left.Col.Name != "a" || cmp.Left.Col2.Name != "b" {
		t.Fatalf("diff operand = %+v", cmp.Left)
	}
	// A minus before a number is a negative literal, not a difference.
	q2 := MustParse("SELECT * FROM S WHERE a - b >= -3")
	cmp2 := q2.Where.(*CmpExpr)
	if !cmp2.Left.IsDiff {
		t.Error("lhs should be a difference")
	}
	if cmp2.Right.IsCol || cmp2.Right.Lit.AsInt() != -3 {
		t.Errorf("rhs = %+v", cmp2.Right)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	texts := []string{
		q1Text, q2Text, q3Text,
		"SELECT station, AVG(temp) AS avg_temp FROM Sensor [Range 30 Minute] GROUP BY station",
		"SELECT COUNT(*) FROM S [Now]",
	}
	for _, text := range texts {
		q1, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip unstable:\n%s\n%s", q1.String(), q2.String())
		}
	}
}

func TestAnalyzePaperExampleProfileParts(t *testing.T) {
	// Paper §4: SELECT R.A, S.C FROM R [Now], S [Now]
	//           WHERE R.B=S.B AND R.A>10
	// yields S = {R,S}, P = {R.A,R.B,S.B,S.C}, F = {R.A > 10}.
	cat := paperCatalog()
	b, err := AnalyzeString("SELECT R.A, S.C FROM R [Now], S [Now] WHERE R.B = S.B AND R.A > 10", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.From) != 2 || len(b.Joins) != 1 {
		t.Fatalf("from=%v joins=%v", b.From, b.Joins)
	}
	if got := b.Joins[0].Canonical().String(); got != "R.B = S.B" {
		t.Errorf("join = %q", got)
	}
	need := b.NeededAttrs()
	if got := strings.Join(need["R"], ","); got != "A,B" {
		t.Errorf("P(R) = %s", got)
	}
	if got := strings.Join(need["S"], ","); got != "B,C" {
		t.Errorf("P(S) = %s", got)
	}
	selR := b.Sel["R"]
	if len(selR) != 1 || selR[0].String() != "A > 10" {
		t.Errorf("F(R) = %s", selR)
	}
	if !b.Sel["S"].IsTrue() {
		t.Errorf("F(S) should be TRUE, got %s", b.Sel["S"])
	}
	if len(b.Residual) != 0 {
		t.Errorf("residual should be empty: %s", b.Residual)
	}
}

func TestAnalyzeStarExpansion(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString(q3Text, cat)
	if err != nil {
		t.Fatal(err)
	}
	// O.* expands to 4 attrs + buyerID + timestamp = 6 select columns.
	if len(b.SelectCols) != 6 {
		t.Fatalf("select cols = %v", b.SelectCols)
	}
	if b.OutSchema.Arity() != 6 {
		t.Fatalf("out schema = %v", b.OutSchema)
	}
	if !b.OutSchema.Has("OpenAuction.itemID") || !b.OutSchema.Has("ClosedAuction.buyerID") {
		t.Errorf("out schema fields = %v", b.OutSchema.AttrNames())
	}
}

func TestAnalyzeAliasCanonicalisation(t *testing.T) {
	cat := paperCatalog()
	a, err := AnalyzeString(q1Text, cat)
	if err != nil {
		t.Fatal(err)
	}
	differentAlias := strings.ReplaceAll(q1Text, " O,", " OA,")
	differentAlias = strings.ReplaceAll(differentAlias, "O.", "OA.")
	b, err := AnalyzeString(differentAlias, cat)
	if err != nil {
		t.Fatal(err)
	}
	if a.GroupSignature() != b.GroupSignature() {
		t.Errorf("signatures differ:\n%s\n%s", a.GroupSignature(), b.GroupSignature())
	}
	if a.Joins[0].Canonical() != b.Joins[0].Canonical() {
		t.Errorf("joins differ after canonicalisation")
	}
}

func TestAnalyzeSelfJoinKeepsAliases(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString("SELECT a.itemID FROM OpenAuction [Now] a, OpenAuction [Range 1 Hour] b WHERE a.itemID = b.itemID", cat)
	if err != nil {
		t.Fatal(err)
	}
	if b.From[0].Alias != "a" || b.From[1].Alias != "b" {
		t.Errorf("self-join aliases mangled: %v", b.From)
	}
}

func TestAnalyzeUnqualifiedResolution(t *testing.T) {
	cat := paperCatalog()
	// buyerID exists only in ClosedAuction.
	b, err := AnalyzeString("SELECT buyerID FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID", cat)
	if err != nil {
		t.Fatal(err)
	}
	if b.SelectCols[0].Qualifier != "ClosedAuction" {
		t.Errorf("resolved to %v", b.SelectCols[0])
	}
	// itemID is ambiguous.
	if _, err := AnalyzeString("SELECT itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID", cat); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cat := paperCatalog()
	bad := []string{
		"SELECT * FROM Nothing",
		"SELECT O.nope FROM OpenAuction [Now] O",
		"SELECT Z.itemID FROM OpenAuction [Now] O",
		"SELECT * FROM OpenAuction [Now] X, ClosedAuction [Now] X",
		"SELECT itemID, COUNT(*) FROM OpenAuction [Now]",          // plain col with agg, no GROUP BY
		"SELECT AVG(itemID) FROM OpenAuction [Now] GROUP BY nope", // bad group col
		"SELECT * FROM OpenAuction [Now] GROUP BY itemID",         // GROUP BY without agg
		"SELECT * , COUNT(*) FROM OpenAuction [Now]",              // star with agg
		"SELECT * FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID OR O.sellerID = C.buyerID", // disjunctive joins
		"SELECT * FROM OpenAuction [Now] WHERE 1 = 1",                                                                  // constant comparison
		"SELECT SUM(C.buyerID) FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.nope = C.itemID",
		// Refused here so that nothing below analysis has to: a plan the
		// SPE cannot build, predicates the compiler cannot prove error-free.
		"SELECT COUNT(*) FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID", // aggregate over join
		"SELECT itemID FROM OpenAuction [Now] WHERE itemID > 'five'",                                // int attribute vs string literal
		"SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID AND O.start_price - C.buyerID = 'x'",
	}
	for _, text := range bad {
		if _, err := AnalyzeString(text, cat); err == nil {
			t.Errorf("Analyze(%q) should fail", text)
		}
	}
}

func TestAnalyzeAggregate(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString("SELECT sellerID, COUNT(*), AVG(start_price) AS avgp FROM OpenAuction [Range 1 Hour] GROUP BY sellerID", cat)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsAggregate() || len(b.Aggs) != 2 {
		t.Fatalf("aggs = %v", b.Aggs)
	}
	if b.Aggs[0].Func != AggCount || !b.Aggs[0].Star {
		t.Errorf("agg0 = %v", b.Aggs[0])
	}
	if b.Aggs[1].OutName != "avgp" {
		t.Errorf("agg1 out name = %s", b.Aggs[1].OutName)
	}
	if b.OutSchema.Arity() != 3 {
		t.Errorf("out schema = %v", b.OutSchema)
	}
	if !b.OutSchema.Has("OpenAuction.sellerID") || !b.OutSchema.Has("avgp") {
		t.Errorf("out fields = %v", b.OutSchema.AttrNames())
	}
	// COUNT outputs int, AVG outputs float.
	if f, _ := b.OutSchema.FieldByName("COUNT(*)"); f.Kind != stream.KindInt {
		t.Errorf("COUNT kind = %v", f.Kind)
	}
	if f, _ := b.OutSchema.FieldByName("avgp"); f.Kind != stream.KindFloat {
		t.Errorf("AVG kind = %v", f.Kind)
	}
}

func TestAnalyzeResidualDisjunction(t *testing.T) {
	cat := paperCatalog()
	// Disjunction across two streams is not pushable.
	b, err := AnalyzeString("SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID AND (O.start_price > 10 OR C.buyerID = 7)", cat)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Sel["OpenAuction"].IsTrue() || !b.Sel["ClosedAuction"].IsTrue() {
		t.Errorf("selections should stay TRUE when disjunction is cross-stream")
	}
	if len(b.Residual) != 2 {
		t.Fatalf("residual = %s", b.Residual)
	}
	if len(b.Joins) != 1 {
		t.Errorf("join should still be extracted: %v", b.Joins)
	}
}

func TestAnalyzeSingleStreamDisjunctionIsPushable(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100 OR start_price < 1", cat)
	if err != nil {
		t.Fatal(err)
	}
	sel := b.Sel["OpenAuction"]
	if len(sel) != 2 {
		t.Fatalf("sel = %s", sel)
	}
	if len(b.Residual) != 0 {
		t.Errorf("residual should be empty")
	}
}

func TestAnalyzeSameStreamColCmpIsPushable(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString("SELECT A FROM R [Now] WHERE A = B", cat)
	if err != nil {
		t.Fatal(err)
	}
	sel := b.Sel["R"]
	if len(sel) != 1 || len(sel[0]) != 1 {
		t.Fatalf("sel = %s", sel)
	}
	if sel[0][0].Term.String() != "A-B" {
		t.Errorf("term = %s", sel[0][0].Term)
	}
}

func TestAnalyzeCrossStreamDiffGoesResidual(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString("SELECT O.itemID FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID AND O.timestamp - C.timestamp >= -10800000", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Residual) != 1 || len(b.Residual[0]) != 1 {
		t.Fatalf("residual = %s", b.Residual)
	}
	if b.Residual[0][0].Term.String() != "OpenAuction.timestamp-ClosedAuction.timestamp" {
		t.Errorf("term = %s", b.Residual[0][0].Term)
	}
}

func TestGroupSignatureDiffers(t *testing.T) {
	cat := paperCatalog()
	b1, err1 := AnalyzeString(q1Text, cat)
	b2, err2 := AnalyzeString(q2Text, cat)
	b3, err3 := AnalyzeString("SELECT A FROM R [Now]", cat)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if b1.GroupSignature() != b2.GroupSignature() {
		t.Error("q1 and q2 share FROM+join and must share a signature")
	}
	if b1.GroupSignature() == b3.GroupSignature() {
		t.Error("different FROM must produce different signatures")
	}
	agg1, err4 := AnalyzeString("SELECT sellerID, COUNT(*) FROM OpenAuction [Range 1 Hour] GROUP BY sellerID", cat)
	agg2, err5 := AnalyzeString("SELECT sellerID, SUM(start_price) FROM OpenAuction [Range 1 Hour] GROUP BY sellerID", cat)
	if err4 != nil || err5 != nil {
		t.Fatal(err4, err5)
	}
	if agg1.GroupSignature() == agg2.GroupSignature() {
		t.Error("different aggregates must produce different signatures")
	}
}

func TestAnalyzeWindowsExposed(t *testing.T) {
	cat := paperCatalog()
	b, _ := AnalyzeString(q1Text, cat)
	if b.Windows["OpenAuction"] != 3*stream.Hour || b.Windows["ClosedAuction"] != stream.Now {
		t.Errorf("windows = %v", b.Windows)
	}
}

func TestAnalyzeOutputNamesWithAS(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString("SELECT O.itemID AS id FROM OpenAuction [Now] O", cat)
	if err != nil {
		t.Fatal(err)
	}
	if !b.OutSchema.Has("id") {
		t.Errorf("out fields = %v", b.OutSchema.AttrNames())
	}
}
