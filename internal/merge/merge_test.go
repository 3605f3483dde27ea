package merge

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cosmos/internal/containment"
	"cosmos/internal/cql"
	"cosmos/internal/stream"
)

func catalog() *stream.Registry {
	r := stream.NewRegistry()
	infos := []*stream.Info{
		{Schema: stream.MustSchema("OpenAuction",
			stream.Field{Name: "itemID", Kind: stream.KindInt},
			stream.Field{Name: "sellerID", Kind: stream.KindInt},
			stream.Field{Name: "start_price", Kind: stream.KindFloat},
			stream.Field{Name: "timestamp", Kind: stream.KindTime},
		), Rate: 50, Stats: map[string]stream.AttrStats{
			"itemID":      {Min: 0, Max: 10000, Distinct: 10000},
			"sellerID":    {Min: 0, Max: 500, Distinct: 500},
			"start_price": {Min: 0, Max: 1000, Distinct: 1000},
		}},
		{Schema: stream.MustSchema("ClosedAuction",
			stream.Field{Name: "itemID", Kind: stream.KindInt},
			stream.Field{Name: "buyerID", Kind: stream.KindInt},
			stream.Field{Name: "timestamp", Kind: stream.KindTime},
		), Rate: 30, Stats: map[string]stream.AttrStats{
			"itemID":  {Min: 0, Max: 10000, Distinct: 10000},
			"buyerID": {Min: 0, Max: 800, Distinct: 800},
		}},
		{Schema: stream.MustSchema("Sensor",
			stream.Field{Name: "station", Kind: stream.KindInt},
			stream.Field{Name: "temp", Kind: stream.KindFloat},
		), Rate: 10, Stats: map[string]stream.AttrStats{
			"station": {Min: 0, Max: 63, Distinct: 63},
			"temp":    {Min: -20, Max: 45, Distinct: 650},
		}},
	}
	for _, in := range infos {
		if err := r.Register(in); err != nil {
			panic(err)
		}
	}
	return r
}

func bind(t *testing.T, text string) *cql.Bound {
	t.Helper()
	b, err := cql.AnalyzeString(text, catalog())
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return b
}

const (
	q1Text = `SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`
	q2Text = `SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`
)

// TestPaperMergeQ1Q2 reproduces the paper's running example: merging q1
// and q2 yields a representative equivalent to q3 of Table 1.
func TestPaperMergeQ1Q2(t *testing.T) {
	q1, q2 := bind(t, q1Text), bind(t, q2Text)
	rep, err := Queries(q1, q2, ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: O takes max(3h,5h)=5h, C stays Now.
	if rep.Windows["OpenAuction"] != 5*stream.Hour {
		t.Errorf("O window = %v", rep.Windows["OpenAuction"])
	}
	if rep.Windows["ClosedAuction"] != stream.Now {
		t.Errorf("C window = %v", rep.Windows["ClosedAuction"])
	}
	// Projection: O.* plus C.buyerID, C.timestamp — exactly q3's select
	// list from Table 1.
	want := []string{
		"ClosedAuction.buyerID", "ClosedAuction.timestamp",
		"OpenAuction.itemID", "OpenAuction.sellerID", "OpenAuction.start_price", "OpenAuction.timestamp",
	}
	var got []string
	for _, c := range rep.SelectCols {
		got = append(got, c.String())
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("projection = %v, want %v", got, want)
	}
	// Containment: both members contained in the representative.
	if !containment.Contains(q1, rep) {
		t.Errorf("q1 not contained in rep: %v", containment.Explain(q1, rep))
	}
	if !containment.Contains(q2, rep) {
		t.Errorf("q2 not contained in rep: %v", containment.Explain(q2, rep))
	}
	// The representative exposes the OpenAuction input timestamp for
	// re-tightening; the [Now]-windowed ClosedAuction needs no hidden
	// column (its timestamp equals the result timestamp).
	if !rep.OutSchema.Has(cql.InputTsAttr("OpenAuction")) {
		t.Errorf("rep lacks OpenAuction.__ts: %v", rep.OutSchema.AttrNames())
	}
	if rep.OutSchema.Has(cql.InputTsAttr("ClosedAuction")) {
		t.Errorf("rep carries a redundant ClosedAuction.__ts: %v", rep.OutSchema.AttrNames())
	}
}

// TestSingleInputRepresentativeKeepsLayoutOrder: a single-input
// representative lists its columns in the source's layout order, not by
// name. Four selections whose lists grow by one Load00 column each merge
// to the whole stream in its own order, and a filter attribute a member
// needs joins the list at its layout position.
func TestSingleInputRepresentativeKeepsLayoutOrder(t *testing.T) {
	reg := stream.NewRegistry()
	if err := reg.Register(&stream.Info{Schema: stream.MustSchema("Load00",
		stream.Field{Name: "seq", Kind: stream.KindInt},
		stream.Field{Name: "pubns", Kind: stream.KindInt},
		stream.Field{Name: "v0", Kind: stream.KindFloat},
		stream.Field{Name: "v1", Kind: stream.KindFloat},
		stream.Field{Name: "v2", Kind: stream.KindFloat},
	), Rate: 1000}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		queries []string
		want    string
	}{
		{[]string{
			"SELECT seq, pubns FROM Load00 [Now]",
			"SELECT seq, pubns, v0 FROM Load00 [Now]",
			"SELECT seq, pubns, v0, v1 FROM Load00 [Now]",
			"SELECT seq, pubns, v0, v1, v2 FROM Load00 [Now]",
		}, "Load00.seq,Load00.pubns,Load00.v0,Load00.v1,Load00.v2"},
		{[]string{
			"SELECT v2, seq FROM Load00 [Now]",
			"SELECT pubns FROM Load00 [Now] WHERE v1 > 5",
		}, "Load00.seq,Load00.pubns,Load00.v1,Load00.v2"},
	} {
		var rep *cql.Bound
		for _, text := range tc.queries {
			q, err := cql.AnalyzeString(text, reg)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if rep == nil {
				rep = q
			} else if rep, err = Queries(rep, q, ExactUnion); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for _, c := range rep.SelectCols {
			got = append(got, c.String())
		}
		if strings.Join(got, ",") != tc.want {
			t.Errorf("%v: representative selects %v, want %s", tc.queries, got, tc.want)
		}
	}
}

func TestMemberProfileReTightensWindow(t *testing.T) {
	q1, q2 := bind(t, q1Text), bind(t, q2Text)
	rep, err := Queries(q1, q2, ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := BuildMemberProfile(q1, rep, "rep-result")
	if err != nil {
		t.Fatal(err)
	}
	// q1's O window (3h) is narrower than the rep's (5h): expect a
	// timestamp-difference constraint mentioning the hidden __ts attrs.
	f := p1.FilterFor("rep-result")
	if f.IsTrue() {
		t.Fatalf("p1 filter should re-tighten: %s", p1)
	}
	fs := f.String()
	// The ClosedAuction side is [Now]-windowed: its timestamp is the
	// result timestamp, addressed by the intrinsic __ts term.
	if !strings.Contains(fs, "__ts-OpenAuction.__ts") {
		t.Errorf("p1 filter = %s", fs)
	}
	// 3 hours in milliseconds.
	if !strings.Contains(fs, "<= 10800000") {
		t.Errorf("p1 window bound wrong: %s", fs)
	}

	// q2's windows equal the rep's: no re-tightening needed.
	p2, err := BuildMemberProfile(q2, rep, "rep-result")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.FilterFor("rep-result").IsTrue() {
		t.Errorf("p2 filter should be TRUE: %s", p2)
	}
	// p2 projects exactly q2's four columns.
	if len(p2.AttrsFor("rep-result")) != 4 {
		t.Errorf("p2 attrs = %v", p2.AttrsFor("rep-result"))
	}
}

func TestMemberProfileReTightensSelection(t *testing.T) {
	a := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100")
	b := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 10")
	rep, err := Queries(a, b, ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	// The rep must project start_price so members can re-filter.
	if !rep.OutSchema.Has("OpenAuction.start_price") {
		t.Fatalf("rep projection lacks filter attr: %v", rep.OutSchema.AttrNames())
	}
	pa, err := BuildMemberProfile(a, rep, "r")
	if err != nil {
		t.Fatal(err)
	}
	fs := pa.FilterFor("r").String()
	if !strings.Contains(fs, "OpenAuction.start_price > 100") {
		t.Errorf("member filter = %s", fs)
	}
	// Evaluate the member profile against result tuples, compiled the
	// way the user proxy compiles it.
	rs := rep.OutSchema.Rename("r")
	cs, err := pa.CompileFor(rs)
	if err != nil {
		t.Fatal(err)
	}
	tp := stream.MustTuple(rs, 0, stream.Int(1), stream.Float(50))
	if cs.Covers(tp.Values, tp.Ts) {
		t.Error("price 50 must not reach member a")
	}
	tp2 := stream.MustTuple(rs, 0, stream.Int(1), stream.Float(500))
	if !cs.Covers(tp2.Values, tp2.Ts) {
		t.Error("price 500 must reach member a")
	}
}

func TestMergeModesUnionVsHull(t *testing.T) {
	a := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 900")
	b := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE start_price < 100")
	union, err := Queries(a, b, ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	hull, err := Queries(a, b, ConvexHull)
	if err != nil {
		t.Fatal(err)
	}
	selU := union.Sel["OpenAuction"]
	selH := hull.Sel["OpenAuction"]
	if len(selU) != 2 {
		t.Errorf("union sel = %s", selU)
	}
	// Hull of (>900) and (<100) drops to TRUE (no shared bounds).
	if !selH.IsTrue() && len(selH) != 1 {
		t.Errorf("hull sel = %s", selH)
	}
	// Both contain the members.
	for _, rep := range []*cql.Bound{union, hull} {
		if !containment.Contains(a, rep) || !containment.Contains(b, rep) {
			t.Errorf("rep does not contain members")
		}
	}
}

func TestMergeIncompatibleSignatures(t *testing.T) {
	a := bind(t, "SELECT itemID FROM OpenAuction [Now]")
	b := bind(t, "SELECT station FROM Sensor [Now]")
	if _, err := Queries(a, b, ExactUnion); err == nil {
		t.Error("different streams must not merge")
	}
}

func TestMergeAggregates(t *testing.T) {
	a := bind(t, "SELECT station, AVG(temp) FROM Sensor [Range 30 Minute] GROUP BY station")
	b := bind(t, "SELECT station, AVG(temp) FROM Sensor [Range 30 Minute] GROUP BY station")
	rep, err := Queries(a, b, ExactUnion)
	if err != nil {
		t.Fatalf("identical aggregates should merge: %v", err)
	}
	if !containment.Contains(a, rep) {
		t.Error("member not contained")
	}
	// Different windows cannot merge (Theorem 2).
	c := bind(t, "SELECT station, AVG(temp) FROM Sensor [Range 60 Minute] GROUP BY station")
	if _, err := Queries(a, c, ExactUnion); err == nil {
		t.Error("different aggregate windows must not merge")
	}
	// Different selections cannot merge.
	d := bind(t, "SELECT station, AVG(temp) FROM Sensor [Range 30 Minute] WHERE temp > 0 GROUP BY station")
	if _, err := Queries(a, d, ExactUnion); err == nil {
		t.Error("different aggregate selections must not merge")
	}
}

func TestAggregateMemberProfile(t *testing.T) {
	a := bind(t, "SELECT station, AVG(temp) FROM Sensor [Range 30 Minute] GROUP BY station")
	b := bind(t, "SELECT station, AVG(temp), COUNT(*) FROM Sensor [Range 30 Minute] GROUP BY station")
	// Same signature requires same agg set; a and b differ → no merge.
	if _, err := Queries(a, b, ExactUnion); err == nil {
		t.Error("different agg sets must not merge")
	}
	rep, err := Queries(a, a.Clone(), ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildMemberProfile(a, rep, "agg-result")
	if err != nil {
		t.Fatal(err)
	}
	if !p.FilterFor("agg-result").IsTrue() {
		t.Error("aggregate member filter should be TRUE")
	}
	attrs := p.AttrsFor("agg-result")
	if strings.Join(attrs, ",") != "AVG(Sensor.temp),Sensor.station" {
		t.Errorf("attrs = %v", attrs)
	}
}

func TestOptimizerGroupsIdenticalQueries(t *testing.T) {
	o := NewOptimizer(Options{Mode: ExactUnion})
	q := "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 500"
	var lastGroup *Group
	for i := 0; i < 5; i++ {
		p, err := o.Add(fmt.Sprintf("q%d", i), bind(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !p.Created {
			t.Error("first query should open a group")
		}
		if i > 0 {
			if p.Created {
				t.Errorf("query %d should join the existing group", i)
			}
			if p.Benefit <= 0 {
				t.Errorf("identical query benefit = %f", p.Benefit)
			}
		}
		lastGroup = p.Group
	}
	if len(lastGroup.Members) != 5 {
		t.Errorf("members = %d", len(lastGroup.Members))
	}
	st := o.Stats()
	if st.Queries != 5 || st.Groups != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.GroupingRatio() != 0.2 {
		t.Errorf("grouping ratio = %f", st.GroupingRatio())
	}
	// Five identical queries delivered once. Members ship (itemID, ts) +
	// framing = 32 bytes; the representative additionally carries
	// start_price for re-tightening (40 bytes), so the saving is
	// 1 − 40/(5·32) = 0.75.
	if r := st.RateBenefitRatio(); r < 0.74 || r > 0.76 {
		t.Errorf("rate benefit ratio = %f", r)
	}
}

func TestOptimizerSeparatesDisjointQueries(t *testing.T) {
	o := NewOptimizer(Options{Mode: ExactUnion})
	if _, err := o.Add("a", bind(t, "SELECT itemID FROM OpenAuction [Now]")); err != nil {
		t.Fatal(err)
	}
	p, err := o.Add("b", bind(t, "SELECT station FROM Sensor [Now]"))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Created {
		t.Error("different signature should open a new group")
	}
	st := o.Stats()
	if st.Groups != 2 {
		t.Errorf("groups = %d", st.Groups)
	}
}

func TestOptimizerRemove(t *testing.T) {
	o := NewOptimizer(Options{Mode: ExactUnion})
	qa := "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 500"
	qb := "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100"
	if _, err := o.Add("a", bind(t, qa)); err != nil {
		t.Fatal(err)
	}
	pb, err := o.Add("b", bind(t, qb))
	if err != nil {
		t.Fatal(err)
	}
	if pb.Created {
		t.Fatal("b should merge with a")
	}
	g, ok := o.Remove("b")
	if !ok || g == nil {
		t.Fatalf("remove = %v, %v", g, ok)
	}
	// Representative shrinks back to a's own predicate.
	fs := g.Rep.Sel["OpenAuction"].String()
	if !strings.Contains(fs, "> 500") || strings.Contains(fs, "> 100") {
		t.Errorf("rebuilt rep sel = %s", fs)
	}
	// Removing the last member drops the group.
	g2, ok := o.Remove("a")
	if !ok || g2 != nil {
		t.Errorf("final remove = %v, %v", g2, ok)
	}
	if st := o.Stats(); st.Queries != 0 || st.Groups != 0 {
		t.Errorf("stats after removes = %+v", st)
	}
	if _, ok := o.Remove("nope"); ok {
		t.Error("removing unknown tag should report false")
	}
}

func TestOptimizerMinBenefit(t *testing.T) {
	// With a huge MinBenefit nothing ever merges.
	o := NewOptimizer(Options{Mode: ExactUnion, MinBenefit: 1e12})
	o.Add("a", bind(t, "SELECT itemID FROM OpenAuction [Now]"))
	p, _ := o.Add("b", bind(t, "SELECT itemID FROM OpenAuction [Now]"))
	if !p.Created {
		t.Error("MinBenefit should prevent merging")
	}
}

func TestOptimizerMaxCandidates(t *testing.T) {
	o := NewOptimizer(Options{Mode: ExactUnion, MaxCandidates: 1})
	// Three disjoint-ish selections on the same stream open groups; with
	// MaxCandidates=1 only the most recent group is considered.
	o.Add("a", bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE sellerID = 1"))
	o.Add("b", bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE sellerID = 2"))
	// Identical to "a" but the candidate scan only sees b's group; the
	// merge with b's group still succeeds (union mode) if beneficial,
	// otherwise a new group opens. Either way, no panic and stats are
	// consistent.
	o.Add("c", bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE sellerID = 1"))
	st := o.Stats()
	if st.Queries != 3 {
		t.Errorf("queries = %d", st.Queries)
	}
}

func TestOptimizerDuplicateTag(t *testing.T) {
	o := NewOptimizer(Options{})
	if _, err := o.Add("x", bind(t, "SELECT itemID FROM OpenAuction [Now]")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Add("x", bind(t, "SELECT itemID FROM OpenAuction [Now]")); err == nil {
		t.Error("duplicate tag should error")
	}
}

// TestMergeContainmentProperty: representatives contain their members for
// randomly generated single-stream queries, in both modes.
func TestMergeContainmentProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	windows := []string{"[Now]", "[Range 10 Minute]", "[Range 1 Hour]", "[Range 5 Hour]"}
	genQuery := func() string {
		w := windows[r.Intn(len(windows))]
		lo := r.Intn(900)
		hi := lo + 1 + r.Intn(1000-lo)
		return fmt.Sprintf(
			"SELECT itemID FROM OpenAuction %s WHERE start_price >= %d AND start_price <= %d", w, lo, hi)
	}
	for _, mode := range []Mode{ExactUnion, ConvexHull} {
		for i := 0; i < 200; i++ {
			a, b := bind(t, genQuery()), bind(t, genQuery())
			rep, err := Queries(a, b, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !containment.Contains(a, rep) || !containment.Contains(b, rep) {
				t.Fatalf("mode %v: rep %s does not contain members %s / %s",
					mode, rep.SynthesizeCQL(), a.Raw, b.Raw)
			}
		}
	}
}

// TestMergeAssociativityOfAttrs: merging q1,q2 then q3 produces a rep
// whose projection covers every member's filter attrs, regardless of
// order.
func TestMergeAttrAccumulation(t *testing.T) {
	a := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100")
	b := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE sellerID = 3")
	c := bind(t, "SELECT timestamp FROM OpenAuction [Now]")
	rep12, err := Queries(a, b, ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Queries(rep12, c, ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"OpenAuction.start_price", "OpenAuction.sellerID", "OpenAuction.itemID", "OpenAuction.timestamp"} {
		if !rep.OutSchema.Has(attr) {
			t.Errorf("rep lacks %s: %v", attr, rep.OutSchema.AttrNames())
		}
	}
	for _, m := range []*cql.Bound{a, b, c} {
		if _, err := BuildMemberProfile(m, rep, "r"); err != nil {
			t.Errorf("member profile: %v", err)
		}
	}
}

func TestSynthesizeCQLRoundTrip(t *testing.T) {
	q1, q2 := bind(t, q1Text), bind(t, q2Text)
	rep, err := Queries(q1, q2, ExactUnion)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.SynthesizeCQL()
	// The synthesized representative (modulo hidden __ts columns, which
	// are added by IncludeInputTs at execution time) must reparse.
	if _, err := cql.AnalyzeString(text, catalog()); err != nil {
		t.Errorf("synthesized CQL does not reparse: %v\n%s", err, text)
	}
}

// TestContainedJoinsKeepRep: a join whose representative would be
// equivalent to the standing one, in the same layout, keeps the standing
// one, the same pointer. Of the 15 joins of fanout_tcp's 16 set-up
// selections (four column lists, each widening the last, then three
// repeats of the cycle) only the three widenings move it.
func TestContainedJoinsKeepRep(t *testing.T) {
	r := stream.NewRegistry()
	if err := r.Register(&stream.Info{
		Schema: stream.MustSchema("Load00",
			stream.Field{Name: "seq", Kind: stream.KindInt},
			stream.Field{Name: "pubns", Kind: stream.KindInt},
			stream.Field{Name: "v0", Kind: stream.KindFloat},
			stream.Field{Name: "v1", Kind: stream.KindFloat},
			stream.Field{Name: "v2", Kind: stream.KindFloat},
		),
		Rate: 2000,
		Stats: map[string]stream.AttrStats{
			"seq":   {Min: 0, Max: 1e12, Distinct: 1e9},
			"pubns": {Min: 0, Max: 1e15, Distinct: 1e9},
			"v0":    {Min: 0, Max: 100, Distinct: 1000},
			"v1":    {Min: 0, Max: 100, Distinct: 1000},
			"v2":    {Min: 0, Max: 100, Distinct: 1000},
		},
	}); err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer(Options{Mode: ExactUnion, MaxCandidates: 64})
	lists := []string{"seq, pubns", "seq, pubns, v0", "seq, pubns, v0, v1", "seq, pubns, v0, v1, v2"}
	var g *Group
	joins, kept := 0, 0
	for i := range 16 {
		q, err := cql.AnalyzeString(fmt.Sprintf("SELECT %s FROM Load00 [Now]", lists[i%4]), r)
		if err != nil {
			t.Fatal(err)
		}
		var before *cql.Bound
		if g != nil {
			before = g.Rep
		}
		p, err := o.Add(fmt.Sprintf("q%d", i), q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			g = p.Group
			continue
		}
		if p.Group != g {
			t.Fatalf("query %d opened a group of its own", i)
		}
		joins++
		if g.Rep == before {
			kept++
		}
	}
	if joins != 15 || kept != 12 {
		t.Errorf("%d of %d joins kept the representative, want 12 of 15", kept, joins)
	}
}

// TestRemoveKeepsEquivalentRep: a leave whose survivors rebuild an
// equivalent representative in the same layout keeps the standing one,
// the same pointer, also when one survivor is left; a leave that narrows
// it moves it.
func TestRemoveKeepsEquivalentRep(t *testing.T) {
	o := NewOptimizer(Options{Mode: ExactUnion})
	const sel = "SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > %d"
	for i, th := range []int{100, 200, 300, 100} {
		if _, err := o.Add(fmt.Sprintf("q%d", i), bind(t, fmt.Sprintf(sel, th))); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := o.GroupOf("q0")
	if len(g.Members) != 4 {
		t.Fatalf("%d members, want the four in one group", len(g.Members))
	}
	rep := g.Rep
	for _, tag := range []string{"q2", "q1", "q0"} {
		if got, _ := o.Remove(tag); got != g || g.Rep != rep {
			t.Fatalf("removing %s moved the representative; the survivors' is equivalent", tag)
		}
	}
	if len(g.Members) != 1 || !containment.Equivalent(g.Rep, g.Members[0].Query) {
		t.Fatal("the kept representative is not equivalent to its survivor")
	}
	if _, err := o.Add("q4", bind(t, fmt.Sprintf(sel, 50))); err != nil {
		t.Fatal(err)
	}
	if g.Rep == rep {
		t.Fatal("a widening join kept the representative")
	}
	widened := g.Rep
	if o.Remove("q4"); g.Rep == widened {
		t.Error("a narrowing leave kept the representative")
	}
}
