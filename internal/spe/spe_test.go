package spe

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/merge"
	"cosmos/internal/profile"
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
		), Rate: 50},
		{Schema: stream.MustSchema("ClosedAuction",
			stream.Field{Name: "itemID", Kind: stream.KindInt},
			stream.Field{Name: "buyerID", Kind: stream.KindInt},
			stream.Field{Name: "timestamp", Kind: stream.KindTime},
		), Rate: 30},
		{Schema: stream.MustSchema("Sensor",
			stream.Field{Name: "station", Kind: stream.KindInt},
			stream.Field{Name: "temp", Kind: stream.KindFloat},
		), Rate: 10},
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

func openTuple(ts stream.Timestamp, item, seller int64, price float64) stream.Tuple {
	sch, _ := catalog().Schema("OpenAuction")
	return stream.MustTuple(sch, ts, stream.Int(item), stream.Int(seller),
		stream.Float(price), stream.Time(ts))
}

func closedTuple(ts stream.Timestamp, item, buyer int64) stream.Tuple {
	sch, _ := catalog().Schema("ClosedAuction")
	return stream.MustTuple(sch, ts, stream.Int(item), stream.Int(buyer), stream.Time(ts))
}

func sensorTuple(ts stream.Timestamp, station int64, temp float64) stream.Tuple {
	sch, _ := catalog().Schema("Sensor")
	return stream.MustTuple(sch, ts, stream.Int(station), stream.Float(temp))
}

func TestSelectProjectSingleStream(t *testing.T) {
	b := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100")
	p, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Push(openTuple(1, 7, 1, 500))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Schema.Stream != "res" || out[0].MustGet("OpenAuction.itemID").AsInt() != 7 {
		t.Errorf("result = %v", out[0])
	}
	out, _ = p.Push(openTuple(2, 8, 1, 50))
	if len(out) != 0 {
		t.Error("filtered tuple emitted")
	}
	// Tuples of foreign streams are ignored.
	out, err = p.Push(closedTuple(3, 7, 2))
	if err != nil || len(out) != 0 {
		t.Errorf("foreign tuple: %v, %v", out, err)
	}
}

func TestWindowJoinLemma1Boundaries(t *testing.T) {
	// Paper q1: auctions that closed within three hours of opening.
	b := bind(t, "SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID")
	p, err := Compile("q1", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	h := stream.Timestamp(stream.Hour)
	if _, err := p.Push(openTuple(0, 1, 1, 10)); err != nil {
		t.Fatal(err)
	}
	// Close 2h later: joins.
	out, _ := p.Push(closedTuple(2*h, 1, 9))
	if len(out) != 1 {
		t.Fatalf("2h close: %v", out)
	}
	// Another open; close exactly at the 3h boundary from the first open
	// must still join the first open (boundary inclusive).
	if _, err := p.Push(openTuple(1*h, 2, 1, 10)); err != nil {
		t.Fatal(err)
	}
	out, _ = p.Push(closedTuple(3*h, 1, 9))
	if len(out) != 1 {
		t.Fatalf("3h boundary close: %v", out)
	}
	// 3h+1ms: the first open expired.
	out, _ = p.Push(closedTuple(3*h+1, 1, 9))
	if len(out) != 0 {
		t.Fatalf("expired open still joined: %v", out)
	}
	// Item 2 opened at 1h still joins at 3h+1.
	out, _ = p.Push(closedTuple(3*h+1, 2, 9))
	if len(out) != 1 {
		t.Fatalf("item 2: %v", out)
	}
}

func TestJoinPredicateMismatch(t *testing.T) {
	b := bind(t, "SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID")
	p, _ := Compile("q", b, "res")
	p.Push(openTuple(0, 1, 1, 10))
	out, _ := p.Push(closedTuple(1, 2, 9)) // different item
	if len(out) != 0 {
		t.Errorf("mismatched join emitted: %v", out)
	}
}

func TestJoinResultSchemaAndTimestamp(t *testing.T) {
	b := bind(t, "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID")
	p, _ := Compile("q", b, "res")
	p.Push(openTuple(100, 1, 1, 10))
	out, _ := p.Push(closedTuple(200, 1, 42))
	if len(out) != 1 {
		t.Fatal("no join")
	}
	r := out[0]
	if r.Ts != 200 {
		t.Errorf("result ts = %d, want max input ts", r.Ts)
	}
	if r.MustGet("ClosedAuction.buyerID").AsInt() != 42 {
		t.Errorf("result = %v", r)
	}
}

func TestResidualPredicateApplied(t *testing.T) {
	b := bind(t, `SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C
		WHERE O.itemID = C.itemID AND (O.start_price > 100 OR C.buyerID = 7)`)
	p, _ := Compile("q", b, "res")
	p.Push(openTuple(0, 1, 1, 50)) // cheap
	out, _ := p.Push(closedTuple(1, 1, 7))
	if len(out) != 1 {
		t.Fatalf("buyer 7 disjunct should pass: %v", out)
	}
	out, _ = p.Push(closedTuple(2, 1, 8))
	if len(out) != 0 {
		t.Errorf("neither disjunct holds: %v", out)
	}
}

func TestSelfJoin(t *testing.T) {
	b := bind(t, `SELECT a.itemID FROM OpenAuction [Range 1 Hour] a, OpenAuction [Range 1 Hour] b
		WHERE a.itemID = b.itemID AND a.sellerID - b.sellerID >= 1`)
	p, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	p.Push(openTuple(0, 1, 5, 10))
	out, err := p.Push(openTuple(1, 1, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	// The new tuple is pushed into both aliases; combination (a=old
	// seller 5, b=new seller 3) satisfies 5-3 >= 1; the mirror does not.
	// The self-pairing of the new tuple with itself (5-5) also fails.
	if len(out) != 1 {
		t.Fatalf("self join results = %v", out)
	}
}

func TestAggregateCountAvgWindow(t *testing.T) {
	b := bind(t, "SELECT station, COUNT(*), AVG(temp) FROM Sensor [Range 10 Second] GROUP BY station")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Timestamp(stream.Second)
	out, _ := p.Push(sensorTuple(0, 1, 10))
	if n := out[0].MustGet("COUNT(*)").AsInt(); n != 1 {
		t.Errorf("count = %d", n)
	}
	out, _ = p.Push(sensorTuple(5*s, 1, 20))
	if n := out[0].MustGet("COUNT(*)").AsInt(); n != 2 {
		t.Errorf("count = %d", n)
	}
	if avg := out[0].MustGet("AVG(Sensor.temp)").AsFloat(); avg != 15 {
		t.Errorf("avg = %f", avg)
	}
	// Different station: separate group.
	out, _ = p.Push(sensorTuple(6*s, 2, 99))
	if n := out[0].MustGet("COUNT(*)").AsInt(); n != 1 {
		t.Errorf("station 2 count = %d", n)
	}
	// After 11s the first tuple left the window.
	out, _ = p.Push(sensorTuple(11*s, 1, 30))
	if n := out[0].MustGet("COUNT(*)").AsInt(); n != 2 {
		t.Errorf("count after eviction = %d", n)
	}
	if avg := out[0].MustGet("AVG(Sensor.temp)").AsFloat(); avg != 25 {
		t.Errorf("avg after eviction = %f", avg)
	}
}

func TestAggregateMinMaxSum(t *testing.T) {
	b := bind(t, "SELECT MIN(temp), MAX(temp), SUM(temp) FROM Sensor [Range 1 Minute]")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	p.Push(sensorTuple(0, 1, 10))
	p.Push(sensorTuple(1, 1, -5))
	out, _ := p.Push(sensorTuple(2, 1, 7))
	r := out[0]
	if r.MustGet("MIN(Sensor.temp)").AsFloat() != -5 {
		t.Errorf("min = %v", r)
	}
	if r.MustGet("MAX(Sensor.temp)").AsFloat() != 10 {
		t.Errorf("max = %v", r)
	}
	if r.MustGet("SUM(Sensor.temp)").AsFloat() != 12 {
		t.Errorf("sum = %v", r)
	}
}

// TestMergedExecutionEquivalence is the keystone integration test of the
// paper's technique: executing the representative query and splitting its
// result stream with the members' re-tightening profiles yields EXACTLY
// the tuples each member query produces when executed directly.
func TestMergedExecutionEquivalence(t *testing.T) {
	q1 := bind(t, `SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`)
	q2 := bind(t, `SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`)
	rep, err := merge.Queries(q1, q2, merge.ExactUnion)
	if err != nil {
		t.Fatal(err)
	}

	p1, err := Compile("q1", q1, "r1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile("q2", q2, "r2")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile("rep", rep, "rep-res")
	if err != nil {
		t.Fatal(err)
	}
	prof1, err := merge.BuildMemberProfile(q1, rep, "rep-res")
	if err != nil {
		t.Fatal(err)
	}
	prof2, err := merge.BuildMemberProfile(q2, rep, "rep-res")
	if err != nil {
		t.Fatal(err)
	}
	// Re-tighten the way the user proxy does: compiled per result schema.
	split := make([]*profile.CompiledStream, 2)
	for i, prof := range []*profile.Profile{prof1, prof2} {
		if split[i], err = prof.CompileFor(prep.Result); err != nil {
			t.Fatal(err)
		}
	}

	// Deterministic random workload: auctions open and close over 8h.
	r := rand.New(rand.NewSource(2024))
	h := int64(stream.Hour)
	type ev struct {
		open  bool
		ts    stream.Timestamp
		item  int64
		extra int64
	}
	var evs []ev
	for item := int64(0); item < 120; item++ {
		openTs := stream.Timestamp(r.Int63n(8 * h))
		closeTs := openTs + stream.Timestamp(r.Int63n(7*h))
		evs = append(evs, ev{open: true, ts: openTs, item: item, extra: r.Int63n(50)})
		evs = append(evs, ev{open: false, ts: closeTs, item: item, extra: r.Int63n(900)})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })

	direct1 := map[string]int{}
	direct2 := map[string]int{}
	split1 := map[string]int{}
	split2 := map[string]int{}

	keyFor := func(tp stream.Tuple, cols []cql.ColRef) string {
		s := fmt.Sprintf("@%d", tp.Ts)
		for _, c := range cols {
			s += "|" + tp.MustGet(c.String()).String()
		}
		return s
	}

	for _, e := range evs {
		var tp stream.Tuple
		if e.open {
			tp = openTuple(e.ts, e.item, e.extra, float64(e.extra)*3)
		} else {
			tp = closedTuple(e.ts, e.item, e.extra)
		}
		out1, err := p1.Push(tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range out1 {
			direct1[keyFor(o, q1.SelectCols)]++
		}
		out2, err := p2.Push(tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range out2 {
			direct2[keyFor(o, q2.SelectCols)]++
		}
		outR, err := prep.Push(tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outR {
			if split[0].Covers(o.Values, o.Ts) {
				split1[keyFor(o, q1.SelectCols)]++
			}
			if split[1].Covers(o.Values, o.Ts) {
				split2[keyFor(o, q2.SelectCols)]++
			}
		}
	}

	if len(direct1) == 0 || len(direct2) == 0 {
		t.Fatal("workload produced no results; test is vacuous")
	}
	compare := func(name string, direct, split map[string]int) {
		for k, n := range direct {
			if split[k] != n {
				t.Errorf("%s: key %s direct=%d split=%d", name, k, n, split[k])
			}
		}
		for k, n := range split {
			if direct[k] != n {
				t.Errorf("%s: key %s split=%d direct=%d (spurious)", name, k, n, direct[k])
			}
		}
	}
	compare("q1", direct1, split1)
	compare("q2", direct2, split2)
}

func TestWindowEvictionBoundsMemory(t *testing.T) {
	b := bind(t, "SELECT O.itemID FROM OpenAuction [Range 1 Second] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID")
	p, _ := Compile("q", b, "res")
	for i := 0; i < 10000; i++ {
		p.Push(openTuple(stream.Timestamp(i*10), int64(i), 1, 10))
	}
	// 1-second window over 10ms-spaced tuples keeps ~100 tuples.
	in := p.byAlias["OpenAuction"]
	if n := in.store.len(); n > 150 {
		t.Errorf("live window grew to %d", n)
	}
	// The ring doubles only when full of live rows, so its capacity is
	// a power of two below twice the peak live window.
	if n := len(in.store.ts); n >= 2*150 || n&(n-1) != 0 {
		t.Errorf("ring capacity grew to %d", n)
	}
}
