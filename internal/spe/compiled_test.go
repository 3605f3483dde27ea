package spe

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
)

// samePush feeds one tuple to the compiled plan and to its reference
// twin (see reference_test.go) and asserts identical emissions (count,
// order, timestamps, values) and identical error outcomes. It returns
// the number of emitted tuples.
func samePush(t *testing.T, ctx string, pc *Plan, pi *refPlan, tp stream.Tuple) int {
	t.Helper()
	got, gerr := pc.Push(tp)
	want, werr := pi.pushReference(tp)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error mismatch: compiled %v, reference %v", ctx, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: error text mismatch:\ncompiled:  %v\nreference: %v", ctx, gerr, werr)
		}
		return 0
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d emissions, reference %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Ts != w.Ts || g.Schema.Stream != w.Schema.Stream ||
			!reflect.DeepEqual(g.Values, w.Values) {
			t.Fatalf("%s: emission %d differs:\ncompiled:  %s\nreference: %s", ctx, i, g, w)
		}
	}
	return len(got)
}

// TestCompiledPlanDifferentialQuerygen is the keystone differential test
// of the compiled operator pipeline: over randomized querygen workloads
// spanning select, self-join (equi and non-equi) and aggregate queries,
// the compiled plan must reproduce the name-resolved reference
// executor's emissions — tuples, order, errors — exactly.
func TestCompiledPlanDifferentialQuerygen(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	const stations = 6
	gen, err := querygen.New(querygen.Config{
		Dist:         querygen.Zipf10,
		Seed:         11,
		Streams:      stations,
		AggFraction:  0.35,
		JoinFraction: 0.35,
		WindowMenu: []stream.Duration{
			2 * stream.Minute, 5 * stream.Minute, 10 * stream.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := gen.BindBatch(60, reg)
	if err != nil {
		t.Fatal(err)
	}

	type pair struct {
		pc   *Plan
		pi   *refPlan
		kind string
	}
	emitted := map[string]int{}
	var pairs []pair
	for i, b := range bounds {
		kind := "select"
		switch {
		case b.IsAggregate():
			kind = "agg"
		case len(b.From) > 1:
			kind = "join"
		}
		res := fmt.Sprintf("res%d", i)
		pc, err := Compile(fmt.Sprintf("q%d", i), b, res)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, b.Raw, err)
		}
		pairs = append(pairs, pair{pc, referenceTwin(t, fmt.Sprintf("q%d", i), b, res), kind})
	}

	gens := make([]*sensordata.Generator, stations)
	for s := range gens {
		gens[s] = sensordata.NewGenerator(s, int64(s+1))
	}
	for round := 0; round < 120; round++ {
		for s := range gens {
			tp := gens[s].Next()
			for _, pr := range pairs {
				ctx := fmt.Sprintf("round %d station %d plan %s", round, s, pr.pc.ID)
				emitted[pr.kind] += samePush(t, ctx, pr.pc, pr.pi, tp)
			}
		}
	}
	for _, kind := range []string{"select", "join", "agg"} {
		if emitted[kind] == 0 {
			t.Errorf("workload emitted nothing for %s queries; differential is vacuous", kind)
		}
	}
}

func threeWayCatalog() *stream.Registry {
	r := stream.NewRegistry()
	infos := []*stream.Info{
		{Schema: stream.MustSchema("SA",
			stream.Field{Name: "k", Kind: stream.KindInt},
			stream.Field{Name: "v", Kind: stream.KindFloat},
		), Rate: 10},
		{Schema: stream.MustSchema("SB",
			stream.Field{Name: "k", Kind: stream.KindInt},
			stream.Field{Name: "j", Kind: stream.KindInt},
		), Rate: 10},
		{Schema: stream.MustSchema("SC",
			stream.Field{Name: "j", Kind: stream.KindInt},
			stream.Field{Name: "w", Kind: stream.KindFloat},
		), Rate: 10},
	}
	for _, in := range infos {
		if err := r.Register(in); err != nil {
			panic(err)
		}
	}
	return r
}

// TestCompiledThreeWayJoinDifferential drives a chain equi-join over
// three streams through the compiled pipeline: every input carries a
// hash partition, probe order determines which inputs can use theirs
// (the chain's far end scans until its partner is placed), and the
// emissions must match the reference nested loop exactly.
func TestCompiledThreeWayJoinDifferential(t *testing.T) {
	reg := threeWayCatalog()
	b, err := cql.AnalyzeString(
		`SELECT SA.k, SB.j, SC.w FROM SA [Range 1 Hour], SB [Range 1 Hour], SC [Range 30 Minute]
		 WHERE SA.k = SB.k AND SB.j = SC.j AND SA.v > 10`, reg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Compile("three", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range pc.inputs {
		if in.hash == nil {
			t.Fatalf("input %d (%s) should have an equi-partition index", i, in.alias)
		}
	}
	pi := referenceTwin(t, "three", b, "res")

	saSchema, _ := reg.Schema("SA")
	sbSchema, _ := reg.Schema("SB")
	scSchema, _ := reg.Schema("SC")
	r := rand.New(rand.NewSource(5))
	ts := stream.Timestamp(0)
	emitted := 0
	events := 600
	if testing.Short() {
		events = 150
	}
	for i := 0; i < events; i++ {
		ts += stream.Timestamp(r.Int63n(int64(30 * stream.Second)))
		var tp stream.Tuple
		switch r.Intn(3) {
		case 0:
			tp = stream.MustTuple(saSchema, ts, stream.Int(r.Int63n(5)), stream.Float(float64(r.Int63n(20))))
		case 1:
			tp = stream.MustTuple(sbSchema, ts, stream.Int(r.Int63n(5)), stream.Int(r.Int63n(4)))
		default:
			tp = stream.MustTuple(scSchema, ts, stream.Int(r.Int63n(4)), stream.Float(float64(i)))
		}
		emitted += samePush(t, fmt.Sprintf("event %d", i), pc, pi, tp)
	}
	if emitted == 0 {
		t.Error("three-way workload emitted nothing; differential is vacuous")
	}
}

// TestCompiledThreeWaySelfJoinDifferential repeats one stream under two
// aliases plus a third stream: the new tuple enters the probe at both
// self-aliases, and the compiled enumeration order must still match the
// reference executor.
func TestCompiledThreeWaySelfJoinDifferential(t *testing.T) {
	reg := threeWayCatalog()
	b, err := cql.AnalyzeString(
		`SELECT x.k, z.j FROM SA [Range 1 Hour] x, SA [Range 30 Minute] y, SB [Range 1 Hour] z
		 WHERE x.k = y.k AND y.k = z.k AND x.v >= y.v`, reg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Compile("self3", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	pi := referenceTwin(t, "self3", b, "res")

	saSchema, _ := reg.Schema("SA")
	sbSchema, _ := reg.Schema("SB")
	r := rand.New(rand.NewSource(17))
	ts := stream.Timestamp(0)
	emitted := 0
	events := 400
	if testing.Short() {
		events = 100
	}
	for i := 0; i < events; i++ {
		ts += stream.Timestamp(r.Int63n(int64(time30s)))
		var tp stream.Tuple
		if r.Intn(2) == 0 {
			tp = stream.MustTuple(saSchema, ts, stream.Int(r.Int63n(3)), stream.Float(float64(r.Int63n(10))))
		} else {
			tp = stream.MustTuple(sbSchema, ts, stream.Int(r.Int63n(3)), stream.Int(r.Int63n(4)))
		}
		emitted += samePush(t, fmt.Sprintf("event %d", i), pc, pi, tp)
	}
	if emitted == 0 {
		t.Error("self-join workload emitted nothing; differential is vacuous")
	}
}

const time30s = 30 * stream.Second

// TestCompiledSchemaDriftLayout checks that a layout-only drift (new
// schema pointer, reordered and widened attribute set) rebinds the
// input's adapter by name and results stay identical to the reference.
func TestCompiledSchemaDriftLayout(t *testing.T) {
	reg := threeWayCatalog()
	b, err := cql.AnalyzeString("SELECT k FROM SA [Now] WHERE v > 10", reg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Compile("drift", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	pi := referenceTwin(t, "drift", b, "res")

	saSchema, _ := reg.Schema("SA")
	samePush(t, "original", pc, pi, stream.MustTuple(saSchema, 1, stream.Int(7), stream.Float(20)))

	// Reordered layout with an extra attribute under the same name.
	drifted := stream.MustSchema("SA",
		stream.Field{Name: "extra", Kind: stream.KindString},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "k", Kind: stream.KindInt},
	)
	n := samePush(t, "layout drift", pc, pi,
		stream.MustTuple(drifted, 2, stream.String_("x"), stream.Float(30), stream.Int(8)))
	if n != 1 {
		t.Fatalf("layout-drifted tuple emitted %d results, want 1", n)
	}
	if pc.inputs[0].ad.src != drifted {
		t.Error("the adapter should be rebound to the drifted schema pointer")
	}
	// A tuple lacking a needed attribute errors identically on both paths
	// and leaves the adapter where it was.
	narrow := stream.MustSchema("SA", stream.Field{Name: "k", Kind: stream.KindInt})
	samePush(t, "missing attribute", pc, pi, stream.MustTuple(narrow, 3, stream.Int(9)))
	if pc.inputs[0].ad.src != drifted {
		t.Error("a refused layout must not disturb the bound adapter")
	}
	if n := samePush(t, "after refusal", pc, pi,
		stream.MustTuple(drifted, 4, stream.String_("y"), stream.Float(40), stream.Int(9))); n != 1 {
		t.Fatalf("tuple after the refused one emitted %d results, want 1", n)
	}
}

// TestPushRefusesKindDrift checks the stated behaviour for a mid-stream
// drift that changes an attribute's kind: the compiled comparisons trust
// declared kinds, so the tuple is refused with an error naming the
// attribute, no state is touched, and traffic of the registered layout
// keeps matching a reference that never saw the drifted tuple.
func TestPushRefusesKindDrift(t *testing.T) {
	reg := threeWayCatalog()
	b, err := cql.AnalyzeString(
		"SELECT SA.v, SB.j FROM SA [Range 1 Hour], SB [Range 1 Hour] WHERE SA.k = SB.k", reg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Compile("kindrift", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	pi := referenceTwin(t, "kindrift", b, "res")

	saSchema, _ := reg.Schema("SA")
	sbSchema, _ := reg.Schema("SB")
	traffic := func(phase string, from int) int {
		emitted := 0
		for i := from; i < from+20; i++ {
			ts := stream.Timestamp(i) * 1000
			emitted += samePush(t, fmt.Sprintf("%s sa %d", phase, i), pc, pi,
				stream.MustTuple(saSchema, ts, stream.Int(int64(i%3)), stream.Float(float64(i))))
			emitted += samePush(t, fmt.Sprintf("%s sb %d", phase, i), pc, pi,
				stream.MustTuple(sbSchema, ts, stream.Int(int64(i%3)), stream.Int(int64(i))))
		}
		return emitted
	}
	if traffic("warm", 0) == 0 {
		t.Fatal("warmup emitted nothing")
	}

	drifted := stream.MustSchema("SA",
		stream.Field{Name: "k", Kind: stream.KindString},
		stream.Field{Name: "v", Kind: stream.KindFloat},
	)
	out, err := pc.Push(stream.MustTuple(drifted, 21000, stream.String_("oops"), stream.Float(1)))
	if err == nil || len(out) != 0 {
		t.Fatalf("kind-drifted tuple: %d emissions, err %v; want a refusal", len(out), err)
	}
	if !strings.Contains(err.Error(), "attribute k is string") {
		t.Errorf("refusal should name the drifted attribute and kind, got: %v", err)
	}
	if traffic("post", 22) == 0 {
		t.Error("post-drift traffic emitted nothing")
	}
}

// TestAggIncrementalEvictionState checks the incremental aggregate
// bookkeeping directly: group state is unwound as tuples expire, dead
// groups are deleted, and a dirtied MAX is recomputed from the live
// members only.
func TestAggIncrementalEvictionState(t *testing.T) {
	b := bind(t, "SELECT station, COUNT(*), SUM(temp), MAX(temp) FROM Sensor [Range 10 Second] GROUP BY station")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Timestamp(stream.Second)
	p.Push(sensorTuple(0, 1, 30))
	p.Push(sensorTuple(5*s, 1, 10))
	p.Push(sensorTuple(6*s, 2, 99))
	// At 12s the 30-reading expired: MAX must recompute to the live
	// members {10, 20}.
	out, err := p.Push(sensorTuple(12*s, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	r := out[0]
	if n := r.MustGet("COUNT(*)").AsInt(); n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
	if v := r.MustGet("SUM(Sensor.temp)").AsFloat(); v != 30 {
		t.Errorf("sum = %v, want 30", v)
	}
	if v := r.MustGet("MAX(Sensor.temp)").AsFloat(); v != 20 {
		t.Errorf("max = %v, want 20 (evicted extremum must be recomputed)", v)
	}
	// Far in the future every earlier group expired; only the trigger's
	// group survives in the state map.
	if _, err := p.Push(sensorTuple(1000*s, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if n := len(p.agg.groups); n != 1 {
		t.Errorf("%d groups retained after full eviction, want 1", n)
	}
}

// TestAggPushMissingSelectedColumnErrors pins the contract an early
// implementation violated: a selected grouping column missing from the
// tuple must surface as an error, not a silently emitted zero Value.
func TestAggPushMissingSelectedColumnErrors(t *testing.T) {
	b := bind(t, "SELECT station, COUNT(*) FROM Sensor [Range 10 Second] GROUP BY station")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	other := stream.MustSchema("Sensor", stream.Field{Name: "temp", Kind: stream.KindFloat})
	if _, err := p.Push(stream.MustTuple(other, 1, stream.Float(3))); err == nil {
		t.Fatal("missing selected grouping column must error, not emit a zero Value")
	}
}

// TestSnapshotRestoreRebuildsCompiledState checks that restoring a
// snapshot into a fresh compiled plan rebuilds the hash partitions and
// aggregate accumulators so post-restore behaviour matches a plan that
// never failed over.
func TestSnapshotRestoreRebuildsCompiledState(t *testing.T) {
	b := bind(t, `SELECT O.itemID FROM OpenAuction [Range 2 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`)
	orig, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	h := stream.Timestamp(stream.Hour)
	for i := int64(0); i < 20; i++ {
		if _, err := orig.Push(openTuple(stream.Timestamp(i)*stream.Timestamp(stream.Minute), i, 1, 10)); err != nil {
			t.Fatal(err)
		}
	}
	snap := orig.Snapshot()
	restored, err := Compile("q", b.Clone(), "res")
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		ctx := fmt.Sprintf("close %d", i)
		want, err := orig.Push(closedTuple(h, i, 9))
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Push(closedTuple(h, i, 9))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: restored emitted %d, original %d", ctx, len(got), len(want))
		}
		for j := range got {
			if got[j].Ts != want[j].Ts || !reflect.DeepEqual(got[j].Values, want[j].Values) {
				t.Fatalf("%s: emission %d differs: %s vs %s", ctx, j, got[j], want[j])
			}
		}
	}

	// Aggregate state rebuild: running sums continue seamlessly.
	ab := bind(t, "SELECT station, SUM(temp) FROM Sensor [Range 1 Hour] GROUP BY station")
	aorig, _ := Compile("a", ab, "ares")
	for i := int64(0); i < 10; i++ {
		aorig.Push(sensorTuple(stream.Timestamp(i)*1000, 1, float64(i)))
	}
	asnap := aorig.Snapshot()
	arestored, _ := Compile("a", ab.Clone(), "ares")
	if err := arestored.Restore(asnap); err != nil {
		t.Fatal(err)
	}
	wantOut, _ := aorig.Push(sensorTuple(20000, 1, 5))
	gotOut, _ := arestored.Push(sensorTuple(20000, 1, 5))
	if len(gotOut) != 1 || len(wantOut) != 1 ||
		!reflect.DeepEqual(gotOut[0].Values, wantOut[0].Values) {
		t.Fatalf("aggregate restore diverged: %v vs %v", gotOut, wantOut)
	}
}

// TestCompiledJoinIndexExactUnderChurn checks that eviction keeps the
// equi-join index exact: after heavy churn the bucket table is a power of
// two with at most two live rows per bucket, and its chains hold the
// live rows and nothing else, each once, under the bucket its key hashes
// to by the index's own mask, in arrival order.
func TestCompiledJoinIndexExactUnderChurn(t *testing.T) {
	b := bind(t, `SELECT O.itemID FROM OpenAuction [Range 1 Second] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`)
	p, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	in := p.byAlias["OpenAuction"]
	if in.hash == nil {
		t.Fatal("equi-join input should be hash indexed")
	}
	for i := 0; i < 20000; i++ {
		// Distinct items, so every row is filed under a key of its own.
		if _, err := p.Push(openTuple(stream.Timestamp(i*10), int64(i), 1, 10)); err != nil {
			t.Fatal(err)
		}
	}
	s, idx := &in.store, in.hash
	n := len(idx.buckets)
	if n&(n-1) != 0 || idx.mask != uint64(n-1) || 2*n < s.len() {
		t.Fatalf("%d buckets under mask %#x for %d live rows", n, idx.mask, s.len())
	}
	row := make([]stream.Value, in.schema.Arity())
	seen := map[uint64]bool{}
	for bi, bkt := range idx.buckets {
		prev := uint64(0)
		for ord := bkt.first; ord != 0; ord = s.nextAt(s.at(ord)) {
			if ord < s.head || ord >= s.tail {
				t.Fatalf("bucket %d chains dead row %d (live [%d, %d))", bi, ord, s.head, s.tail)
			}
			if ord <= prev {
				t.Fatalf("bucket %d out of arrival order: %d after %d", bi, ord, prev)
			}
			if seen[ord] {
				t.Fatalf("row %d chained twice", ord)
			}
			seen[ord] = true
			pg, i := s.at(ord)
			s.readAt(pg, i, ord, row)
			if h, exact := idx.hash(row); !exact || h&idx.mask != uint64(bi) {
				t.Fatalf("row %d filed under bucket %d, hashes to %d", ord, bi, h&idx.mask)
			}
			if prev = ord; s.nextAt(s.at(ord)) == 0 && bkt.last != ord {
				t.Fatalf("bucket %d: last = %d, chain ends at %d", bi, bkt.last, ord)
			}
		}
	}
	if len(seen) != s.len() || len(idx.overflow) != 0 {
		t.Errorf("index chains %d rows (+%d overflow) for %d live", len(seen), len(idx.overflow), s.len())
	}
}

// TestAggFloatSumEvictionPrecision pins the float SUM/AVG contract: the
// emitted sum must equal a fresh scan of the live members, not a running
// accumulator that cancels catastrophically once a large value leaves
// the window.
func TestAggFloatSumEvictionPrecision(t *testing.T) {
	b := bind(t, "SELECT SUM(temp) FROM Sensor [Range 1 Second]")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	p.Push(sensorTuple(0, 1, 1e17))
	p.Push(sensorTuple(500, 1, 1))
	// At 1.4s the 1e17 reading expired; the live window is {1, 2}.
	out, err := p.Push(sensorTuple(1400, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].MustGet("SUM(Sensor.temp)").AsFloat(); got != 3 {
		t.Errorf("sum after large-value eviction = %v, want 3", got)
	}
}

// TestAggNaNGroupKeys pins the NaN grouping contract: every NaN keys
// into one group (as the rendered-string grouping did), and eviction
// finds and reclaims that group instead of leaking it.
func TestAggNaNGroupKeys(t *testing.T) {
	b := bind(t, "SELECT temp, COUNT(*) FROM Sensor [Range 1 Second] GROUP BY temp")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for i := 1; i <= 5; i++ {
		out, err := p.Push(sensorTuple(stream.Timestamp(i), 1, nan))
		if err != nil {
			t.Fatal(err)
		}
		if n := out[0].MustGet("COUNT(*)").AsInt(); n != int64(i) {
			t.Fatalf("NaN push %d: count = %d, want %d (NaNs must share one group)", i, n, i)
		}
	}
	// Far in the future the NaN group fully expired; only the trigger's
	// group may remain.
	if _, err := p.Push(sensorTuple(10000, 1, 7)); err != nil {
		t.Fatal(err)
	}
	if n := len(p.agg.groups); n != 1 {
		t.Errorf("%d groups retained after NaN eviction, want 1 (leak)", n)
	}
}

// TestHashKeyCompositeInjective pins the composite-key encoding: string
// values containing the old separator byte must not let distinct keys
// collide in the spill-over suffix.
func TestHashKeyCompositeInjective(t *testing.T) {
	mk := func(vals ...stream.Value) hashKey {
		var k hashKey
		for i, v := range vals {
			k = k.with(i, v)
		}
		return k
	}
	a := mk(stream.Int(1), stream.Int(2), stream.String_("a\x1fsb"), stream.String_(""))
	b := mk(stream.Int(1), stream.Int(2), stream.String_("a"), stream.String_("b\x1fs"))
	if a == b {
		t.Error("distinct composite keys collided through the string suffix")
	}
	if x, y := mk(stream.Int(1), stream.Int(2), stream.String_("q"), stream.Int(3)),
		mk(stream.Int(1), stream.Int(2), stream.String_("q"), stream.Int(3)); x != y {
		t.Error("equal composites must produce equal keys")
	}
}
