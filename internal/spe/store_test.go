package spe

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/stream"
)

// storeCatalog has a column of every kind on one side of a join.
func storeCatalog() *stream.Registry {
	r := stream.NewRegistry()
	for _, in := range []*stream.Info{
		{Schema: stream.MustSchema("L",
			stream.Field{Name: "k", Kind: stream.KindInt},
			stream.Field{Name: "s", Kind: stream.KindString},
			stream.Field{Name: "f", Kind: stream.KindFloat},
			stream.Field{Name: "b", Kind: stream.KindBool},
			stream.Field{Name: "at", Kind: stream.KindTime},
		), Rate: 10},
		{Schema: stream.MustSchema("R",
			stream.Field{Name: "k", Kind: stream.KindInt},
			stream.Field{Name: "f", Kind: stream.KindFloat},
		), Rate: 10},
	} {
		if err := r.Register(in); err != nil {
			panic(err)
		}
	}
	return r
}

// sameWindows compares the plan's live rows, materialised by Snapshot,
// row for row with the reference executor's own windows.
func sameWindows(t *testing.T, ctx string, pc *Plan, pi *refPlan) {
	t.Helper()
	snap := pc.Snapshot()
	for i, in := range pc.inputs {
		got, want := snap.Buffers[in.alias], pi.bufs[i]
		if len(got) != len(want) {
			t.Fatalf("%s: input %s holds %d rows, reference %d", ctx, in.alias, len(got), len(want))
		}
		for r := range got {
			if got[r].Ts != want[r].Ts || !reflect.DeepEqual(got[r].Values, want[r].Values) {
				t.Fatalf("%s: input %s row %d differs:\nstore:     %s\nreference: %s", ctx, in.alias, r, got[r], want[r])
			}
		}
	}
}

// TestRowStoreProperty drives a join and a chained aggregate through
// seeded phases — steady churn (pages cross the page ring's end), bursts
// at one timestamp (the store takes many pages mid-window), long
// silences (the window drains in one push and gives its pages up) —
// with Snapshot→Restore into a fresh plan along the way, and holds
// emissions and window contents to the reference executor's.
func TestRowStoreProperty(t *testing.T) {
	reg := storeCatalog()
	lSchema, _ := reg.Schema("L")
	rSchema, _ := reg.Schema("R")
	queries := []string{
		`SELECT L.k, L.s, L.f, L.b, L.at, R.f FROM L [Range 2 Second], R [Range 1 Second] WHERE L.k = R.k`,
		`SELECT k, COUNT(*), MIN(f), MAX(at), SUM(f) FROM L [Range 2 Second] GROUP BY k`,
	}
	events := 6000
	if testing.Short() {
		events = 1500
	}
	for qi, q := range queries {
		for seed := int64(1); seed <= 3; seed++ {
			b, err := cql.AnalyzeString(q, reg)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := Compile("p", b, "res")
			if err != nil {
				t.Fatal(err)
			}
			pi := referenceTwin(t, "p", b, "res")
			rng := rand.New(rand.NewSource(seed))
			var crossed, many, drained bool
			peak := 0
			emitted, restores, lastRestore := 0, 0, 0
			ts := stream.Timestamp(0)
			for i := 0; i < events; i++ {
				ctx := fmt.Sprintf("query %d seed %d event %d", qi, seed, i)
				switch phase := (i / 250) % 4; {
				case phase == 1: // burst: everything at one instant
				case phase == 3 && i%250 == 0:
					ts += stream.Timestamp(10 * stream.Second) // silence: every window drains
				default:
					ts += stream.Timestamp(rng.Int63n(int64(20 * stream.Millisecond)))
				}
				var tp stream.Tuple
				if rng.Intn(3) > 0 {
					f, at := stream.Float(rng.NormFloat64()), stream.Time(ts)
					if rng.Intn(8) == 0 { // NewTuple admits an Int here
						f, at = stream.Int(rng.Int63n(5)), stream.Int(int64(ts))
					}
					tp = stream.MustTuple(lSchema, ts, stream.Int(rng.Int63n(12)),
						stream.String_(fmt.Sprint("s", rng.Intn(4))), f, stream.Bool(rng.Intn(2) == 0), at)
				} else {
					tp = stream.MustTuple(rSchema, ts, stream.Int(rng.Int63n(12)), stream.Float(float64(i)))
				}
				emitted += samePush(t, ctx, pc, pi, tp)
				s := &pc.inputs[0].store
				crossed = crossed || (s.tail-1)>>s.shift >= uint64(len(s.pages))
				many = many || s.held > minPages
				if peak = max(peak, s.held); s.len() <= 1 && s.held <= 1 && peak > minPages {
					drained, peak = true, 0
				}
				if i%97 == 0 {
					sameWindows(t, ctx, pc, pi)
				}
				// Restore into a fresh plan whenever the live rows straddle
				// a page boundary, at most every 300 events.
				if s.len() > 1 && s.head>>s.shift != (s.tail-1)>>s.shift && i-lastRestore >= 300 {
					restored, err := Compile("p", b.Clone(), "res")
					if err != nil {
						t.Fatal(err)
					}
					if err := restored.Restore(pc.Snapshot()); err != nil {
						t.Fatalf("%s: restore: %v", ctx, err)
					}
					pc, lastRestore = restored, i
					restores++
					sameWindows(t, ctx+" after restore", pc, pi)
				}
			}
			if !crossed || !many || !drained || restores == 0 || emitted == 0 {
				t.Errorf("query %d seed %d: crossed the ring's end %v, many pages %v, drained %v, %d restores across a page boundary, %d emissions — the run missed a phase",
					qi, seed, crossed, many, drained, restores, emitted)
			}
		}
	}
}

// TestOffKindValuesExact: a slab is typed by its column's schema kind,
// but stream.NewTuple admits an Int into a Float or Time field. Such a
// value must leave the window, the join probe and MIN/MAX exactly as it
// entered — as the reference executor, which only ever holds the tuples,
// has it.
func TestOffKindValuesExact(t *testing.T) {
	reg := threeWayCatalog()
	saSchema, _ := reg.Schema("SA")
	scSchema, _ := reg.Schema("SC")
	queries := []string{
		// A Float join key on both sides.
		`SELECT SA.k, SA.v, SC.w FROM SA [Range 1 Minute], SC [Range 1 Minute] WHERE SA.v = SC.w`,
		// A Float aggregate argument and grouping column.
		`SELECT v, COUNT(*), MIN(v), MAX(v), SUM(v), AVG(v) FROM SA [Range 1 Minute] GROUP BY v`,
		`SELECT k, MIN(v), MAX(v), SUM(v) FROM SA [Range 1 Minute] GROUP BY k`,
	}
	for qi, q := range queries {
		b, err := cql.AnalyzeString(q, reg)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := Compile("off", b, "res")
		if err != nil {
			t.Fatal(err)
		}
		pi := referenceTwin(t, "off", b, "res")
		rng := rand.New(rand.NewSource(int64(qi) + 1))
		ts := stream.Timestamp(0)
		emitted, offKind := 0, 0
		for i := 0; i < 2000; i++ {
			ts += stream.Timestamp(rng.Int63n(int64(2 * stream.Second)))
			// Small integral magnitudes, so an Int and a Float often
			// compare equal without being the same value.
			n := rng.Int63n(6)
			val := stream.Float(float64(n))
			switch rng.Intn(3) {
			case 0:
				val = stream.Int(n)
				offKind++
			case 1:
				val = stream.Float(float64(n) + 0.5)
			}
			tp := stream.MustTuple(saSchema, ts, stream.Int(rng.Int63n(3)), val)
			if rng.Intn(2) == 0 {
				tp = stream.MustTuple(scSchema, ts, stream.Int(rng.Int63n(3)), val)
			}
			ctx := fmt.Sprintf("query %d event %d", qi, i)
			emitted += samePush(t, ctx, pc, pi, tp)
			if i%50 == 0 {
				sameWindows(t, ctx, pc, pi)
			}
		}
		if emitted == 0 || offKind == 0 {
			t.Errorf("query %d: %d emissions from %d off-kind values; differential is vacuous", qi, emitted, offKind)
		}
		for _, in := range pc.inputs {
			for c := range in.store.cols {
				if n := len(in.store.cols[c].off); n > in.store.len() {
					t.Errorf("query %d: input %s column %d keeps %d off-kind entries for %d live rows", qi, in.alias, c, n, in.store.len())
				}
			}
		}
	}
}

// TestWindowBytesPerRow pins the layout: 100 k resident rows of three
// 8-byte columns in an equi-join input cost at most 128 B of live heap
// each — timestamp, columns and chain link in its page, {first, last}
// per bucket — and WindowStats accounts for that heap.
func TestWindowBytesPerRow(t *testing.T) {
	b := bind(t, `SELECT O.itemID, O.sellerID, O.start_price FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	p, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 100000
	for i := 0; i < rows; i++ {
		if _, err := p.Push(openTuple(stream.Timestamp(i), int64(i), int64(i%4096), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	heap := float64(liveHeap()) - float64(before)
	live, bytes := p.WindowStats()
	runtime.KeepAlive(p)
	if live != rows {
		t.Fatalf("%d rows resident, want %d", live, rows)
	}
	if per := heap / rows; per > 128 {
		t.Errorf("%.1f B of live heap per resident row, want ≤ 128", per)
	}
	if diff := heap - float64(bytes); diff > 0.1*heap || diff < -0.1*heap {
		t.Errorf("WindowStats reports %d B, the live heap grew by %.0f B", bytes, heap)
	}
}

// TestDrainedWindowReleasesPages: a burst fills a window with 10 000 rows
// at one instant, then a tuple past the window drains it. The store gives
// its pages up as the head leaves them, so it ends holding at most two:
// the page of the row just pushed and the spare.
func TestDrainedWindowReleasesPages(t *testing.T) {
	p, err := Compile("q", bind(t, `SELECT sellerID, MAX(start_price) FROM OpenAuction [Range 1 Second] GROUP BY sellerID`), "res")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := p.Push(openTuple(0, int64(i), int64(i%16), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := &p.inputs[0].store
	if _, peak := p.WindowStats(); peak < 10000/(int64(s.slots)+1)*s.pageBytes() {
		t.Fatalf("the burst left %d B, less than its rows' pages", peak)
	}
	if _, err := p.Push(openTuple(stream.Timestamp(2*stream.Second), 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	rows, bytes := p.WindowStats()
	if rows != 1 || bytes > 2*s.pageBytes() {
		t.Errorf("after the drain: %d rows in %d B, want 1 row in at most two pages (%d B)", rows, bytes, 2*s.pageBytes())
	}
}

// TestPageRingKeepsItsSize: a store swinging between one held page and
// three keeps the four-entry ring its first swing grew, rather than
// halving it on every drain and doubling it again on every refill.
func TestPageRingKeepsItsSize(t *testing.T) {
	s := newRowStore(stream.MustSchema("T", stream.Field{Name: "v", Kind: stream.KindInt}), false, stream.Hour)
	vals := []stream.Value{stream.Int(1)}
	var ring *page
	for cycle := 0; cycle < 100; cycle++ {
		for s.held < 3 {
			s.append(vals, 0)
		}
		for s.held > 1 {
			s.popFront()
		}
		if ring == nil {
			ring = &s.pages[0]
		}
		if len(s.pages) != 4 || &s.pages[0] != ring {
			t.Fatalf("cycle %d: the ring was reallocated (%d entries) after its first growth", cycle, len(s.pages))
		}
	}
}

// TestNowStoreStaysSmall: a [Now] grouped aggregate holds the rows of one
// instant, so after 10 000 pushes its store is no larger than an 8-row
// store — its page, without a spare.
func TestNowStoreStaysSmall(t *testing.T) {
	p, err := Compile("q", bind(t, `SELECT station, MAX(temp) FROM Sensor [Now] GROUP BY station`), "res")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := p.Push(sensorTuple(stream.Timestamp(i), int64(i%7), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Timestamp, chain link, station and temp: 32 B a row.
	const eightRows = 8 * 32
	if rows, bytes := p.WindowStats(); rows != 1 || bytes > eightRows {
		t.Errorf("%d rows in %d B, want 1 row in at most %d B", rows, bytes, eightRows)
	}
}

// BenchmarkWindowPush times a push into a warmed window in steady state
// — every push evicts about as many rows as it inserts — for the
// paper's join, an equi-join over a ~90 k-row [Range 5 Hour] window
// probed by [Now] closes (opens and closes alternate), and for a grouped
// MAX over a ~18 k-row [Range 1 Hour] window. It reports ns/push,
// allocs/push and the window state's bytes per live row. The warm-up
// runs outside the timer.
func BenchmarkWindowPush(b *testing.B) {
	const step = 200 * stream.Millisecond // 90 k opens per 5 hours
	open, _ := catalog().Schema("OpenAuction")
	closed, _ := catalog().Schema("ClosedAuction")
	ov, cv := make([]stream.Value, 4), make([]stream.Value, 3)
	openAt := func(i int) stream.Tuple {
		ts := stream.Timestamp(i) * stream.Timestamp(step)
		ov[0], ov[1], ov[2], ov[3] = stream.Int(int64(i)), stream.Int(int64(i%64)), stream.Float(float64(i%1000)), stream.Time(ts)
		return stream.Tuple{Schema: open, Ts: ts, Values: ov}
	}
	cases := []struct {
		name string
		cql  string
		warm int
		push func(i int) stream.Tuple
	}{
		{"join", `SELECT O.itemID, C.buyerID FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID`, 90000,
			func(i int) stream.Tuple {
				if i%2 == 0 {
					return openAt(i / 2)
				}
				// Close an item opened an hour ago, still in the window.
				ts := stream.Timestamp(i/2) * stream.Timestamp(step)
				cv[0], cv[1], cv[2] = stream.Int(int64(i/2-18000)), stream.Int(int64(i%4096)), stream.Time(ts)
				return stream.Tuple{Schema: closed, Ts: ts, Values: cv}
			}},
		{"max", `SELECT sellerID, MAX(start_price) FROM OpenAuction [Range 1 Hour] GROUP BY sellerID`, 18000, openAt},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p, err := Compile("q", bind(b, c.cql), "res")
			if err != nil {
				b.Fatal(err)
			}
			var dst []stream.Tuple
			next := 0
			push := func() {
				if dst, err = p.PushAppend(dst[:0], c.push(next)); err != nil {
					b.Fatal(err)
				}
				next++
			}
			for next < 2*c.warm { // join: the opens of the window; max: two windows
				push()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for range b.N {
				push()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			rows, bytes := p.WindowStats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/push")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/push")
			b.ReportMetric(float64(bytes)/float64(rows), "state_B/row")
		})
	}
}
