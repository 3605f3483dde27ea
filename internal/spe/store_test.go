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
// seeded phases — steady churn (the ring wraps), bursts at one timestamp
// (the ring grows mid-window), long silences (the window drains in one
// push) — with Snapshot→Restore into a fresh plan along the way, and
// holds emissions and window contents to the reference executor's.
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
			var wrapped, grew, drained bool
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
				wrapped = wrapped || s.tail-1 > uint64(len(s.ts))
				grew = grew || len(s.ts) > minRing
				drained = drained || (s.len() <= 1 && len(s.ts) > minRing)
				if i%97 == 0 {
					sameWindows(t, ctx, pc, pi)
				}
				// Restore into a fresh plan whenever the live rows straddle
				// the ring's end (head slot above tail slot), at most every
				// 300 events.
				if s.len() > 1 && s.head&s.mask > (s.tail-1)&s.mask && i-lastRestore >= 300 {
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
			if !wrapped || !grew || !drained || restores == 0 || emitted == 0 {
				t.Errorf("query %d seed %d: wrapped %v, grew %v, drained %v, %d restores at a wrapped head, %d emissions — the run missed a phase",
					qi, seed, wrapped, grew, drained, restores, emitted)
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
// each — timestamp, columns and chain link in the ring, {first, last}
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
