package cbn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
)

// referenceRoute computes the deliveries by name: each interface's
// aggregate profile is matched through the name-resolved DNF evaluator
// and projected by attribute name, in the order the arriving schema
// lays the attributes out, ignoring the compiled table. It is the
// semantic reference the compiled data plane must match.
func referenceRoute(b *Broker, t stream.Tuple, from IfaceID) ([]Delivery, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Delivery
	name := t.Schema.Stream
	for _, d := range b.agg {
		iface, agg := d.iface, d.prof
		if iface == from || !slices.Contains(agg.Streams, name) {
			continue
		}
		ok, err := agg.FilterFor(name).Eval(t)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		projected := t
		if attrs := agg.AttrsFor(name); attrs != nil {
			ps, err := t.Schema.Project(arrivalOrder(t.Schema, attrs))
			if err != nil {
				return nil, err
			}
			if projected, err = t.Project(ps); err != nil {
				return nil, err
			}
		}
		out = append(out, Delivery{Iface: iface, Tuple: projected})
	}
	return out, nil
}

// arrivalOrder lists attrs as s lays them out, then those s lacks, which
// Schema.Project reports.
func arrivalOrder(s *stream.Schema, attrs []string) []string {
	var out []string
	for _, f := range s.Fields {
		if slices.Contains(attrs, f.Name) {
			out = append(out, f.Name)
		}
	}
	for _, a := range attrs {
		if !s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// sameDeliveries asserts two delivery lists are identical: same
// interfaces in the same order, same projected schemas, same values.
func sameDeliveries(t *testing.T, got, want []Delivery, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d deliveries, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Iface != want[i].Iface {
			t.Fatalf("%s: delivery %d on iface %d, want %d", ctx, i, got[i].Iface, want[i].Iface)
		}
		g, w := got[i].Tuple, want[i].Tuple
		if !g.Equal(w) {
			t.Fatalf("%s: delivery %d tuple %s, want %s", ctx, i, g, w)
		}
		ga, wa := g.Schema.AttrNames(), w.Schema.AttrNames()
		if fmt.Sprint(ga) != fmt.Sprint(wa) {
			t.Fatalf("%s: delivery %d projected attrs %v, want %v", ctx, i, ga, wa)
		}
	}
}

// TestCompiledRoutingDifferentialRandom subscribes randomized
// querygen-derived profiles on many interfaces and asserts that the
// compiled data plane delivers exactly what the name-resolved
// reference delivers, tuple for tuple, projection for projection.
func TestCompiledRoutingDifferentialRandom(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	for _, withCatalog := range []bool{false, true} {
		t.Run(fmt.Sprintf("catalog=%v", withCatalog), func(t *testing.T) {
			gen, err := querygen.New(querygen.Config{Dist: querygen.Zipf10, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			bound, err := gen.BindBatch(80, reg)
			if err != nil {
				t.Fatal(err)
			}
			b := NewBroker(0)
			if withCatalog {
				b.SetCatalog(reg)
			}
			const fanout = 12
			for i, q := range bound {
				addDemand(b, profile.FromQuery(q), IfaceID(1+i%fanout))
			}
			// A few hand-built profiles widen the shape space: no filter,
			// no projection, multi-disjunct, intrinsic-timestamp filters.
			all := profile.New()
			all.AddStream(sensordata.StreamName(0), nil, nil)
			addDemand(b, all, 3)
			multi := profile.New()
			multi.AddStream(sensordata.StreamName(1), []string{"station", "wind"}, predicate.DNF{
				{predicate.C("wind", predicate.GT, stream.Float(20))},
				{predicate.C("humidity", predicate.LT, stream.Float(15))},
			})
			addDemand(b, multi, 5)
			ts := profile.New()
			ts.AddStream(sensordata.StreamName(2), []string{"temperature"}, predicate.DNF{
				{predicate.C(predicate.IntrinsicTs, predicate.GE, stream.Time(0))},
			})
			addDemand(b, ts, 7)

			rng := rand.New(rand.NewSource(99))
			for station := 0; station < 12; station++ {
				tg := sensordata.NewGenerator(station, int64(station+1))
				for _, tp := range tg.Take(100) {
					from := IfaceID(rng.Intn(fanout + 1))
					want, werr := referenceRoute(b, tp, from)
					got, gerr := b.RouteTuple(tp, from)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("station %d: error mismatch: compiled %v, reference %v",
							station, gerr, werr)
					}
					sameDeliveries(t, got, want,
						fmt.Sprintf("station %d from %d", station, from))
				}
				// The stream must actually be served by compiled routes, not
				// by an entry that stored a compile error.
				tbl := b.table.Load()
				if tbl == nil {
					t.Fatal("no compiled table published")
				}
				st := tbl.streams[sensordata.StreamName(station)]
				if st == nil || st.err != nil {
					t.Fatalf("station %d: expected a compiled entry, got %+v", station, st)
				}
			}
		})
	}
}

// TestRouteNoMatchAllocationFree: a tuple no subscription covers costs
// zero allocations on the compiled routing path — the pure per-tuple
// filtering cost across 32 subscribed interfaces.
func TestRouteNoMatchAllocationFree(t *testing.T) {
	b := NewBroker(0)
	for i := 1; i <= 32; i++ {
		p := profile.New()
		p.AddStream("Sensor07", []string{"station"}, predicate.DNF{
			{predicate.C("station", predicate.EQ, stream.Int(int64(100+i)))},
		})
		b.HandleDemand(p, IfaceID(i))
	}
	tp := sensordata.NewGenerator(7, 1).Next() // station 7: matches nothing
	b.RouteTuple(tp, 0)                        // the first tuple compiles the table
	if allocs := testing.AllocsPerRun(1000, func() {
		if out, err := b.RouteTuple(tp, 0); err != nil || len(out) != 0 {
			t.Fatalf("route = %v, %v; want no deliveries", out, err)
		}
	}); allocs != 0 {
		t.Errorf("no-match RouteTuple allocates %.1f/op, want 0", allocs)
	}
}

// TestRouteRunProjectionAllocationFree pins early projection's two
// copy-free cases: with a recycled scratch slice, a matching tuple routes
// without allocating when its demand names every column (in an order
// other than the schema's) and when it keeps one contiguous run of
// columns, which the delivery shares.
func TestRouteRunProjectionAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		attrs []string
	}{
		{"every column", []string{"wind", "station", "temperature", "humidity", "solar"}},
		{"run", []string{"solar", "humidity"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBroker(0)
			p := profile.New()
			p.AddStream("Sensor07", tc.attrs, predicate.DNF{
				{predicate.C("humidity", predicate.GE, stream.Float(0))},
			})
			b.HandleDemand(p, 1)
			tp := sensordata.NewGenerator(7, 1).Next()
			scratch, err := b.RouteTupleInto(tp, 0, nil) // the first tuple compiles the table
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceRoute(b, tp, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameDeliveries(t, scratch, want, tc.name)
			if allocs := testing.AllocsPerRun(1000, func() {
				if scratch, err = b.RouteTupleInto(tp, 0, scratch); err != nil || len(scratch) != 1 {
					t.Fatalf("route = %v, %v; want one delivery", scratch, err)
				}
			}); allocs != 0 {
				t.Errorf("RouteTupleInto allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// TestCompiledRoutingBadFilterStoredError checks the stated behaviour for
// demand the compiler must reject (a filter over a missing attribute):
// the stream's entry stores the compile error, RouteTuple returns it for
// every tuple without recompiling, other streams keep routing, and
// withdrawing the bad demand restores the stream.
func TestCompiledRoutingBadFilterStoredError(t *testing.T) {
	b := NewBroker(0)
	b.HandleDemand(tempProfile(15, nil), 1)
	bad := profile.New()
	bad.AddStream("Sensor1", nil, predicate.DNF{
		{predicate.C("nonexistent", predicate.GT, stream.Int(0))},
	})
	b.HandleDemand(bad, 2)

	if _, err := referenceRoute(b, sensorTuple(1, 3, 20, 50), 0); err == nil {
		t.Fatal("the name-resolved reference should error on the missing attribute")
	}
	out, err := b.RouteTuple(sensorTuple(1, 3, 20, 50), 0)
	if err == nil || len(out) != 0 {
		t.Fatalf("uncompilable demand: got %d deliveries, err %v; want the stored error", len(out), err)
	}
	st := b.table.Load().streams["Sensor1"]
	if st == nil || st.err == nil || len(st.routes) != 0 {
		t.Fatalf("entry should store the compile error and no routes, got %+v", st)
	}
	_, err2 := b.RouteTuple(sensorTuple(2, 3, 21, 50), 0)
	if err2 != err {
		t.Fatalf("second tuple: error %v, want the same stored error %v", err2, err)
	}
	if b.table.Load().streams["Sensor1"] != st {
		t.Fatal("the stored error must not be recompiled per tuple")
	}

	b.HandleDemand(nil, 2)
	out, err = b.RouteTuple(sensorTuple(3, 3, 20, 50), 0)
	if err != nil || len(out) != 1 || out[0].Iface != 1 {
		t.Fatalf("after withdrawing the bad filter: %d deliveries, err %v; want 1 on iface 1", len(out), err)
	}
}

// TestCompiledRoutingCatalogMismatch checks the catalog guard: a layout
// the registered schema contradicts routes to the stored error, while
// the registered layout and any projection of it route normally.
func TestCompiledRoutingCatalogMismatch(t *testing.T) {
	reg := stream.NewRegistry()
	if err := reg.Register(&stream.Info{Schema: sensorSchema}); err != nil {
		t.Fatal(err)
	}
	b := NewBroker(0)
	b.SetCatalog(reg)
	b.HandleDemand(tempProfile(10, nil), 1)

	if out, err := b.RouteTuple(sensorTuple(1, 1, 20, 50), 0); err != nil || len(out) != 1 {
		t.Fatalf("registered layout: %d deliveries, err %v", len(out), err)
	}
	narrow, err := sensorSchema.Project([]string{"temp", "station"})
	if err != nil {
		t.Fatal(err)
	}
	nt := stream.MustTuple(narrow, 2, stream.Float(20), stream.Int(1))
	if out, err := b.RouteTuple(nt, 0); err != nil || len(out) != 1 {
		t.Fatalf("projection of the registered layout: %d deliveries, err %v", len(out), err)
	}
	drifted := stream.MustSchema("Sensor1",
		stream.Field{Name: "station", Kind: stream.KindInt},
		stream.Field{Name: "temp", Kind: stream.KindString},
	)
	dt := stream.MustTuple(drifted, 3, stream.Int(1), stream.String_("hot"))
	if out, err := b.RouteTuple(dt, 0); err == nil {
		t.Fatalf("kind-drifted layout routed %d deliveries; want the catalog error", len(out))
	}
}

// TestCompiledRoutingSchemaDrift checks the two pointer-mismatch cases:
// a new pointer with identical layout keeps the compiled entry (an
// upstream rebuild must not evict downstream brokers), while a layout
// change recompiles the entry for the schema the traffic now carries and
// the next tuple of that layout is back on the lock-free path.
func TestCompiledRoutingSchemaDrift(t *testing.T) {
	b := NewBroker(0)
	b.HandleDemand(tempProfile(10, []string{"station", "temp"}), 1)

	if _, err := b.RouteTuple(sensorTuple(1, 1, 20, 50), 0); err != nil {
		t.Fatal(err)
	}
	st := b.table.Load().streams["Sensor1"]
	if st == nil || st.schema != sensorSchema {
		t.Fatal("table should be keyed by the first tuple's schema pointer")
	}

	// Equal layout, new pointer: the compiled entry still applies.
	samelayout := sensorSchema.Rename("Sensor1")
	dt := stream.MustTuple(samelayout, 2, stream.Int(1), stream.Float(25), stream.Float(50))
	got, err := b.RouteTuple(dt, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRoute(b, dt, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameDeliveries(t, got, want, "layout-equal schema")
	if b.table.Load().streams["Sensor1"] != st {
		t.Fatal("layout-equal schema should keep the compiled entry")
	}

	// Reordered layout: the old entry's indices would be wrong, so the
	// entry is recompiled for the schema the traffic actually carries.
	reordered := stream.MustSchema("Sensor1",
		stream.Field{Name: "temp", Kind: stream.KindFloat},
		stream.Field{Name: "station", Kind: stream.KindInt},
		stream.Field{Name: "humidity", Kind: stream.KindFloat},
	)
	rt := stream.MustTuple(reordered, 3, stream.Float(25), stream.Int(1), stream.Float(50))
	got, err = b.RouteTuple(rt, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err = referenceRoute(b, rt, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameDeliveries(t, got, want, "reordered schema")
	if len(got) != 1 {
		t.Fatalf("reordered tuple should still be delivered, got %d", len(got))
	}
	cur := b.table.Load().streams["Sensor1"]
	if cur == st || cur.schema != reordered || cur.err != nil {
		t.Fatalf("entry should be recompiled for the new schema, got %+v", cur)
	}
	// The next tuple of the new layout routes from the published entry.
	if _, err := b.RouteTuple(stream.MustTuple(reordered, 4, stream.Float(26), stream.Int(1), stream.Float(50)), 0); err != nil {
		t.Fatal(err)
	}
	if b.table.Load().streams["Sensor1"] != cur {
		t.Fatal("second tuple of the new layout must not recompile")
	}
}

// TestCompiledTableSurvivesUpstreamRebuild checks, over a two-hop
// SimNet, that a control-plane change local to the upstream broker does
// not evict the downstream broker's compiled table: the upstream rebuild
// reuses (interns) the projected schema pointer, so the tuples it emits
// keep hitting the downstream fast path.
func TestCompiledTableSurvivesUpstreamRebuild(t *testing.T) {
	net := lineNet(2)
	src := net.AttachClient(0)
	delivered := 0
	sink := net.AttachClient(1)
	sink.OnTuple = func(stream.Tuple) { delivered++ }
	src.Advertise("Sensor1")
	sink.Subscribe(tempProfile(10, []string{"station", "temp"}))

	if err := src.Publish(sensorTuple(1, 1, 20, 50)); err != nil {
		t.Fatal(err)
	}
	down := net.Broker(1).table.Load().streams["Sensor1"]
	if down == nil || down.err != nil {
		t.Fatal("downstream broker should have a compiled entry")
	}

	// A subscription arriving at the upstream broker only (fully covered,
	// so nothing propagates downstream) invalidates broker 0's entry.
	extra := net.AttachClient(0)
	extra.Subscribe(tempProfile(30, []string{"station", "temp"}))
	if tbl := net.Broker(0).table.Load(); tbl != nil && tbl.streams["Sensor1"] != nil {
		t.Fatal("upstream entry should be invalidated by the new subscription")
	}

	if err := src.Publish(sensorTuple(2, 1, 21, 50)); err != nil {
		t.Fatal(err)
	}
	cur := net.Broker(1).table.Load().streams["Sensor1"]
	if cur != down {
		t.Fatal("downstream compiled entry should be untouched by the upstream rebuild")
	}
	up := net.Broker(0).table.Load().streams["Sensor1"]
	if up == nil || up.err != nil {
		t.Fatal("upstream broker should have recompiled")
	}
	// The recompiled upstream route must emit tuples with the interned
	// projected schema pointer the downstream entry is keyed on.
	if len(up.routes) == 0 || up.routes[0].view.ProjSchema != down.schema {
		t.Fatalf("upstream rebuild minted a fresh projected schema pointer: %p vs %p",
			up.routes[0].view.ProjSchema, down.schema)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d tuples, want 2", delivered)
	}
}

// TestControlPlaneInvalidatesCompiledTable checks that a control-plane
// mutation discards the compiled entries of exactly the streams it
// touched — a demand change or an unadvertisement leaves every other
// stream's entry in place, pointer for pointer — demand on a new
// interface included, and that rebuilt routing reflects the new state.
func TestControlPlaneInvalidatesCompiledTable(t *testing.T) {
	other := stream.MustSchema("Sensor2", sensorSchema.Fields...)
	otherTuple := stream.MustTuple(other, 1, stream.Int(2), stream.Float(20), stream.Float(50))
	build := func() (*Broker, *streamTable) {
		b := NewBroker(0)
		b.HandleDemand(tempProfile(10, nil), 1)
		p := profile.New()
		p.AddStream("Sensor2", nil, predicate.DNF{{predicate.C("temp", predicate.GT, stream.Float(10))}})
		addDemand(b, p, 1)
		for _, tp := range []stream.Tuple{sensorTuple(1, 1, 20, 50), otherTuple} {
			if _, err := b.RouteTuple(tp, 0); err != nil {
				t.Fatal(err)
			}
		}
		tbl := b.table.Load()
		if tbl == nil || tbl.streams["Sensor1"] == nil || tbl.streams["Sensor2"] == nil {
			t.Fatal("routing a tuple should publish its stream's compiled entry")
		}
		return b, tbl.streams["Sensor2"]
	}
	// touchedOnly checks that Sensor1's entry is gone and Sensor2's kept.
	touchedOnly := func(t *testing.T, b *Broker, kept *streamTable, op string) {
		t.Helper()
		tbl := b.table.Load()
		if tbl == nil {
			t.Fatalf("%s must not discard the untouched streams' entries", op)
		}
		if tbl.streams["Sensor1"] != nil {
			t.Fatalf("%s must invalidate the touched stream's entry", op)
		}
		if tbl.streams["Sensor2"] != kept {
			t.Fatalf("%s must leave the untouched stream's entry in place", op)
		}
	}

	t.Run("WidenDemand", func(t *testing.T) {
		b, kept := build()
		addDemand(b, tempProfile(5, nil), 1) // widens Sensor1's demand
		touchedOnly(t, b, kept, "widening HandleDemand")
		out, err := b.RouteTuple(sensorTuple(2, 1, 8, 50), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 {
			t.Fatalf("rebuilt entry should deliver once, got %d", len(out))
		}
	})

	t.Run("NewIfaceDemand", func(t *testing.T) {
		b, kept := build()
		b.HandleDemand(tempProfile(30, nil), 2)
		touchedOnly(t, b, kept, "demand on a new interface")
		out, err := b.RouteTuple(sensorTuple(2, 1, 35, 50), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Fatalf("rebuilt table should deliver to both subscribers, got %d", len(out))
		}
	})

	t.Run("HandleDemand", func(t *testing.T) {
		b, kept := build()
		b.HandleDemand(nil, 1, "Sensor1")
		touchedOnly(t, b, kept, "HandleDemand")
		out, err := b.RouteTuple(sensorTuple(2, 1, 20, 50), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Fatalf("after the demand is withdrawn nothing should be delivered, got %d", len(out))
		}
		if out, _ := b.RouteTuple(otherTuple, 0); len(out) != 1 {
			t.Fatalf("the untouched stream should still be delivered, got %d", len(out))
		}
	})

	t.Run("PruneStream", func(t *testing.T) {
		b, kept := build()
		b.pruneStream("Sensor1")
		touchedOnly(t, b, kept, "an unadvertisement")
		out, err := b.RouteTuple(sensorTuple(2, 1, 20, 50), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Fatalf("after prune nothing should be delivered, got %d", len(out))
		}
	})
}

// TestSimNetQueueCompaction exercises the drain head-index bookkeeping
// through a deep multicast cascade (every event fans out downstream),
// with the compaction threshold lowered so mid-drain compaction actually
// runs.
func TestSimNetQueueCompaction(t *testing.T) {
	orig := drainCompactThreshold
	drainCompactThreshold = 4
	defer func() { drainCompactThreshold = orig }()
	const hops = 40
	net := lineNet(hops)
	src := net.AttachClient(0)
	delivered := 0
	sink := net.AttachClient(hops - 1)
	sink.OnTuple = func(stream.Tuple) { delivered++ }
	src.Advertise("Sensor1")
	sink.Subscribe(tempProfile(0, nil))
	for i := 0; i < 50; i++ {
		if err := src.Publish(sensorTuple(stream.Timestamp(i), 1, 25, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if delivered != 50 {
		t.Fatalf("delivered %d tuples, want 50", delivered)
	}
	if len(net.queue) != 0 || net.qhead != 0 {
		t.Fatalf("queue not reset after quiescence: len=%d head=%d", len(net.queue), net.qhead)
	}
}

// TestCompactQueueBookkeeping drives compactQueue directly over crafted
// queue states: pending events must survive in order, consumed slots
// must be zeroed, and the no-op case must not disturb anything.
func TestCompactQueueBookkeeping(t *testing.T) {
	n := NewSimNet(1)
	mk := func(name string) event { return event{message: message{kind: msgAdvertise, name: name}} }

	// No-op when nothing has been consumed.
	n.queue = []event{mk("a"), mk("b")}
	n.qhead = 0
	n.compactQueue()
	if len(n.queue) != 2 || n.queue[0].name != "a" || n.queue[1].name != "b" {
		t.Fatalf("no-op compaction mangled the queue: %+v", n.queue)
	}

	// Pending suffix slides to the front; freed capacity is zeroed.
	n.queue = []event{{}, {}, {}, mk("c"), mk("d")}
	n.qhead = 3
	n.compactQueue()
	if n.qhead != 0 {
		t.Fatalf("qhead = %d after compaction, want 0", n.qhead)
	}
	if len(n.queue) != 2 || n.queue[0].name != "c" || n.queue[1].name != "d" {
		t.Fatalf("pending events lost: %+v", n.queue)
	}
	for i, e := range n.queue[:cap(n.queue)][len(n.queue):] {
		if e.name != "" || e.prof != nil || e.tuple.Schema != nil || e.tuple.Values != nil {
			t.Fatalf("freed slot %d not zeroed: %+v", i, e)
		}
	}

	// Fully consumed queue compacts to empty.
	n.queue = []event{{}, {}}
	n.qhead = 2
	n.compactQueue()
	if len(n.queue) != 0 || n.qhead != 0 {
		t.Fatalf("fully consumed queue: len=%d head=%d", len(n.queue), n.qhead)
	}
}
