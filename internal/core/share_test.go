package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cosmos/internal/overlay"
	"cosmos/internal/stream"
)

// bodySink is a Submit-side sink that reads every member's columns
// straight off the delivered body, the tuple the network handed the
// proxy, and appends to that body's values. A body that shares a run of
// the source tuple's values must be capped, or the append would write
// the columns after the run under the other readers (which -race
// reports).
type bodySink struct{ check func(stream.Tuple) }

func (s *bodySink) Open() Receiver { return s }

func (s *bodySink) Deliver(lay *Layout, t stream.Tuple, match []bool) {
	for i := range lay.Members {
		if !match[i] {
			continue
		}
		m := &lay.Members[i]
		vals := make([]stream.Value, len(m.Idx))
		for k, j := range m.Idx {
			vals[k] = t.Values[lay.Cols[j]]
		}
		s.check(stream.Tuple{Schema: m.Out, Ts: t.Ts, Values: vals})
	}
	_ = append(t.Values, stream.Int(-1))
}

// liveQuery is one subscriber of TestLiveSharedSelectionResults.
type liveQuery struct {
	text  string
	node  int
	body  bool // read through bodySink instead of a callback
	every int  // the query selects the seqs with seq%100 >= every
}

// TestLiveSharedSelectionResults runs selections over one source on a
// sharded LiveSystem. Some read the whole stream, some a run of it and
// some a gapped subset, through callbacks and through a sink reading the
// delivered bodies. While the source keeps publishing, every subscriber
// appends to the values it is handed. Every result must carry the
// source's values under the query's column names, and every query must
// receive each tuple it selects exactly once.
//
// Merged, the selections form one representative over the whole stream.
// Unmerged, each runs a plan of its own and none reads v2, so the
// processor receives the run seq..v1 of the source tuple's values and a
// plan that selects seq..v0 but filters on v1 shares a run that stops
// short of that input: only a capped share keeps the appends off v1,
// which the other plans read.
func TestLiveSharedSelectionResults(t *testing.T) {
	t.Run("merged", func(t *testing.T) {
		testLiveSharedSelections(t, true, []liveQuery{
			{"SELECT seq, pubns, v0, v1, v2 FROM Load [Now]", 3, false, 0},
			{"SELECT seq, pubns, v0, v1, v2 FROM Load [Now]", 4, true, 0},
			{"SELECT seq, pubns FROM Load [Now]", 5, false, 0},
			{"SELECT pubns, v0, v1 FROM Load [Now]", 4, true, 0},
			{"SELECT seq, v1 FROM Load [Now]", 6, false, 0},
			{"SELECT v2, pubns FROM Load [Now] WHERE v0 >= 50", 7, true, 50},
			{"SELECT seq, v2 FROM Load [Now] WHERE v0 >= 30", 3, false, 30},
		})
	})
	t.Run("unmerged", func(t *testing.T) {
		testLiveSharedSelections(t, false, []liveQuery{
			{"SELECT seq, pubns, v0, v1 FROM Load [Now]", 3, true, 0},
			{"SELECT seq, pubns, v0 FROM Load [Now] WHERE v1 >= 0", 4, true, 0},
			{"SELECT seq, pubns, v0 FROM Load [Now] WHERE v1 >= 0", 5, false, 0},
			{"SELECT seq, v1 FROM Load [Now]", 6, false, 0},
			{"SELECT v1, pubns FROM Load [Now] WHERE v0 >= 50", 7, true, 50},
			{"SELECT pubns, v0 FROM Load [Now] WHERE v0 >= 30", 3, false, 30},
		})
	})
}

func testLiveSharedSelections(t *testing.T, merged bool, queries []liveQuery) {
	info := &stream.Info{Schema: stream.MustSchema("Load",
		stream.Field{Name: "seq", Kind: stream.KindInt},
		stream.Field{Name: "pubns", Kind: stream.KindInt},
		stream.Field{Name: "v0", Kind: stream.KindFloat},
		stream.Field{Name: "v1", Kind: stream.KindFloat},
		stream.Field{Name: "v2", Kind: stream.KindFloat},
	), Rate: 1000}
	value := func(seq int64, col string) stream.Value {
		switch col {
		case "seq":
			return stream.Int(seq)
		case "pubns":
			return stream.Int(seq * 1000)
		case "v0":
			return stream.Float(float64(seq % 100))
		case "v1":
			return stream.Float(float64(seq) + 0.25)
		default:
			return stream.Float(float64(seq) + 0.5)
		}
	}
	ls, err := NewLiveSystem(Options{Nodes: 8, Seed: 5, Processors: 1, ExecWorkers: 2, DisableMerging: !merged})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	port, err := ls.RegisterStream(info, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bad atomic.Value
	var mu sync.Mutex
	counts := map[string]int{}
	check := func(tp stream.Tuple) {
		seq := tp.Ts
		ok := true
		for k, f := range tp.Schema.Fields {
			ok = ok && tp.Values[k].Equal(value(int64(seq), strings.TrimPrefix(f.Name, "Load.")))
		}
		if !ok {
			bad.CompareAndSwap(nil, fmt.Sprintf("%s: got %s as %v", tp.Schema.Stream, tp, tp.Schema.AttrNames()))
		}
		_ = append(tp.Values, stream.Int(-1))
		mu.Lock()
		counts[tp.Schema.Stream]++
		mu.Unlock()
	}
	sink := &bodySink{check: check}
	tags := make([]string, len(queries))
	for i, q := range queries {
		var h *QueryHandle
		if q.body {
			h, err = ls.SubmitTo(q.text, q.node, sink, nil)
		} else {
			h, err = ls.Submit(q.text, q.node, check)
		}
		if err != nil {
			t.Fatalf("submit %q: %v", q.text, err)
		}
		tags[i] = h.Tag
	}
	want := len(queries)
	if merged {
		want = 1
	}
	if g := ls.Processors()[0].Groups(); g != want {
		t.Fatalf("%d groups, want %d", g, want)
	}
	ls.Quiesce()
	const n = 3000
	for seq := int64(0); seq < n; seq++ {
		vals := make([]stream.Value, info.Schema.Arity())
		for k, f := range info.Schema.Fields {
			vals[k] = value(seq, f.Name)
		}
		if err := port.Publish(stream.MustTuple(info.Schema, stream.Timestamp(seq), vals...)); err != nil {
			t.Fatal(err)
		}
	}
	ls.Quiesce()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, q := range queries {
		if want := n / 100 * (100 - q.every); counts[tags[i]] != want {
			t.Errorf("%s: %d results, want %d", q.text, counts[tags[i]], want)
		}
	}
}

// TestSubmitDeliverSharesRuns pins Submit's delivery: a member whose
// columns are the whole delivered tuple, or one contiguous run of it,
// receives that run of the routed tuple's values, capped, and the
// proxy's delivery allocates nothing; only a gapped member's row is
// copied out, into a row cut from the receiver's slab. The three
// queries merge into one group, and only links project, so each proxy
// receives the representative's whole result: the first member's
// columns are all of it, the second's the run pubns, v0 within it, and
// the third's v1, seq are gapped in it.
func TestSubmitDeliverSharesRuns(t *testing.T) {
	info := &stream.Info{Schema: stream.MustSchema("Load",
		stream.Field{Name: "seq", Kind: stream.KindInt},
		stream.Field{Name: "pubns", Kind: stream.KindInt},
		stream.Field{Name: "v0", Kind: stream.KindFloat},
		stream.Field{Name: "v1", Kind: stream.KindFloat},
		stream.Field{Name: "v2", Kind: stream.KindFloat},
	), Rate: 1000}
	sys, err := NewSystem(Options{Nodes: 8, Seed: 5, Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	port, err := sys.RegisterStream(info, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		text   string
		width  int // the delivered tuple's arity
		lo, hi int // the member's run of it; hi == 0: gapped
	}{
		{"SELECT seq, pubns, v0, v1, v2 FROM Load [Now]", 5, 0, 5},
		{"SELECT pubns, v0 FROM Load [Now] WHERE v1 >= 0", 5, 1, 3},
		{"SELECT v1, seq FROM Load [Now]", 5, 0, 0},
	} {
		var got stream.Tuple
		h, err := sys.Submit(tc.text, 3, func(r stream.Tuple) { got = r })
		if err != nil {
			t.Fatalf("submit %q: %v", tc.text, err)
		}
		// Keep the last tuple the network hands the proxy.
		px := h.px
		var delivered stream.Tuple
		px.client.SetOnTuple(func(d stream.Tuple) {
			delivered = d
			px.deliver(d)
		})
		defer func() {
			if err := sys.Cancel(h); err != nil {
				t.Error(err)
			}
		}()
		if err := port.Publish(stream.MustTuple(info.Schema, 7,
			stream.Int(7), stream.Int(7000), stream.Float(1.5), stream.Float(2.5), stream.Float(3.5))); err != nil {
			t.Fatal(err)
		}
		if got.Schema == nil {
			t.Fatalf("%s: no result", tc.text)
		}
		m := px.lay.Members[0]
		if len(delivered.Values) != tc.width || m.Lo != tc.lo || m.Hi != tc.hi {
			t.Fatalf("%s: member run [%d, %d) of %s, want [%d, %d)", tc.text, m.Lo, m.Hi, delivered.Schema, tc.lo, tc.hi)
		}
		if tc.hi > 0 && (&got.Values[0] != &delivered.Values[tc.lo] || cap(got.Values) != tc.hi-tc.lo) {
			t.Fatalf("%s: result %s does not share the capped run [%d, %d) of %s", tc.text, got, tc.lo, tc.hi, delivered)
		}
		// A run costs nothing; a gapped row is cut from the receiver's
		// slab, a chunk per SlabChunk/2 rows.
		const runs = 1000
		bound := background
		if tc.hi == 0 {
			bound += carved(runs, len(m.Idx))
		}
		if n := mallocs(runs, func() { px.deliver(delivered) }); n > bound {
			t.Errorf("%s: %d deliveries allocate %d times, want at most %d", tc.text, runs, n, bound)
		}
	}
	if g := sys.Processors()[0].Groups(); g != 1 {
		t.Errorf("%d groups, want 1", g)
	}
}

// TestMergedJoinMembersCopyOnce pins delivery on the shape of the
// paper's auction example: four q1/q2 pairs of OpenAuction [Range 3|5
// Hour] ⋈ ClosedAuction [Now], each query its own Submit, merged into
// one group at processor node 0 of Figure 3's overlay, q1s at node 2 and
// q2s at node 3. Every member's column list is gapped in the
// representative's result, a client hop does not project and routing
// recycles its delivery slices, so a matching close costs its published
// tuple, its join result and one copy per member, the last two cut from
// the plan's and each receiver's slab; every member receives exactly
// what it receives alone.
func TestMergedJoinMembersCopyOnce(t *testing.T) {
	open := &stream.Info{Schema: stream.MustSchema("OpenAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "seller", Kind: stream.KindInt},
		stream.Field{Name: "category", Kind: stream.KindInt},
		stream.Field{Name: "reserve", Kind: stream.KindFloat},
		stream.Field{Name: "pubns", Kind: stream.KindInt},
	), Rate: 500}
	closed := &stream.Info{Schema: stream.MustSchema("ClosedAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "buyer", Kind: stream.KindInt},
		stream.Field{Name: "category", Kind: stream.KindInt},
		stream.Field{Name: "final", Kind: stream.KindFloat},
		stream.Field{Name: "pubns", Kind: stream.KindInt},
	), Rate: 500}
	var queries []string
	var nodes []int
	for _, cols := range []string{
		"O.itemID, C.buyer, C.pubns",
		"O.itemID, O.seller, C.buyer, C.pubns",
		"O.itemID, C.final, C.pubns",
		"O.itemID, O.reserve, C.final, C.pubns",
	} {
		for _, q := range []struct{ hours, node int }{{3, 2}, {5, 3}} {
			queries = append(queries, fmt.Sprintf(
				"SELECT %s FROM OpenAuction [Range %d Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID", cols, q.hours))
			nodes = append(nodes, q.node)
		}
	}
	newSys := func() (*System, *SourcePort, *SourcePort) {
		sys, err := NewSystem(Options{
			Tree: &overlay.Tree{
				Root:      0,
				Parent:    []int{-1, 0, 1, 1},
				Children:  [][]int{{1}, {2, 3}, {}, {}},
				LinkDelay: []float64{0, 10, 10, 10},
			},
			ProcessorNodes: []int{0},
			Seed:           1,
		})
		if err != nil {
			t.Fatal(err)
		}
		openPort, err := sys.RegisterStream(open, 0)
		if err != nil {
			t.Fatal(err)
		}
		closedPort, err := sys.RegisterStream(closed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sys, openPort, closedPort
	}
	// Items 1..6 open an hour apart; each closes 2 hours after the last
	// open, so q1s see items 4..6 and q2s items 2..6.
	publish := func(openPort, closedPort *SourcePort) {
		for item := int64(1); item <= 6; item++ {
			ts := stream.Timestamp(item) * stream.Timestamp(stream.Hour)
			if err := openPort.Publish(stream.MustTuple(open.Schema, ts,
				stream.Int(item), stream.Int(100+item), stream.Int(item%3), stream.Float(float64(item)*10), stream.Int(int64(ts)))); err != nil {
				t.Fatal(err)
			}
		}
		for item := int64(1); item <= 6; item++ {
			ts := 8*stream.Timestamp(stream.Hour) + stream.Timestamp(item)
			if err := closedPort.Publish(stream.MustTuple(closed.Schema, ts,
				stream.Int(item), stream.Int(200+item), stream.Int(item%3), stream.Float(float64(item)*20), stream.Int(int64(ts)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	render := func(rs []stream.Tuple) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprint(r.Ts, r.Values)
		}
		return out
	}

	sys, openPort, closedPort := newSys()
	measuring := false
	got := make([][]stream.Tuple, len(queries))
	for i, q := range queries {
		if _, err := sys.Submit(q, nodes[i], func(r stream.Tuple) {
			if !measuring {
				got[i] = append(got[i], r)
			}
		}); err != nil {
			t.Fatalf("submit %q: %v", q, err)
		}
	}
	if g := sys.Processors()[0].Groups(); g != 1 {
		t.Fatalf("%d groups, want 1", g)
	}
	publish(openPort, closedPort)
	for i, q := range queries {
		solo, soloOpen, soloClosed := newSys()
		var want []stream.Tuple
		if _, err := solo.Submit(q, nodes[i], func(r stream.Tuple) { want = append(want, r) }); err != nil {
			t.Fatal(err)
		}
		publish(soloOpen, soloClosed)
		if g, w := render(got[i]), render(want); len(w) == 0 || !slices.Equal(g, w) {
			t.Errorf("%s at node %d: merged %v, solo %v", q, nodes[i], g, w)
		}
	}

	// Every member's columns leave a gap in the delivered result, the
	// representative's whole row, so each is copied out once.
	gapped := 0
	for _, px := range sys.proxies {
		for _, m := range px.lay.Members {
			if m.Hi == 0 {
				gapped++
			}
		}
	}
	if gapped != len(queries) {
		t.Errorf("%d gapped members, want all %d", gapped, len(queries))
	}
	// More closes of item 6, which every member sees. Besides the
	// copies, each allocates the published tuple and the join's one
	// result; routing recycles the sync System's delivery slices.
	measuring = true
	ts := 8*stream.Timestamp(stream.Hour) + 100
	const runs = 100
	join := 0
	allocs := mallocs(runs, func() {
		ts++
		if err := closedPort.Publish(stream.MustTuple(closed.Schema, ts,
			stream.Int(6), stream.Int(206), stream.Int(0), stream.Float(120), stream.Int(int64(ts)))); err != nil {
			t.Fatal(err)
		}
	})
	bound := runs + background // the published tuples
	for _, px := range sys.proxies {
		for _, m := range px.lay.Members {
			bound += carved(runs, len(m.Idx))
		}
		join = px.lay.schema.Arity()
	}
	bound += carved(runs, join)
	if allocs > bound {
		t.Errorf("%d matching closes allocate %d times, want at most %d: one per published tuple, and the join result (%d values) and each gapped member's copy (%d members) cut from slabs",
			runs, allocs, bound, join, gapped)
	}
}

// mallocs counts the heap allocations of runs calls of f on one P, as
// testing.AllocsPerRun does, without rounding their mean down to a
// whole number: a row cut from a slab costs a fraction of one.
func mallocs(runs int, f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

// carved bounds the chunks cutting rows rows of width values from a
// slab allocates: one per SlabChunk/width rows, the first possibly
// partly cut already.
func carved(rows, width int) int {
	return rows/(stream.SlabChunk/width) + 1
}

// background allows for the few allocations the runtime makes on its
// own while mallocs counts.
const background = 8

// TestSubmitProxiesDeliverConcurrently: proxies deliver concurrently,
// each under its own lock, and a Submit's sink may have several (one per
// group its query passes through), so each proxy it opens must get a
// receiver of its own whose slab no other proxy cuts from. Two
// receivers of one sink copy gapped members out concurrently (-race
// reports a shared slab); every result kept must still read its
// tuple's values once both are done.
func TestSubmitProxiesDeliverConcurrently(t *testing.T) {
	in := stream.MustSchema("Load",
		stream.Field{Name: "seq", Kind: stream.KindInt},
		stream.Field{Name: "pubns", Kind: stream.KindInt},
		stream.Field{Name: "v0", Kind: stream.KindFloat},
		stream.Field{Name: "v1", Kind: stream.KindFloat},
	)
	out := stream.MustSchema("q",
		stream.Field{Name: "v1", Kind: stream.KindFloat},
		stream.Field{Name: "seq", Kind: stream.KindInt},
	)
	// v1, seq is gapped in the delivered layout: each result is a copy.
	lay := &Layout{Cols: []int{3, 0}, Members: []Member{{Out: out, Idx: []int{0, 1}}}}
	var mu sync.Mutex
	var kept []stream.Tuple
	sink := &funcSink{fn: func(r stream.Tuple) {
		mu.Lock()
		kept = append(kept, r)
		mu.Unlock()
	}}
	recvs := []Receiver{sink.Open(), sink.Open()}
	if recvs[0] == recvs[1] {
		t.Fatal("Open handed two proxies one receiver")
	}
	const n = 2000
	var wg sync.WaitGroup
	for g, recv := range recvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				seq := int64(g*n + i)
				recv.Deliver(lay, stream.MustTuple(in, stream.Timestamp(seq),
					stream.Int(seq), stream.Int(seq*1000), stream.Float(0), stream.Float(float64(seq)+0.25)), []bool{true})
			}
		}()
	}
	wg.Wait()
	if len(kept) != 2*n {
		t.Fatalf("%d results, want %d", len(kept), 2*n)
	}
	for _, r := range kept {
		seq := int64(r.Ts)
		if len(r.Values) != 2 || cap(r.Values) != 2 || !r.Values[0].Equal(stream.Float(float64(seq)+0.25)) || !r.Values[1].Equal(stream.Int(seq)) {
			t.Fatalf("result %s (cap %d) does not read v1, seq of tuple %d", r, cap(r.Values), seq)
		}
	}
}
