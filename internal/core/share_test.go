package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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
// copied out. The three queries merge into one group, so each proxy
// receives the representative's result stream projected to its own
// demand: the whole tuple for the first, the run pubns, v0 widened by
// the re-tightening filter's v1 for the second, and seq, v1 in the
// representative's order, not the query's, for the third.
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
		allocs float64
	}{
		{"SELECT seq, pubns, v0, v1, v2 FROM Load [Now]", 5, 0, 5, 0},
		{"SELECT pubns, v0 FROM Load [Now] WHERE v1 >= 0", 3, 0, 2, 0},
		{"SELECT v1, seq FROM Load [Now]", 2, 0, 0, 1},
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
		if allocs := testing.AllocsPerRun(1000, func() { px.deliver(delivered) }); allocs != tc.allocs {
			t.Errorf("%s: delivery allocates %.1f/op, want %.0f", tc.text, allocs, tc.allocs)
		}
	}
	if g := sys.Processors()[0].Groups(); g != 1 {
		t.Errorf("%d groups, want 1", g)
	}
}
