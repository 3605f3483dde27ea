package spe

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/merge"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// loadCatalog holds one five-column load stream: a sequence number, a
// publish offset and three float payload columns.
func loadCatalog() *stream.Registry {
	r := stream.NewRegistry()
	if err := r.Register(&stream.Info{
		Schema: stream.MustSchema("Load00",
			stream.Field{Name: "seq", Kind: stream.KindInt},
			stream.Field{Name: "pubns", Kind: stream.KindInt},
			stream.Field{Name: "v0", Kind: stream.KindFloat},
			stream.Field{Name: "v1", Kind: stream.KindFloat},
			stream.Field{Name: "v2", Kind: stream.KindFloat},
		),
		Rate: 1000,
	}); err != nil {
		panic(err)
	}
	return r
}

func loadTuple(reg *stream.Registry, ts stream.Timestamp) stream.Tuple {
	sch, _ := reg.Schema("Load00")
	return stream.MustTuple(sch, ts, stream.Int(int64(ts)), stream.Int(int64(ts)*1000),
		stream.Float(1.5), stream.Float(2.5), stream.Float(3.5))
}

// mergedFanout is the representative of four selections over Load00
// whose lists grow by one column each, merged in submission order.
func mergedFanout(t *testing.T, reg *stream.Registry) *cql.Bound {
	t.Helper()
	var rep *cql.Bound
	for _, list := range []string{"seq, pubns", "seq, pubns, v0", "seq, pubns, v0, v1", "seq, pubns, v0, v1, v2"} {
		q, err := cql.AnalyzeString("SELECT "+list+" FROM Load00 [Now]", reg)
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			rep = q
		} else if rep, err = merge.Queries(rep, q, merge.ExactUnion); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

// TestSelectRunPushAppendAllocationFree pins the selection's share: when
// the select list is one contiguous run of the input's columns and those
// columns sit together in the pushed tuple's layout, PushAppend into a
// reused dst emits that run of the tuple's values without allocating.
// The cases are the merged representative of four growing lists (every
// column of the stream) and a run in the middle of an input that a
// filter widens on both sides, fed the query profile's early projection,
// and a run fed the whole source tuple, wider than the input — what a
// processor whose other plans need more columns receives — so that the
// adapter is not the identity.
func TestSelectRunPushAppendAllocationFree(t *testing.T) {
	reg := loadCatalog()
	mid, err := cql.AnalyzeString("SELECT pubns, v0 FROM Load00 [Now] WHERE seq >= 0 AND v1 >= 0", reg)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := cql.AnalyzeString("SELECT pubns, v0 FROM Load00 [Now] WHERE seq >= 0", reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		b      *cql.Bound
		lo, hi int  // the run, in the pushed tuple's columns
		whole  bool // push the source tuple, not the query's projection of it
	}{
		{"merged representative", mergedFanout(t, reg), 0, 5, false},
		{"mid-schema run", mid, 1, 3, false},
		{"run of a wider tuple", narrow, 1, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile("q", tc.b, "res")
			if err != nil {
				t.Fatal(err)
			}
			tp := loadTuple(reg, 1)
			if !tc.whole {
				cs, err := profile.FromQuery(tc.b).CompileFor(tp.Schema)
				if err != nil {
					t.Fatal(err)
				}
				tp = cs.Apply(tp)
			}
			dst, err := p.PushAppend(nil, tp)
			if err != nil || len(dst) != 1 {
				t.Fatalf("push = %v, %v; want one result", dst, err)
			}
			if got := &dst[0].Values[0]; got != &tp.Values[tc.lo] || len(dst[0].Values) != tc.hi-tc.lo {
				t.Fatalf("result %s does not share the run [%d, %d) of %s", dst[0], tc.lo, tc.hi, tp)
			}
			if tc.whole && p.inputs[0].ad.identity {
				t.Fatalf("%s binds the identity adapter to the input %s", tp.Schema, p.inputs[0].schema)
			}
			if allocs := testing.AllocsPerRun(1000, func() {
				if dst, err = p.PushAppend(dst[:0], tp); err != nil || len(dst) != 1 {
					t.Fatalf("push = %v, %v; want one result", dst, err)
				}
			}); allocs != 0 {
				t.Errorf("PushAppend allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// TestNowAggregatePushOneAllocation pins a [Now] aggregate's group
// recycling: each push expires the previous row, whose group empties
// and leaves, and admits a row of another group, which takes the
// emptied group's state. A push into a reused dst allocates only for
// the emitted row's values, which the plan cuts from its slab: one
// chunk per SlabChunk/4 rows.
func TestNowAggregatePushOneAllocation(t *testing.T) {
	b := bind(t, "SELECT station, COUNT(*), MAX(temp), SUM(temp) FROM Sensor [Now] GROUP BY station")
	p, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := catalog().Schema("Sensor")
	tuples := make([]stream.Tuple, 4096)
	for i := range tuples {
		tuples[i] = stream.MustTuple(sch, stream.Timestamp(int64(i)*int64(stream.Second)),
			stream.Int(int64(i%4)), stream.Float(float64(i%17)))
	}
	var dst []stream.Tuple
	i := 0
	push := func() {
		if dst, err = p.PushAppend(dst[:0], tuples[i]); err != nil || len(dst) != 1 {
			t.Fatalf("push %d = %v, %v; want one row", i, dst, err)
		}
		if n := dst[0].Values[1].AsInt(); n != 1 {
			t.Fatalf("push %d: group count %d, want 1", i, n)
		}
		i++
	}
	for i < 64 {
		push()
	}
	const runs = 2000
	if got, bound := mallocs(runs, push), carved(runs, 4)+background; got > bound {
		t.Errorf("%d [Now] aggregate pushes allocate %d times, want at most %d", runs, got, bound)
	}
	if n := len(p.agg.groups); n != 1 {
		t.Errorf("%d groups resident, want 1", n)
	}
}

// TestGroupedAggregatePushOneAllocation pins a grouped aggregate's
// steady state: with its groups and window pages warm, a push into a
// reused dst allocates only for the emitted row's values, cut from the
// plan's slab.
func TestGroupedAggregatePushOneAllocation(t *testing.T) {
	b := bind(t, "SELECT station, COUNT(*), MAX(temp), SUM(temp) FROM Sensor [Range 1 Minute] GROUP BY station")
	p, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	// One tuple a second over four stations: the window holds a steady
	// 61 rows once the first minute has passed.
	sch, _ := catalog().Schema("Sensor")
	tuples := make([]stream.Tuple, 4096)
	for i := range tuples {
		tuples[i] = stream.MustTuple(sch, stream.Timestamp(int64(i)*int64(stream.Second)),
			stream.Int(int64(i%4)), stream.Float(float64(i%17)))
	}
	var dst []stream.Tuple
	i := 0
	push := func() {
		if dst, err = p.PushAppend(dst[:0], tuples[i]); err != nil || len(dst) != 1 {
			t.Fatalf("push %d = %v, %v; want one row", i, dst, err)
		}
		i++
	}
	for i < 1024 {
		push()
	}
	const runs = 2000
	if got, bound := mallocs(runs, push), carved(runs, 4)+background; got > bound {
		t.Errorf("%d grouped aggregate pushes allocate %d times, want at most %d", runs, got, bound)
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

// aliases reports whether a and b share any element of their backing
// arrays.
func aliases(a, b []stream.Value) bool {
	a, b = a[:cap(a)], b[:cap(b)]
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

// TestSelectShareProperty checks the selection's share over random
// schemas and single-input select lists, with and without a filter, fed
// tuples in the catalog layout, in the input's own layout and in a
// shuffled one. Every PushAppend output must equal the reference
// executor's in values and order; every result's Values must have
// cap == len; a result must alias the pushed tuple exactly when the
// select list is a run of the input's columns and those columns sit
// together, in list order, in the pushed tuple's layout, and never the
// plan's reusable rows (the adapter's row, the join scratch). Results
// kept across later pushes must keep their values.
func TestSelectShareProperty(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	kinds := []stream.Kind{stream.KindInt, stream.KindFloat, stream.KindString}
	value := func(k stream.Kind) stream.Value {
		switch k {
		case stream.KindInt:
			return stream.Int(int64(r.Intn(100)))
		case stream.KindFloat:
			return stream.Float(100 * r.Float64())
		default:
			return stream.String_(fmt.Sprint(r.Intn(100)))
		}
	}
	shared, copied := 0, 0
	for trial := 0; trial < 1500; trial++ {
		arity := 1 + r.Intn(7)
		fields := make([]stream.Field, arity)
		for i, n := range r.Perm(10)[:arity] {
			fields[i] = stream.Field{Name: fmt.Sprintf("a%d", n), Kind: kinds[r.Intn(len(kinds))]}
		}
		src := stream.MustSchema("R", fields...)
		reg := stream.NewRegistry()
		if err := reg.Register(&stream.Info{Schema: src, Rate: 1}); err != nil {
			t.Fatal(err)
		}
		// Half the lists are a run of the source in its order, half a
		// random subset in random order.
		var cols []string
		if r.Intn(2) == 0 {
			lo := r.Intn(arity)
			for _, f := range fields[lo : lo+1+r.Intn(arity-lo)] {
				cols = append(cols, f.Name)
			}
		} else {
			for _, i := range r.Perm(arity)[:1+r.Intn(arity)] {
				cols = append(cols, fields[i].Name)
			}
		}
		q := fmt.Sprintf("SELECT %s FROM R [Now]", strings.Join(cols, ", "))
		if f := fields[r.Intn(arity)]; f.Kind != stream.KindString && r.Intn(2) == 0 {
			q += fmt.Sprintf(" WHERE %s >= 30", f.Name)
		}
		b, err := cql.AnalyzeString(q, reg)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		p, err := Compile("q", b, "res")
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ref := referenceTwin(t, "q", b, "res")
		in := p.inputs[0]
		// The select list is a run of the input when its columns sit on
		// consecutive input positions in list order.
		run := true
		for k, c := range cols {
			if in.schema.ColIndex(c) != in.schema.ColIndex(cols[0])+k {
				run = false
			}
		}
		layouts := []*stream.Schema{src}
		if own := in.schema.AttrNames(); len(own) > 1 {
			shuffled := append([]string(nil), own...)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, names := range [][]string{own, shuffled} {
				s, err := src.Project(names)
				if err != nil {
					t.Fatal(err)
				}
				layouts = append(layouts, s)
			}
		}
		var dst, held []stream.Tuple
		var heldVals [][]stream.Value
		for ts := stream.Timestamp(0); ts < 6; ts++ {
			full := make([]stream.Value, arity)
			for i, f := range fields {
				full[i] = value(f.Kind)
			}
			tp, err := stream.MustTuple(src, ts, full...).Project(layouts[r.Intn(len(layouts))])
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%s over %s, pushed %s", q, src, tp.Schema)
			dst, err = p.PushAppend(dst[:0], tp)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			want, err := ref.pushReference(tp)
			if err != nil {
				t.Fatalf("%s: reference: %v", ctx, err)
			}
			if len(dst) != len(want) {
				t.Fatalf("%s: %d results, reference %d", ctx, len(dst), len(want))
			}
			for i, g := range dst {
				if g.Ts != want[i].Ts || !reflect.DeepEqual(g.Values, want[i].Values) {
					t.Fatalf("%s: result %s, reference %s", ctx, g, want[i])
				}
				if cap(g.Values) != len(g.Values) {
					t.Fatalf("%s: result values cap %d, len %d", ctx, cap(g.Values), len(g.Values))
				}
				together := true
				for k, c := range cols {
					if tp.Schema.ColIndex(c) != tp.Schema.ColIndex(cols[0])+k {
						together = false
					}
				}
				if a := aliases(g.Values, tp.Values); a != (run && together) {
					t.Fatalf("%s: result aliases the pushed tuple: %v, want %v (run %v, together in the pushed layout %v)",
						ctx, a, run && together, run, together)
				} else if a {
					shared++
				} else {
					copied++
				}
				if aliases(g.Values, in.vals) || aliases(g.Values, p.cp.scratch) {
					t.Fatalf("%s: result aliases the plan's reusable rows", ctx)
				}
				held = append(held, g)
				heldVals = append(heldVals, append([]stream.Value(nil), g.Values...))
			}
		}
		for i, g := range held {
			if !reflect.DeepEqual(g.Values, heldVals[i]) {
				t.Fatalf("%s: a held result changed to %v from %v", q, g.Values, heldVals[i])
			}
		}
	}
	if shared < 500 || copied < 500 {
		t.Fatalf("too few cases: %d shared, %d copied", shared, copied)
	}
}
