package exec_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cosmos/internal/cql"
	"cosmos/internal/exec"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
)

// workload is a randomized querygen mix (select, self-join equi and
// non-equi, aggregate) plus the tuple trace driving it — the same shape
// as the spe compiled-path differential.
type workload struct {
	reg    *stream.Registry
	bounds []*cql.Bound
	tuples []stream.Tuple
}

const workloadStations = 5

func buildWorkload(t *testing.T, queries, rounds int) *workload {
	t.Helper()
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	gen, err := querygen.New(querygen.Config{
		Dist:         querygen.Zipf10,
		Seed:         23,
		Streams:      workloadStations,
		AggFraction:  0.3,
		JoinFraction: 0.3,
		WindowMenu: []stream.Duration{
			2 * stream.Minute, 5 * stream.Minute, 10 * stream.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := gen.BindBatch(queries, reg)
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]*sensordata.Generator, workloadStations)
	for s := range gens {
		gens[s] = sensordata.NewGenerator(s, int64(s+1))
	}
	var tuples []stream.Tuple
	for round := 0; round < rounds; round++ {
		for s := range gens {
			tuples = append(tuples, gens[s].Next())
		}
	}
	return &workload{reg: reg, bounds: bounds, tuples: tuples}
}

func planID(i int) string { return fmt.Sprintf("q%03d", i) }

// sequential is the independent reference the runtime is differentially
// checked against: each tuple pushed through every plan in plan-ID order
// on the caller's goroutine (Plan.Push ignores a stream the plan does
// not consume), the first error aborting the tuple. It shares nothing
// with the runtime's dispatch table, worker pinning or locking.
type sequential []*spe.Plan

func (ref sequential) consume(t stream.Tuple, emit func(stream.Tuple)) error {
	for _, p := range ref {
		out, err := p.Push(t)
		if err != nil {
			return err
		}
		for _, r := range out {
			emit(r)
		}
	}
	return nil
}

// runReference drives the sequential reference over the workload and
// returns the rendered global emission sequence. planID order is
// install order.
func runReference(t *testing.T, w *workload) []string {
	t.Helper()
	ref := make(sequential, len(w.bounds))
	for i, b := range w.bounds {
		p, err := spe.Compile(planID(i), b, "res"+planID(i))
		if err != nil {
			t.Fatalf("compile %d (%s): %v", i, b.Raw, err)
		}
		ref[i] = p
	}
	var out []string
	for _, tp := range w.tuples {
		if err := ref.consume(tp, func(r stream.Tuple) { out = append(out, r.String()) }); err != nil {
			t.Fatalf("reference consume: %v", err)
		}
	}
	return out
}

// collector gathers runtime emissions; safe for concurrent emit.
type collector struct {
	mu  sync.Mutex
	out []string
}

func (c *collector) emit(t stream.Tuple) {
	c.mu.Lock()
	c.out = append(c.out, t.String())
	c.mu.Unlock()
}

func (c *collector) rendered() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.out...)
}

func installAll(t *testing.T, rt *exec.Runtime, w *workload) {
	t.Helper()
	for i, b := range w.bounds {
		if _, err := rt.Install(planID(i), b, "res"+planID(i)); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
}

func diffSequences(t *testing.T, ctx string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d emissions, reference %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emission %d differs:\nruntime:   %s\nreference: %s", ctx, i, got[i], want[i])
		}
	}
}

// byPlan groups a rendered emission sequence by result stream (one per
// plan), preserving order within each plan.
func byPlan(seq []string) map[string][]string {
	out := map[string][]string{}
	for _, s := range seq {
		name := s
		if i := strings.IndexByte(s, '@'); i >= 0 {
			name = s[:i]
		}
		out[name] = append(out[name], s)
	}
	return out
}

// TestRuntimeDifferentialQuerygen is the keystone differential test of
// the execution runtime: over a randomized querygen workload the
// runtime must reproduce the sequential reference —
// byte-identical globally in synchronous and single-worker modes, and
// byte-identical per plan in sharded mode, at batch sizes 1, 16 and 64.
func TestRuntimeDifferentialQuerygen(t *testing.T) {
	w := buildWorkload(t, 40, 90)
	want := runReference(t, w)
	if len(want) == 0 {
		t.Fatal("reference emitted nothing; differential is vacuous")
	}

	t.Run("sync", func(t *testing.T) {
		var c collector
		rt := exec.New(exec.Config{Emit: c.emit})
		defer rt.Close()
		installAll(t, rt, w)
		for _, tp := range w.tuples {
			if err := rt.Consume(tp); err != nil {
				t.Fatalf("consume: %v", err)
			}
		}
		diffSequences(t, "sync", c.rendered(), want)
	})

	for _, batch := range []int{16, 64} {
		t.Run(fmt.Sprintf("sync-batch%d", batch), func(t *testing.T) {
			var c collector
			rt := exec.New(exec.Config{Emit: c.emit})
			defer rt.Close()
			installAll(t, rt, w)
			for i := 0; i < len(w.tuples); i += batch {
				j := i + batch
				if j > len(w.tuples) {
					j = len(w.tuples)
				}
				if err := rt.ConsumeBatch(w.tuples[i:j]); err != nil {
					t.Fatalf("consume batch: %v", err)
				}
			}
			diffSequences(t, "sync-batch", c.rendered(), want)
		})
	}

	// One worker: all plans share a FIFO shard, so even the global
	// emission order must reproduce the sequential reference.
	t.Run("workers1", func(t *testing.T) {
		var c collector
		rt := exec.New(exec.Config{Workers: 1, Emit: c.emit})
		defer rt.Close()
		installAll(t, rt, w)
		for _, tp := range w.tuples {
			if err := rt.Consume(tp); err != nil {
				t.Fatalf("consume: %v", err)
			}
		}
		rt.Barrier()
		diffSequences(t, "workers1", c.rendered(), want)
	})

	// Sharded: per-plan sequences must match the reference exactly;
	// cross-plan interleaving is unconstrained.
	for _, cfg := range []struct {
		workers, batch int
	}{{3, 1}, {3, 16}, {4, 64}} {
		name := fmt.Sprintf("workers%d-batch%d", cfg.workers, cfg.batch)
		t.Run(name, func(t *testing.T) {
			var c collector
			rt := exec.New(exec.Config{Workers: cfg.workers, Emit: c.emit})
			defer rt.Close()
			installAll(t, rt, w)
			for i := 0; i < len(w.tuples); i += cfg.batch {
				j := i + cfg.batch
				if j > len(w.tuples) {
					j = len(w.tuples)
				}
				if err := rt.ConsumeBatch(w.tuples[i:j]); err != nil {
					t.Fatalf("consume batch: %v", err)
				}
			}
			rt.Barrier()
			got := byPlan(c.rendered())
			ref := byPlan(want)
			if len(got) != len(ref) {
				t.Fatalf("%s: %d emitting plans, reference %d", name, len(got), len(ref))
			}
			plans := make([]string, 0, len(ref))
			for p := range ref {
				plans = append(plans, p)
			}
			sort.Strings(plans)
			for _, p := range plans {
				diffSequences(t, name+"/"+p, got[p], ref[p])
			}
		})
	}
}

// TestRuntimeErrorParity: a tuple whose schema drifted under a stream
// name (missing a needed attribute) must produce the same error as the
// sequential reference in synchronous mode, and surface through OnError —
// with the failing plan's ID — in both modes.
func TestRuntimeErrorParity(t *testing.T) {
	reg := stream.NewRegistry()
	full := stream.MustSchema("S",
		stream.Field{Name: "a", Kind: stream.KindInt},
		stream.Field{Name: "b", Kind: stream.KindInt},
	)
	if err := reg.Register(&stream.Info{Schema: full, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := cql.AnalyzeString("SELECT a FROM S [Now] WHERE b > 0", reg)
	if err != nil {
		t.Fatal(err)
	}
	// Same stream name, but the attribute the plan needs is gone.
	drifted := stream.MustSchema("S", stream.Field{Name: "a", Kind: stream.KindInt})
	bad := stream.MustTuple(drifted, 1, stream.Int(1))

	p0, err := spe.Compile("p0", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	refErr := sequential{p0}.consume(bad, nil)
	if refErr == nil {
		t.Fatal("reference accepted drifted tuple")
	}

	var gotPlan string
	var gotErr error
	rt := exec.New(exec.Config{OnError: func(id string, err error) { gotPlan, gotErr = id, err }})
	defer rt.Close()
	if _, err := rt.Install("p0", b, "res"); err != nil {
		t.Fatal(err)
	}
	err = rt.Consume(bad)
	if err == nil || err.Error() != refErr.Error() {
		t.Fatalf("sync error = %v, reference %v", err, refErr)
	}
	if gotPlan != "p0" || gotErr == nil || gotErr.Error() != refErr.Error() {
		t.Fatalf("OnError = (%q, %v), want (p0, %v)", gotPlan, gotErr, refErr)
	}

	// Sharded: the error surfaces via OnError only, and other plans keep
	// running.
	var mu sync.Mutex
	var asyncPlans []string
	var emitted int
	rtA := exec.New(exec.Config{
		Workers: 2,
		Emit: func(stream.Tuple) {
			mu.Lock()
			emitted++
			mu.Unlock()
		},
		OnError: func(id string, err error) {
			mu.Lock()
			asyncPlans = append(asyncPlans, id)
			mu.Unlock()
		},
	})
	defer rtA.Close()
	if _, err := rtA.Install("p0", b, "res0"); err != nil {
		t.Fatal(err)
	}
	ok, err := cql.AnalyzeString("SELECT a FROM S [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtA.Install("p1", ok, "res1"); err != nil {
		t.Fatal(err)
	}
	if err := rtA.Consume(bad); err != nil {
		t.Fatalf("sharded Consume returned %v; errors should flow to OnError", err)
	}
	rtA.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if len(asyncPlans) != 1 || asyncPlans[0] != "p0" {
		t.Fatalf("async OnError plans = %v", asyncPlans)
	}
	if emitted != 1 {
		t.Fatalf("plan p1 emitted %d results, want 1 (drifted tuple still has attribute a)", emitted)
	}
}

// TestWithPlanQuiescesOnlyTarget: holding one plan captured must not
// block consumption for plans on other workers.
func TestWithPlanQuiescesOnlyTarget(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	qa, err := cql.AnalyzeString("SELECT station FROM Sensor00 [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := cql.AnalyzeString("SELECT station FROM Sensor01 [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var emitted []string
	rt := exec.New(exec.Config{Workers: 2, Emit: func(tp stream.Tuple) {
		mu.Lock()
		emitted = append(emitted, tp.Schema.Stream)
		mu.Unlock()
	}})
	defer rt.Close()
	// Install order pins A to worker 0, B to worker 1.
	if _, err := rt.Install("A", qa, "resA"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Install("B", qb, "resB"); err != nil {
		t.Fatal(err)
	}

	holdA := make(chan struct{})
	captured := make(chan struct{})
	go rt.WithPlan("A", func(*spe.Plan) {
		close(captured)
		<-holdA
	})
	<-captured

	// With A held, B must keep consuming and draining.
	done := make(chan struct{})
	go func() {
		defer close(done)
		gen := sensordata.NewGenerator(1, 7)
		for i := 0; i < 64; i++ {
			rt.Consume(gen.Next())
		}
		rt.Drain("B")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumption for plan B blocked while plan A was captured")
	}
	close(holdA)
	rt.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) != 64 {
		t.Fatalf("plan B emitted %d results, want 64", len(emitted))
	}
}

// TestDispatchNoMatchAllocationFree: a tuple of a stream no plan
// consumes must cost zero allocations on the dispatch path, in both
// modes — the dispatch table is precomputed at Install/Remove time.
func TestDispatchNoMatchAllocationFree(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	b, err := cql.AnalyzeString("SELECT station FROM Sensor00 [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	noMatch := sensordata.NewGenerator(3, 1).Next() // Sensor03: no plans

	for _, workers := range []int{0, 2} {
		rt := exec.New(exec.Config{Workers: workers})
		for i := 0; i < 4; i++ {
			if _, err := rt.Install(fmt.Sprintf("p%d", i), b, fmt.Sprintf("r%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := rt.Consume(noMatch); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("workers=%d: no-match Consume allocates %.1f/op, want 0", workers, allocs)
		}
		rt.Close()
	}
}

// TestInstallReplaceRemove: a tuple reaches every plan of its stream,
// re-installing an ID swaps the plan in place, and a removed plan stops
// emitting and leaves Plans.
func TestInstallReplaceRemove(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	var got []string
	rt := exec.New(exec.Config{Emit: func(tp stream.Tuple) { got = append(got, tp.Schema.Stream) }})
	defer rt.Close()
	install := func(id, where string) {
		b, err := cql.AnalyzeString("SELECT station FROM Sensor00 [Now]"+where, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Install(id, b, "res"+id); err != nil {
			t.Fatal(err)
		}
	}
	schema, _ := reg.Schema(sensordata.StreamName(0))
	var ts stream.Timestamp
	consume := func(temp float64) string {
		got = nil
		ts++
		tp := stream.MustTuple(schema, ts, stream.Int(0), stream.Float(temp), stream.Float(50), stream.Float(0), stream.Float(4))
		if err := rt.Consume(tp); err != nil {
			t.Fatal(err)
		}
		return strings.Join(got, ",")
	}
	install("q1", "")
	install("q2", "")
	if out := consume(20); out != "resq1,resq2" {
		t.Fatalf("two plans emitted %q", out)
	}
	install("q1", " WHERE temperature > 30") // replaced by a narrower plan
	if out := consume(20); out != "resq2" {
		t.Fatalf("after replace: %q", out)
	}
	rt.Remove("q2")
	if out := consume(40); out != "resq1" {
		t.Fatalf("after remove, the new q1 emitted %q", out)
	}
	if plans := rt.Plans(); len(plans) != 1 || plans[0] != "q1" {
		t.Fatalf("plans = %v", plans)
	}
}

// TestReplaceDrainsQueuedTuples: replacing a plan in sharded mode must
// drain the plan's worker queue first, so tuples enqueued before the
// replacement reach the OLD plan — synchronous mode's semantics.
func TestReplaceDrainsQueuedTuples(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	b, err := cql.AnalyzeString("SELECT station FROM Sensor00 [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[string]int{}
	rt := exec.New(exec.Config{Workers: 1, Emit: func(tp stream.Tuple) {
		mu.Lock()
		counts[tp.Schema.Stream]++
		mu.Unlock()
	}})
	defer rt.Close()
	if _, err := rt.Install("A", b, "resOld"); err != nil {
		t.Fatal(err)
	}
	// Hold the plan's lock so tuples pile up in the worker queue.
	held := make(chan struct{})
	release := make(chan struct{})
	go rt.WithPlan("A", func(*spe.Plan) {
		close(held)
		<-release
	})
	<-held
	gen := sensordata.NewGenerator(0, 4)
	for i := 0; i < 9; i++ {
		if err := rt.Consume(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	// Replace while 9 tuples are queued: Install must not swap before
	// they reach the old plan.
	installed := make(chan error, 1)
	go func() {
		_, err := rt.Install("A", b, "resNew")
		installed <- err
	}()
	close(release)
	if err := <-installed; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rt.Consume(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	rt.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if counts["resOld"] != 9 || counts["resNew"] != 3 {
		t.Fatalf("emissions = %v, want resOld:9 resNew:3", counts)
	}
}

// TestConsumeBatchContinuesPastErrors: a failing tuple inside a batch
// must not drop the tuples after it — ConsumeBatch matches per-tuple
// Consume semantics, returning the first error.
func TestConsumeBatchContinuesPastErrors(t *testing.T) {
	reg := stream.NewRegistry()
	full := stream.MustSchema("S",
		stream.Field{Name: "a", Kind: stream.KindInt},
		stream.Field{Name: "b", Kind: stream.KindInt},
	)
	if err := reg.Register(&stream.Info{Schema: full, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	bound, err := cql.AnalyzeString("SELECT a FROM S [Now] WHERE b > 0", reg)
	if err != nil {
		t.Fatal(err)
	}
	drifted := stream.MustSchema("S", stream.Field{Name: "a", Kind: stream.KindInt})
	good := func(ts int64) stream.Tuple {
		return stream.MustTuple(full, stream.Timestamp(ts), stream.Int(1), stream.Int(1))
	}
	var c collector
	var errMu sync.Mutex
	var errIDs []string
	rt := exec.New(exec.Config{Emit: c.emit, OnError: func(id string, err error) {
		errMu.Lock()
		errIDs = append(errIDs, id)
		errMu.Unlock()
	}})
	defer rt.Close()
	if _, err := rt.Install("p0", bound, "res"); err != nil {
		t.Fatal(err)
	}
	batch := []stream.Tuple{
		{}, // schema-less
		good(1),
		stream.MustTuple(drifted, 2, stream.Int(1)), // plan error (missing b)
		good(3),
	}
	err = rt.ConsumeBatch(batch)
	if err == nil {
		t.Fatal("batch with failing tuples returned nil")
	}
	if got := c.rendered(); len(got) != 2 {
		t.Fatalf("emitted %d results, want 2 (the two good tuples)", len(got))
	}
	errMu.Lock()
	defer errMu.Unlock()
	if len(errIDs) != 2 || errIDs[0] != "" || errIDs[1] != "p0" {
		t.Fatalf("OnError ids = %v, want [\"\" p0]", errIDs)
	}
}

// TestInstallRemoveUnderLoad exercises control-plane mutations racing
// the data plane (run under -race in CI).
func TestInstallRemoveUnderLoad(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	b, err := cql.AnalyzeString("SELECT station, temperature FROM Sensor00 [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(exec.Config{Workers: 3})
	defer rt.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := sensordata.NewGenerator(0, 5)
		for {
			select {
			case <-stop:
				return
			default:
				rt.Consume(gen.Next())
			}
		}
	}()
	for round := 0; round < 50; round++ {
		id := fmt.Sprintf("p%d", round%7)
		if _, err := rt.Install(id, b, "res-"+id); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			rt.Remove(id)
		}
		if round%5 == 0 {
			rt.Drain(id)
		}
	}
	close(stop)
	wg.Wait()
	rt.Barrier()
	// Removed plans are gone; surviving ones still listed.
	for _, id := range rt.Plans() {
		if _, ok := rt.Plan(id); !ok {
			t.Errorf("plan %s listed but not retrievable", id)
		}
	}
}

// TestCloseDropsWork: after Close the runtime accepts no work and
// Consume is a safe no-op.
func TestCloseDropsWork(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	b, err := cql.AnalyzeString("SELECT station FROM Sensor00 [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(exec.Config{Workers: 2})
	if _, err := rt.Install("p0", b, "res"); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // idempotent
	if err := rt.Consume(sensordata.NewGenerator(0, 1).Next()); err != nil {
		t.Fatalf("consume after close: %v", err)
	}
	if _, err := rt.Install("p1", b, "res2"); err == nil {
		t.Fatal("install after close should fail")
	}
	rt.Barrier() // must not hang
}

// TestStatsSnapshotWindowGauges: a plan's WindowRows/WindowBytes are its
// resident window state as the plan itself reports it — a [Now]
// selection holds none, an aggregate's range holds its live rows.
func TestStatsSnapshotWindowGauges(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	rt := exec.New(exec.Config{})
	defer rt.Close()
	for id, q := range map[string]string{
		"agg": "SELECT station, MAX(temperature) FROM Sensor00 [Range 1 Hour] GROUP BY station",
		"sel": "SELECT station FROM Sensor00 [Now]",
	} {
		b, err := cql.AnalyzeString(q, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Install(id, b, "res"+id); err != nil {
			t.Fatal(err)
		}
	}
	gen := sensordata.NewGenerator(0, 7)
	const pushed = 40
	for i := 0; i < pushed; i++ {
		rt.Consume(gen.Next())
	}
	plans, _ := rt.StatsSnapshot()
	if len(plans) != 2 || plans[0].Plan != "agg" || plans[1].Plan != "sel" {
		t.Fatalf("plans = %+v", plans)
	}
	var rows int
	var bytes int64
	rt.WithPlan("agg", func(p *spe.Plan) { rows, bytes = p.WindowStats() })
	if agg := plans[0]; agg.WindowRows != rows || agg.WindowBytes != bytes || rows != pushed || bytes == 0 {
		t.Errorf("agg gauges %d rows / %d B, plan reports %d / %d after %d pushes",
			agg.WindowRows, agg.WindowBytes, rows, bytes, pushed)
	}
	if sel := plans[1]; sel.WindowRows != 0 || sel.WindowBytes != 0 {
		t.Errorf("[Now] selection holds %d rows / %d B, want none", sel.WindowRows, sel.WindowBytes)
	}
}
