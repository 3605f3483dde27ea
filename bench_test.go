// Benchmarks regenerating the paper's evaluation (one per figure) plus
// ablations for the design choices DESIGN.md calls out, and
// micro-benchmarks of the hot paths.
//
// The figure benches attach the measured experiment metrics to the
// benchmark output via ReportMetric, so `go test -bench=Figure` prints
// the numbers behind Figures 3 and 4; `go run ./cmd/figures` prints the
// full series in the paper's layout.
package cosmos_test

import (
	"fmt"
	"testing"

	"cosmos/internal/cbn"
	"cosmos/internal/cost"
	"cosmos/internal/cql"
	"cosmos/internal/exec"
	"cosmos/internal/merge"
	"cosmos/internal/overlay"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/sim"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

// benchQueries is the per-iteration query count for the Figure 4
// benches: the first checkpoint of the paper's sweep. The full
// 2000…10000 series is produced by cmd/figures.
const benchQueries = 2000

// BenchmarkFigure4aBenefitRatio regenerates Figure 4(a)'s first
// checkpoint for every workload distribution; the benefit ratio is
// attached as a custom metric.
func BenchmarkFigure4aBenefitRatio(b *testing.B) {
	for _, dist := range querygen.PaperDistributions() {
		b.Run(dist.Name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				results, err := sim.Sweep(sim.Config{
					Dist: dist,
					Seed: int64(i + 1),
				}, []int{benchQueries})
				if err != nil {
					b.Fatal(err)
				}
				last = results[0].BenefitRatio
			}
			b.ReportMetric(last, "benefit-ratio")
		})
	}
}

// BenchmarkFigure4bGroupingRatio regenerates Figure 4(b)'s first
// checkpoint per distribution.
func BenchmarkFigure4bGroupingRatio(b *testing.B) {
	for _, dist := range querygen.PaperDistributions() {
		b.Run(dist.Name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				results, err := sim.Sweep(sim.Config{
					Dist: dist,
					Seed: int64(i + 1),
				}, []int{benchQueries})
				if err != nil {
					b.Fatal(err)
				}
				last = results[0].GroupingRatio
			}
			b.ReportMetric(last, "grouping-ratio")
		})
	}
}

// BenchmarkFigure3ShareVsNonShare runs the Figure 3 scenario end to end
// (real SPE + CBN, both strategies) and reports the byte saving on the
// shared link.
func BenchmarkFigure3ShareVsNonShare(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFigure3(300, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range res.Links {
			if l.Name == "n1-n2" {
				saving = 1 - float64(l.ShareBytes)/float64(l.NonShareBytes)
			}
		}
	}
	b.ReportMetric(100*saving, "shared-link-saving-%")
}

// BenchmarkAblationMergeMode compares ExactUnion against ConvexHull
// representative composition (DESIGN.md ablation): hull keeps filters
// tiny but loosens them, trading benefit for optimizer speed.
func BenchmarkAblationMergeMode(b *testing.B) {
	for _, mode := range []merge.Mode{merge.ExactUnion, merge.ConvexHull} {
		b.Run(mode.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				results, err := sim.Sweep(sim.Config{
					Dist: querygen.Zipf15,
					Seed: int64(i + 1),
					Mode: mode,
				}, []int{benchQueries})
				if err != nil {
					b.Fatal(err)
				}
				last = results[0].BenefitRatio
			}
			b.ReportMetric(last, "benefit-ratio")
		})
	}
}

// BenchmarkAblationProjection measures the data layer's early-projection
// saving (the paper's extension of CBN, §3.1): identical filters, with
// and without a projection set, over a 3-hop path.
func BenchmarkAblationProjection(b *testing.B) {
	run := func(b *testing.B, attrs []string) int64 {
		net := cbn.NewSimNet(4)
		for i := 0; i < 3; i++ {
			net.AddLink(i, i+1, 10)
		}
		schema := sensordata.Schema(0)
		src := net.AttachClient(0)
		sub := net.AttachClient(3)
		sub.OnTuple = func(stream.Tuple) {}
		src.Advertise(schema.Stream)
		p := profile.New()
		p.AddStream(schema.Stream, attrs, nil)
		sub.Subscribe(p)
		gen := sensordata.NewGenerator(0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.Publish(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
		return net.TotalDataBytes()
	}
	var full, projected int64
	b.Run("full-tuples", func(b *testing.B) {
		full = run(b, nil)
		b.ReportMetric(float64(full)/float64(b.N), "bytes/tuple")
	})
	b.Run("projected", func(b *testing.B) {
		projected = run(b, []string{"station", "temperature"})
		b.ReportMetric(float64(projected)/float64(b.N), "bytes/tuple")
	})
}

// BenchmarkAblationReorg quantifies the overlay optimizer (§3.2): cost
// of a naive star dissemination tree vs the locally reorganised tree.
func BenchmarkAblationReorg(b *testing.B) {
	g, err := topology.GeneratePowerLaw(200, 2, 11)
	if err != nil {
		b.Fatal(err)
	}
	delays := overlay.AllPairsDelays(g)
	rates := make([]float64, g.NumNodes())
	for i := range rates {
		rates[i] = float64(10 + i%90)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := overlay.Star(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		before := tree.TotalCost(overlay.DelayBpsCost, rates, 8, 1e6)
		reorg := overlay.NewReorganizer(tree, overlay.ReorgOptions{
			DelayFn:       func(a, b int) float64 { return delays[a][b] },
			MaxDegree:     8,
			DegreePenalty: 1e6,
			MaxRounds:     50,
		})
		reorg.Run(rates)
		after := tree.TotalCost(overlay.DelayBpsCost, rates, 8, 1e6)
		ratio = after / before
	}
	b.ReportMetric(ratio, "cost-ratio")
}

// BenchmarkAblationTreeStructure compares dissemination-tree shapes
// under the shared-content cost (one stream multicast to every node —
// the paper's dissemination scenario): the paper's MST choice vs. the
// shortest-path tree (what unicast systems induce) vs. a star. Reported
// metric is cost relative to the MST, which is provably minimal here.
func BenchmarkAblationTreeStructure(b *testing.B) {
	g, err := topology.GeneratePowerLaw(500, 2, 17)
	if err != nil {
		b.Fatal(err)
	}
	subscribers := make([]bool, g.NumNodes())
	for i := range subscribers {
		subscribers[i] = true
	}
	mst, err := overlay.MST(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	base := mst.SharedCost(1000, subscribers)
	build := map[string]func() (*overlay.Tree, error){
		"mst":  func() (*overlay.Tree, error) { return overlay.MST(g, 0) },
		"spt":  func() (*overlay.Tree, error) { return overlay.SPT(g, 0) },
		"star": func() (*overlay.Tree, error) { return overlay.Star(g, 0) },
	}
	for _, name := range []string{"mst", "spt", "star"} {
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				tree, err := build[name]()
				if err != nil {
					b.Fatal(err)
				}
				ratio = tree.SharedCost(1000, subscribers) / base
			}
			b.ReportMetric(ratio, "cost-vs-mst")
		})
	}
}

// BenchmarkAblationMaxCandidates sweeps the optimiser's candidate-scan
// bound: the knob trading insertion time against merging quality at
// scale. Benefit ratio is reported alongside the insertion throughput.
func BenchmarkAblationMaxCandidates(b *testing.B) {
	for _, mc := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("cap-%d", mc), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				results, err := sim.Sweep(sim.Config{
					Dist:          querygen.Zipf15,
					Seed:          int64(i + 1),
					MaxCandidates: mc,
				}, []int{benchQueries})
				if err != nil {
					b.Fatal(err)
				}
				last = results[0].BenefitRatio
			}
			b.ReportMetric(last, "benefit-ratio")
		})
	}
}

// --- Micro-benchmarks of the hot paths ---

func sensorCatalog(b *testing.B) *stream.Registry {
	b.Helper()
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		b.Fatal(err)
	}
	return reg
}

// BenchmarkPredicateEval measures one conjunctive filter evaluation —
// the per-datagram cost of CBN routing.
func BenchmarkPredicateEval(b *testing.B) {
	cj := predicate.Conj{
		predicate.C("temperature", predicate.GE, stream.Float(10)),
		predicate.C("temperature", predicate.LE, stream.Float(30)),
		predicate.C("station", predicate.EQ, stream.Int(7)),
	}
	t := sensordata.NewGenerator(7, 1).Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cj.Eval(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerRoute measures a broker routing one datagram across 8
// interfaces with distinct subscriptions.
func BenchmarkBrokerRoute(b *testing.B) {
	broker := cbn.NewBroker(0)
	broker.AttachIface(0)
	for i := 1; i <= 8; i++ {
		broker.AttachIface(cbn.IfaceID(i))
		p := profile.New()
		p.AddStream("Sensor07", []string{"station", "temperature"}, predicate.DNF{
			{predicate.C("temperature", predicate.GT, stream.Float(float64(i*5)))},
		})
		broker.HandleSubscribe(p, cbn.IfaceID(i))
	}
	gen := sensordata.NewGenerator(7, 1)
	tuples := gen.Take(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.RouteTuple(tuples[i%len(tuples)], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerRouteFanout measures the compiled data plane under high
// fan-out: one broker, 32 subscribed interfaces of mixed selectivity
// (tight bands, wide bands, equality filters, unfiltered). The no-match
// variant routes a tuple no subscription covers — the pure per-tuple
// filtering cost, which must be allocation free.
func BenchmarkBrokerRouteFanout(b *testing.B) {
	build := func() *cbn.Broker {
		broker := cbn.NewBroker(0)
		broker.AttachIface(0)
		for i := 1; i <= 32; i++ {
			broker.AttachIface(cbn.IfaceID(i))
			p := profile.New()
			switch i % 4 {
			case 0: // unfiltered, projected
				p.AddStream("Sensor07", []string{"station", "temperature"}, nil)
			case 1: // tight band
				lo := float64(i)
				p.AddStream("Sensor07", []string{"temperature"}, predicate.DNF{{
					predicate.C("temperature", predicate.GE, stream.Float(lo)),
					predicate.C("temperature", predicate.LE, stream.Float(lo+2)),
				}})
			case 2: // wide band
				p.AddStream("Sensor07", nil, predicate.DNF{
					{predicate.C("temperature", predicate.GT, stream.Float(float64(i-20)))},
				})
			default: // equality on a different attribute
				p.AddStream("Sensor07", []string{"station", "humidity"}, predicate.DNF{
					{predicate.C("station", predicate.EQ, stream.Int(int64(i%3*7)))},
				})
			}
			broker.HandleSubscribe(p, cbn.IfaceID(i))
		}
		return broker
	}
	b.Run("mixed", func(b *testing.B) {
		broker := build()
		tuples := sensordata.NewGenerator(7, 1).Take(1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := broker.RouteTuple(tuples[i%len(tuples)], 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-match", func(b *testing.B) {
		broker := cbn.NewBroker(0)
		broker.AttachIface(0)
		for i := 1; i <= 32; i++ {
			broker.AttachIface(cbn.IfaceID(i))
			p := profile.New()
			p.AddStream("Sensor07", []string{"station"}, predicate.DNF{
				{predicate.C("station", predicate.EQ, stream.Int(int64(100+i)))},
			})
			broker.HandleSubscribe(p, cbn.IfaceID(i))
		}
		tp := sensordata.NewGenerator(7, 1).Next() // station=7 matches nothing
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := broker.RouteTuple(tp, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != 0 {
				b.Fatal("tuple unexpectedly matched")
			}
		}
	})
}

// BenchmarkCompiledPredicateEval measures one compiled filter evaluation
// against the interpreted BenchmarkPredicateEval baseline: the same
// three-constraint conjunction with attribute references pre-resolved to
// column indices.
func BenchmarkCompiledPredicateEval(b *testing.B) {
	d := predicate.DNF{{
		predicate.C("temperature", predicate.GE, stream.Float(10)),
		predicate.C("temperature", predicate.LE, stream.Float(30)),
		predicate.C("station", predicate.EQ, stream.Int(7)),
	}}
	t := sensordata.NewGenerator(7, 1).Next()
	c, err := predicate.Compile(d, t.Schema)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EvalValues(t.Values, t.Ts)
	}
}

// BenchmarkPlanJoinPush measures the window join push path with a
// realistic in-window population.
func BenchmarkPlanJoinPush(b *testing.B) {
	reg := stream.NewRegistry()
	open := &stream.Info{Schema: stream.MustSchema("OpenAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "timestamp", Kind: stream.KindTime},
	), Rate: 50}
	closed := &stream.Info{Schema: stream.MustSchema("ClosedAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "timestamp", Kind: stream.KindTime},
	), Rate: 30}
	reg.Register(open)
	reg.Register(closed)
	bound, err := cql.AnalyzeString(
		"SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID", reg)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := spe.Compile("bench", bound, "res")
	if err != nil {
		b.Fatal(err)
	}
	// Pre-populate a 1-hour window with ~360 opens (one per 10s).
	for i := 0; i < 360; i++ {
		ts := stream.Timestamp(i * 10000)
		plan.Push(stream.MustTuple(open.Schema, ts, stream.Int(int64(i)), stream.Time(ts)))
	}
	base := stream.Timestamp(3600 * 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := base + stream.Timestamp(i%1000)
		t := stream.MustTuple(closed.Schema, ts, stream.Int(int64(i%360)), stream.Time(ts))
		if _, err := plan.Push(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanSelectPush measures the single-stream select-project push
// path: per-tuple selection plus projection into the result schema.
func BenchmarkPlanSelectPush(b *testing.B) {
	reg := sensorCatalog(b)
	bound, err := cql.AnalyzeString(
		"SELECT station, temperature FROM Sensor07 [Now] WHERE temperature >= -100 AND humidity <= 200", reg)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := spe.Compile("bench", bound, "res")
	if err != nil {
		b.Fatal(err)
	}
	tuples := sensordata.NewGenerator(7, 1).Take(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Push(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanAggPush measures the grouped windowed aggregation push
// path with a realistic in-window population (~120 tuples per group,
// 8 groups): per-tuple grouping plus aggregate evaluation.
func BenchmarkPlanAggPush(b *testing.B) {
	reg := stream.NewRegistry()
	sensor := &stream.Info{Schema: stream.MustSchema("Sensor",
		stream.Field{Name: "station", Kind: stream.KindInt},
		stream.Field{Name: "temp", Kind: stream.KindFloat},
	), Rate: 10}
	reg.Register(sensor)
	bound, err := cql.AnalyzeString(
		"SELECT station, COUNT(*), AVG(temp), MAX(temp) FROM Sensor [Range 1 Hour] GROUP BY station", reg)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := spe.Compile("bench", bound, "res")
	if err != nil {
		b.Fatal(err)
	}
	// Pre-populate the 1-hour window: 8 stations, one reading per
	// station per 30s → ~120 live tuples per group.
	for i := 0; i < 960; i++ {
		ts := stream.Timestamp(i * 3750)
		t := stream.MustTuple(sensor.Schema, ts,
			stream.Int(int64(i%8)), stream.Float(float64(i%50)))
		if _, err := plan.Push(t); err != nil {
			b.Fatal(err)
		}
	}
	base := stream.Timestamp(3600 * 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := base + stream.Timestamp(i)*3750
		t := stream.MustTuple(sensor.Schema, ts,
			stream.Int(int64(i%8)), stream.Float(float64(i%50)))
		if _, err := plan.Push(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFanout measures multi-plan fan-out throughput — 8
// plans consuming one stream — across the execution strategies: the
// sequential spe.Engine, the runtime in synchronous mode, and the
// sharded worker pool, at ingest batch sizes 1, 16 and 64. One op is
// one tuple through all 8 plans. The no-match variants route a tuple of
// a stream no plan consumes: the pure dispatch cost, which must be
// allocation-free now that the per-stream plan lists are precomputed at
// Install/Remove time.
func BenchmarkEngineFanout(b *testing.B) {
	reg := sensorCatalog(b)
	const nPlans = 8
	bounds := make([]*cql.Bound, nPlans)
	for i := range bounds {
		text := fmt.Sprintf(
			"SELECT station, temperature, humidity FROM Sensor07 [Now] WHERE temperature >= %d AND humidity <= %d",
			-20+i*5, 95-i*3)
		bd, err := cql.AnalyzeString(text, reg)
		if err != nil {
			b.Fatal(err)
		}
		bounds[i] = bd
	}
	tuples := sensordata.NewGenerator(7, 1).Take(4096)
	chunk := func(size int) [][]stream.Tuple {
		var out [][]stream.Tuple
		for i := 0; i < len(tuples); i += size {
			j := i + size
			if j > len(tuples) {
				j = len(tuples)
			}
			out = append(out, tuples[i:j])
		}
		return out
	}
	installRT := func(b *testing.B, workers int) *exec.Runtime {
		b.Helper()
		rt := exec.New(exec.Config{Workers: workers})
		for i, bd := range bounds {
			if _, err := rt.Install(fmt.Sprintf("p%d", i), bd, fmt.Sprintf("r%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		return rt
	}

	b.Run("sequential", func(b *testing.B) {
		eng := spe.NewEngine(nil)
		for i, bd := range bounds {
			if _, err := eng.Install(fmt.Sprintf("p%d", i), bd, fmt.Sprintf("r%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Consume(tuples[i%len(tuples)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{0, 2, 4} {
		name := "sync"
		if workers > 0 {
			name = fmt.Sprintf("workers%d", workers)
		}
		for _, batch := range []int{1, 16, 64} {
			batches := chunk(batch)
			b.Run(fmt.Sprintf("%s-batch%d", name, batch), func(b *testing.B) {
				rt := installRT(b, workers)
				defer rt.Close()
				b.ReportAllocs()
				b.ResetTimer()
				if batch == 1 {
					for i := 0; i < b.N; i++ {
						if err := rt.Consume(tuples[i%len(tuples)]); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					for done, i := 0, 0; done < b.N; done, i = done+len(batches[i%len(batches)]), i+1 {
						if err := rt.ConsumeBatch(batches[i%len(batches)]); err != nil {
							b.Fatal(err)
						}
					}
				}
				rt.Barrier()
			})
		}
	}
	noMatch := sensordata.NewGenerator(1, 1).Next() // Sensor01: no plans
	b.Run("no-match-engine", func(b *testing.B) {
		eng := spe.NewEngine(nil)
		for i, bd := range bounds {
			if _, err := eng.Install(fmt.Sprintf("p%d", i), bd, fmt.Sprintf("r%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Consume(noMatch); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{0, 4} {
		b.Run(fmt.Sprintf("no-match-runtime-workers%d", workers), func(b *testing.B) {
			rt := installRT(b, workers)
			defer rt.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Consume(noMatch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerAdd measures one greedy insertion into a populated
// optimiser — the query-management cost per arriving query.
func BenchmarkOptimizerAdd(b *testing.B) {
	reg := sensorCatalog(b)
	gen, err := querygen.New(querygen.Config{Dist: querygen.Zipf15, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	bound, err := gen.BindBatch(b.N+1000, reg)
	if err != nil {
		b.Fatal(err)
	}
	opt := merge.NewOptimizer(merge.Options{MaxCandidates: 64})
	for i := 0; i < 1000; i++ {
		if _, err := opt.Add(fmt.Sprintf("warm%d", i), bound[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Add(fmt.Sprintf("q%d", i), bound[1000+i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutputRate measures the cost estimator, which runs once per
// candidate group per insertion.
func BenchmarkOutputRate(b *testing.B) {
	reg := sensorCatalog(b)
	bound, err := cql.AnalyzeString(
		"SELECT station, temperature FROM Sensor07 [Range 1 Hour] WHERE temperature >= 10 AND temperature <= 30", reg)
	if err != nil {
		b.Fatal(err)
	}
	var est cost.Estimator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.OutputRate(bound)
	}
}

// BenchmarkCQLAnalyze measures parse+bind of a typical query.
func BenchmarkCQLAnalyze(b *testing.B) {
	reg := sensorCatalog(b)
	text := "SELECT station, temperature FROM Sensor07 [Range 30 Minute] WHERE temperature >= 10 AND temperature <= 30"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cql.AnalyzeString(text, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContainment measures one merge attempt (the inner loop of the
// greedy optimiser).
func BenchmarkMergeQueries(b *testing.B) {
	reg := sensorCatalog(b)
	q1, err := cql.AnalyzeString(
		"SELECT station FROM Sensor07 [Range 30 Minute] WHERE temperature >= 10 AND temperature <= 20", reg)
	if err != nil {
		b.Fatal(err)
	}
	q2, err := cql.AnalyzeString(
		"SELECT station, humidity FROM Sensor07 [Range 1 Hour] WHERE temperature >= 15 AND temperature <= 30", reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merge.Queries(q1, q2, merge.ExactUnion); err != nil {
			b.Fatal(err)
		}
	}
}
