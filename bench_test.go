// Benchmarks regenerating the paper's Figure 3 plus ablations for the
// design choices DESIGN.md calls out. The hot paths' per-layer costs are
// benchmark/'s (`-trace 1`, layers.go), not here.
//
// The figure bench attaches the measured experiment metrics to the
// benchmark output via ReportMetric, so `go test -bench=Figure` prints
// the numbers behind Figure 3; `go run ./cmd/figures` prints Figures 3
// and 4 in the paper's layout.
package cosmos_test

import (
	"testing"

	"cosmos/internal/cbn"
	"cosmos/internal/cost"
	"cosmos/internal/cql"
	"cosmos/internal/overlay"
	"cosmos/internal/profile"
	"cosmos/internal/sensordata"
	"cosmos/internal/sim"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

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

// BenchmarkOutputRate measures the cost estimator, which runs once per
// candidate group per insertion.
func BenchmarkOutputRate(b *testing.B) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		b.Fatal(err)
	}
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
