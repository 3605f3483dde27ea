// Metrics: the end-to-end observability layer on a live deployment.
// The system always counts every stage event (one atomic add); here we
// also turn the dials up — SampleEvery: 1 puts every event in the
// latency histograms, TraceEvery: 200 follows every 200th published
// tuple through the pipeline — run a burst of traffic, and read all
// three surfaces back: per-stage counts and quantiles, per-plan series
// with the member queries each plan serves, and sampled per-tuple
// latency breakdowns. A daemon exposes the same snapshot over HTTP
// (cosmosd -metrics-addr) and `cosmosctl top` renders it live.
//
//	go run ./examples/metrics
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"cosmos"
)

const nReadings = 10_000

func main() {
	sys, err := cosmos.NewLiveSystem(cosmos.Options{
		Nodes:       32,
		Seed:        7,
		Processors:  2,
		Placement:   cosmos.RoundRobin,
		ExecWorkers: 4,
		Obs: cosmos.ObsOptions{
			SampleEvery: 1,   // histogram every event (default: every 512th)
			TraceEvery:  200, // follow every 200th tuple end to end
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	readings := cosmos.MustSchema("Readings",
		cosmos.Field{Name: "station", Kind: cosmos.KindInt},
		cosmos.Field{Name: "temp", Kind: cosmos.KindFloat},
	)
	src, err := sys.RegisterStream(&cosmos.StreamInfo{Schema: readings, Rate: 1000}, 0)
	if err != nil {
		log.Fatal(err)
	}

	var delivered atomic.Int64
	queries := []string{
		"SELECT station, temp FROM Readings [Now] WHERE temp > 30",
		"SELECT station, COUNT(*) AS n FROM Readings [Range 1 Minute] GROUP BY station",
	}
	for i, q := range queries {
		if _, err := sys.Submit(q, 5+i, func(cosmos.Tuple) { delivered.Add(1) }); err != nil {
			log.Fatal(err)
		}
	}
	sys.Quiesce() // settle subscription propagation before traffic

	start := time.Now()
	for i := 0; i < nReadings; i++ {
		err := src.Publish(cosmos.MustTuple(readings, cosmos.Timestamp(i),
			cosmos.Int(int64(i%8)), cosmos.Float(float64(i%40))))
		if err != nil {
			log.Fatal(err)
		}
	}
	sys.Quiesce() // readout barrier: make the final snapshot exact
	window := time.Since(start)

	st := sys.StatsSnapshot()
	fmt.Printf("published %d readings in %v; %d results delivered\n\n",
		st.Ingested, window.Round(time.Millisecond), delivered.Load())

	// Surface 1: per-stage counters + sampled latency histograms.
	fmt.Println("stage      events   rate       p50        p99        p99.99")
	for _, s := range st.Stages {
		if s.Count == 0 {
			continue // wire stage is idle in an embedded deployment
		}
		fmt.Printf("%-10s %-8d %-10s %-10v %-10v %v\n",
			s.Stage, s.Count,
			fmt.Sprintf("%.0f/s", float64(s.Count)/window.Seconds()),
			time.Duration(s.Lat.Quantile(0.50)).Round(10*time.Nanosecond),
			time.Duration(s.Lat.Quantile(0.99)).Round(10*time.Nanosecond),
			time.Duration(s.Lat.Quantile(0.9999)).Round(10*time.Nanosecond))
	}

	// Surface 2: per-plan series — the observed rates, selectivities and
	// push latencies the adaptive optimiser will consume.
	fmt.Println("\nplan                         proc pushes emits  sel   push-p99   queries")
	for _, p := range st.Plans {
		sel := 0.0
		if p.Pushes > 0 {
			sel = float64(p.Emits) / float64(p.Pushes)
		}
		fmt.Printf("%-28s p%-3d %-6d %-6d %-5.2f %-10v %v\n",
			p.Plan, p.Proc, p.Pushes, p.Emits, sel,
			time.Duration(p.PushLat.Quantile(0.99)).Round(10*time.Nanosecond),
			p.Queries)
	}

	// Surface 3: sampled tuple traces — where one tuple's time went.
	traces := sys.Obs().Traces()
	fmt.Printf("\n%d tuples traced end to end; the last one:\n", len(traces))
	if len(traces) > 0 {
		tr := traces[len(traces)-1]
		fmt.Printf("  tuple ts=%d of %s\n", tr.Key, tr.Stream)
		for _, span := range tr.Breakdown() {
			fmt.Printf("    %-8s +%v\n", span.Stage, span.Offset.Round(10*time.Nanosecond))
		}
	}
}
