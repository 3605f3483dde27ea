// Livesystem: the full COSMOS stack on the concurrent transport. One
// goroutine per broker routes tuples through the content-based network
// while each processor's sharded execution runtime (4 workers here)
// runs the compiled plans and publishes results straight back into the
// network through per-worker clients — no world-stop on the data path:
// results stream to the user proxies while ingestion continues.
// Quiesce appears exactly once, at the end, as the readout barrier.
//
// The synchronous system (examples/quickstart and friends) stays the
// deterministic reference: per query, this example's result counts are
// identical to a synchronous run over the same trace.
//
//	go run ./examples/livesystem
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"cosmos"
)

const nTrades = 20_000

func main() {
	sys, err := cosmos.NewLiveSystem(cosmos.Options{
		Nodes:       32,
		Seed:        7,
		Processors:  2,
		Placement:   cosmos.RoundRobin,
		ExecWorkers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	trades := cosmos.MustSchema("Trades",
		cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
		cosmos.Field{Name: "price", Kind: cosmos.KindFloat},
		cosmos.Field{Name: "size", Kind: cosmos.KindInt},
	)
	src, err := sys.RegisterStream(&cosmos.StreamInfo{Schema: trades, Rate: 1000}, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Three continuous queries from users at different overlay nodes;
	// their callbacks run on the proxies' delivery goroutines, so the
	// counters are atomics.
	var counts [3]atomic.Int64
	queries := []string{
		"SELECT symbol, price FROM Trades [Now] WHERE price > 900",
		"SELECT symbol FROM Trades [Now] WHERE size >= 64",
		"SELECT symbol, COUNT(*) AS n FROM Trades [Range 1 Minute] GROUP BY symbol",
	}
	for i, q := range queries {
		i := i
		if _, err := sys.Submit(q, 5+i, func(cosmos.Tuple) { counts[i].Add(1) }); err != nil {
			log.Fatal(err)
		}
	}
	// The control plane (advertisements, subscription propagation) is
	// asynchronous on the live transport: settle it before traffic.
	sys.Quiesce()

	symbols := []string{"ACME", "GOPH", "INIT", "KRNL"}
	fmt.Printf("publishing %d trades through the live network...\n", nTrades)
	for i := 0; i < nTrades; i++ {
		err := src.Publish(cosmos.MustTuple(trades, cosmos.Timestamp(i),
			cosmos.String(symbols[i%len(symbols)]),
			cosmos.Float(float64(i%1000)+0.25),
			cosmos.Int(int64(i%128)),
		))
		if err != nil {
			log.Fatal(err)
		}
	}

	// Results flow with no barrier: wait (without quiescing anything)
	// until the proxies have seen some, to show the pipeline is live.
	for counts[0].Load()+counts[1].Load()+counts[2].Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("results streaming to users before any barrier: %d and counting\n",
		counts[0].Load()+counts[1].Load()+counts[2].Load())

	// The only barrier in the program: stabilise so the readout is exact.
	sys.Quiesce()
	for i, q := range queries {
		fmt.Printf("q%d: %6d results  (%s)\n", i, counts[i].Load(), q)
	}
	fmt.Printf("data moved across overlay links: %d bytes\n", sys.TotalDataBytes())
}
