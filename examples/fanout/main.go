// Fanout: drive many continuous queries over one hot stream through the
// execution runtime (internal/exec) in synchronous mode and sharded
// across a worker pool — per-plan locking, worker pinning, one Consume
// call per tuple, and checkpoint capture that quiesces one plan instead
// of stopping the world.
//
//	go run ./examples/fanout
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync/atomic"
	"time"

	"cosmos/internal/cql"
	"cosmos/internal/exec"
	"cosmos/internal/sensordata"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
)

const (
	nPlans  = 8
	nTuples = 200_000
)

// newRuntime builds a runtime with nPlans selections over Sensor07,
// counting results.
func newRuntime(workers int, reg *stream.Registry, results *atomic.Int64) *exec.Runtime {
	rt := exec.New(exec.Config{
		Workers: workers,
		Emit:    func(stream.Tuple) { results.Add(1) },
		OnError: func(plan string, err error) { log.Printf("plan %s: %v", plan, err) },
	})
	for i := 0; i < nPlans; i++ {
		text := fmt.Sprintf(
			"SELECT station, temperature, humidity FROM Sensor07 [Now] WHERE temperature >= %d AND humidity <= %d",
			-20+i*5, 95-i*3)
		b, err := cql.AnalyzeString(text, reg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rt.Install(fmt.Sprintf("q%d", i), b, fmt.Sprintf("res%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	return rt
}

func main() {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		log.Fatal(err)
	}
	tuples := sensordata.NewGenerator(7, 1).Take(nTuples)
	fmt.Printf("%d plans x 1 stream, %d tuples, GOMAXPROCS=%d\n\n",
		nPlans, nTuples, runtime.GOMAXPROCS(0))

	// Baseline: synchronous mode — every plan on the caller's goroutine,
	// in plan-ID order.
	var seqResults atomic.Int64
	seq := newRuntime(0, reg, &seqResults)
	start := time.Now()
	for _, t := range tuples {
		if err := seq.Consume(t); err != nil {
			log.Fatal(err)
		}
	}
	seqDur := time.Since(start)
	fmt.Printf("synchronous runtime: %8.0f tuples/s  (%d results)\n",
		float64(nTuples)/seqDur.Seconds(), seqResults.Load())

	// Sharded: plans pinned across a worker pool; Consume queues each
	// tuple to the workers owning its stream's plans. Per-plan result
	// order is identical to the synchronous mode; cross-plan order is free.
	var rtResults atomic.Int64
	rt := newRuntime(4, reg, &rtResults)
	defer rt.Close()
	start = time.Now()
	for _, t := range tuples {
		if err := rt.Consume(t); err != nil {
			log.Fatal(err)
		}
	}
	rt.Barrier()
	rtDur := time.Since(start)
	fmt.Printf("sharded runtime:     %8.0f tuples/s  (%d results, %d workers)\n",
		float64(nTuples)/rtDur.Seconds(), rtResults.Load(), rt.Workers())

	// Snapshot one plan while the others keep running: WithPlan drains
	// and locks only q3.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, t := range tuples[:20_000] {
			rt.Consume(t)
		}
		rt.Barrier()
	}()
	rt.WithPlan("q3", func(p *spe.Plan) {
		snap := p.Snapshot()
		fmt.Printf("\ncaptured plan %s mid-stream (watermark %d) without stopping the other %d plans\n",
			snap.PlanID, snap.Watermark, nPlans-1)
	})
	<-done
}
