// Command cosmosbench runs the sustained-load harness (internal/load)
// against a live COSMOS deployment and writes the result as a
// BENCH_<area>.json trajectory point.
//
// Each scenario assembles its own in-process deployment unless -addr
// points at a running cosmosd:
//
//	cosmosbench -scenario transport -rate 5000 -duration 1s
//	cosmosbench -scenario auction -events 2000000
//	cosmosbench -scenario churn -rate 4000 -duration 5s
//	cosmosbench -scenario clients -clients 512 -duration 2s
//
// The driver is open-loop: tuples are offered on a fixed schedule and
// stamped with their intended publish time, so a struggling system
// shows up as scheduling lag and inflated latency tails, never as a
// silently reduced offered rate. Every run accounts for loss and
// duplication per subscription via carried sequence numbers; -strict
// turns any loss or duplication into a non-zero exit (CI smoke mode).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cosmos/internal/load"
)

func main() {
	var (
		scenario = flag.String("scenario", "",
			"workload to run: "+strings.Join(load.Scenarios(), ", "))
		rate     = flag.Int("rate", 0, "offered rate, tuples/s (0 = scenario default 5000)")
		duration = flag.Duration("duration", 0, "publishing-phase length (default 1s; -events wins)")
		events   = flag.Int("events", 0, "exact event count (overrides -duration)")
		subs     = flag.Int("subs", 0, "subscription count (scenario default)")
		clients  = flag.Int("clients", 0, "dialling-client count, clients scenario (default 256)")
		streams  = flag.Int("streams", 0, "source-stream count, churn/clients (scenario default)")
		workers  = flag.Int("workers", 0, "execution workers per processor (default 2)")
		seed     = flag.Int64("seed", 0, "topology/churn seed (scenario default)")
		addr     = flag.String("addr", "", "drive an external cosmosd at this address instead of in-process")
		out      = flag.String("out", "auto",
			`report path ("auto" = BENCH_<area>.json in the working directory, "" = don't write)`)
		drain  = flag.Duration("drain", 0, "post-publish drain deadline (default 2m)")
		strict = flag.Bool("strict", false, "exit non-zero when the run lost or duplicated results")
	)
	flag.Parse()
	if *scenario == "" {
		fmt.Fprintf(os.Stderr, "cosmosbench: -scenario required (one of %s)\n",
			strings.Join(load.Scenarios(), ", "))
		os.Exit(2)
	}

	cfg := load.Config{
		Scenario:     *scenario,
		Rate:         *rate,
		Duration:     *duration,
		Events:       *events,
		Subs:         *subs,
		Clients:      *clients,
		Streams:      *streams,
		Workers:      *workers,
		Seed:         *seed,
		Addr:         *addr,
		DrainTimeout: *drain,
	}
	if *out != "auto" {
		cfg.Out = *out
	}

	// With -out auto the area names the file, so the run goes without
	// cfg.Out and the report is written explicitly afterwards.
	start := time.Now()
	rep, err := load.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosmosbench: %v\n", err)
		os.Exit(1)
	}
	path := cfg.Out
	if *out == "auto" {
		path = "BENCH_" + rep.Area + ".json"
		if err := load.WriteReport(path, rep); err != nil {
			fmt.Fprintf(os.Stderr, "cosmosbench: %v\n", err)
			os.Exit(1)
		}
	}

	r := rep.Results
	fmt.Printf("scenario %-9s %6.0f/s offered, %6.0f/s achieved, %d published, %d delivered in %.2fs\n",
		rep.Scenario, r.OfferedPerSec, r.AchievedPerSec, r.Published, r.Delivered, time.Since(start).Seconds())
	fmt.Printf("  latency  p50 %.0fµs  p99 %.0fµs  p99.99 %.0fµs  max %.0fµs\n",
		r.LatencyUs.P50, r.LatencyUs.P99, r.LatencyUs.P9999, r.LatencyUs.Max)
	fmt.Printf("  sched lag p50 %.0fµs  p99 %.0fµs  max %.0fµs   %.3f allocs/result\n",
		r.SchedLagUs.P50, r.SchedLagUs.P99, r.SchedLagUs.Max, r.AllocsPerResult)
	fmt.Printf("  ledger   lost %d  duplicated %d", r.Lost, r.Duplicated)
	if r.Expected > 0 {
		fmt.Printf("  (expected %d)", r.Expected)
	}
	fmt.Println()
	if path != "" {
		fmt.Printf("  report   %s\n", path)
	}

	if *strict && (r.Lost > 0 || r.Duplicated > 0) {
		fmt.Fprintf(os.Stderr, "cosmosbench: strict mode: %d lost, %d duplicated\n", r.Lost, r.Duplicated)
		os.Exit(1)
	}
}
