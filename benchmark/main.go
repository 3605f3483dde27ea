// Command benchmark is the repo's benchmark: four workloads driven
// through the public session API against an in-process deployment, the
// end-to-end metrics (and the timed diagnostics) from an untraced run, the
// per-layer metrics from a traced one, outputs checked against the
// synchronous core.System. See README.md beside this file.
//
//	go run ./benchmark -workload fanout_tcp -seed 1 [-seconds 20] [-trace 1] [-json]
//	go run ./benchmark -summarize a.jsonl b.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	spinIfAsked()
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed of the generated data")
		seconds   = flag.Float64("seconds", 20, "how long the timed phases measure")
		trace     = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		quiet     = flag.Bool("json", false, "print only the result's JSON line, an untraced run's with its diagnostics")
		summarize = flag.Bool("summarize", false, "compare two sets of result lines (files of JSON lines, one set each)")
	)
	flag.Parse()
	if *summarize {
		os.Exit(summarizeSets(os.Stdout, flag.Args()))
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -workload must be one of %s; -seconds at least 1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, scale: 1, repeats: defaultRepeats, trace: *trace != 0}
	stop, err := keepAwake()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: the CPUs may halt when idle, which makes every timing noisier: %v\n", err)
		stop = func() {}
	}
	res, err := run(cfg)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, res, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if res.failed != 0 {
		os.Exit(1)
	}
}
