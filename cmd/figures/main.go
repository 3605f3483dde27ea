// Command figures regenerates the paper's evaluation figures:
//
//	figures -fig 4a             benefit ratio vs #queries (Figure 4a)
//	figures -fig 4b             grouping ratio vs #queries (Figure 4b)
//	figures -fig 3              share vs non-share delivery (Figure 3)
//	figures -fig all            everything
//
// Every figure is measured on the running system (see package sim):
// Figure 4 submits the queries to two synchronous deployments, merging
// on and off, registers all 63 sensor streams at the processor's node,
// and charges each link the result traffic it carried, Σ bytes × link
// delay (ms), over sim.ReadingsPerCheckpoint readings per stream. The
// grouping ratio is the processor's own merge statistic.
//
// Figure 4 runs the paper's 1000-node power-law topology with an MST
// dissemination tree and its four workload distributions (uniform,
// zipf1.0, zipf1.5, zipf2). Submitting a query costs more the more
// queries stand, so the defaults stop at 1500 queries and one
// repetition: -fig all takes about 2.5 min on a 2-vCPU machine, nearly
// all of it set-up. The paper's 2000…10000 checkpoints
// (sim.PaperCheckpoints) and 20 repetitions stay reachable through
// -queries and -reps, but set-up time grows faster than linearly in the
// query count: a merged Submit costs 4–6 ms below 250 standing queries
// and 14–39 ms between 1000 and 1500, and a sweep to 2000 takes about
// 4 min.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cosmos/internal/merge"
	"cosmos/internal/querygen"
	"cosmos/internal/sim"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 3, 4a, 4b or all")
		reps    = flag.Int("reps", 1, "repetitions to average (paper: 20)")
		nodes   = flag.Int("nodes", 1000, "topology size")
		seed    = flag.Int64("seed", 1, "base random seed")
		queries = flag.String("queries", "250,500,1000,1500", "comma-separated checkpoints (paper: 2000,4000,...,10000)")
		mode    = flag.String("mode", "union", "merge mode: union or hull")
		events  = flag.Int("events", 500, "auction count for figure 3")
	)
	flag.Parse()

	mergeMode := merge.ExactUnion
	if *mode == "hull" {
		mergeMode = merge.ConvexHull
	}
	checkpoints, err := parseCheckpoints(*queries)
	if err != nil {
		fatal(err)
	}

	switch *fig {
	case "3":
		runFig3(*events, *seed)
	case "4a", "4b":
		series := sweepAll(*reps, *nodes, *seed, checkpoints, mergeMode)
		printFig4(*fig, *reps, *nodes, checkpoints, mergeMode, series)
	case "all":
		runFig3(*events, *seed)
		fmt.Println()
		// One sweep feeds both Figure 4 panels.
		series := sweepAll(*reps, *nodes, *seed, checkpoints, mergeMode)
		printFig4("4a", *reps, *nodes, checkpoints, mergeMode, series)
		fmt.Println()
		printFig4("4b", *reps, *nodes, checkpoints, mergeMode, series)
		fmt.Println()
		printSetup(checkpoints, series)
	default:
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

func parseCheckpoints(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad checkpoint %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func runFig3(events int, seed int64) {
	fmt.Printf("Figure 3 — result stream delivery, share vs non-share (%d auctions)\n", events)
	res, err := sim.RunFigure3(events, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %14s %14s %9s\n", "link", "non-share (B)", "share (B)", "saving")
	for _, l := range res.Links {
		saving := 0.0
		if l.NonShareBytes > 0 {
			saving = 1 - float64(l.ShareBytes)/float64(l.NonShareBytes)
		}
		fmt.Printf("%-8s %14d %14d %8.1f%%\n", l.Name, l.NonShareBytes, l.ShareBytes, 100*saving)
	}
	total := 1 - float64(res.ShareTotal)/float64(res.NonShareTotal)
	fmt.Printf("%-8s %14d %14d %8.1f%%\n", "total", res.NonShareTotal, res.ShareTotal, 100*total)
	fmt.Printf("deliveries: q1=%d q2=%d (identical under both strategies)\n",
		res.Q1Results, res.Q2Results)
}

// sweepAll runs the Figure 4 protocol for every distribution, averaging
// reps repetitions, and returns one averaged series per distribution.
func sweepAll(reps, nodes int, seed int64, checkpoints []int, mode merge.Mode) map[string][]*sim.Result {
	out := map[string][]*sim.Result{}
	for _, dist := range querygen.PaperDistributions() {
		var runs [][]*sim.Result
		for rep := 0; rep < reps; rep++ {
			results, err := sim.Sweep(sim.Config{
				Nodes: nodes,
				Dist:  dist,
				Seed:  seed + int64(rep)*1000,
				Mode:  mode,
			}, checkpoints)
			if err != nil {
				fatal(err)
			}
			runs = append(runs, results)
		}
		out[dist.Name] = sim.AverageResults(runs)
	}
	return out
}

func printFig4(which string, reps, nodes int, checkpoints []int, mode merge.Mode, series map[string][]*sim.Result) {
	metric := "Benefit Ratio"
	if which == "4b" {
		metric = "Grouping Ratio"
	}
	fmt.Printf("Figure %s — %s vs #queries (%d nodes, %d reps, mode=%s)\n",
		which, metric, nodes, reps, mode)
	fmt.Printf("%-9s", "#queries")
	for _, cp := range checkpoints {
		fmt.Printf(" %8d", cp)
	}
	fmt.Println()
	for _, dist := range querygen.PaperDistributions() {
		fmt.Printf("%-9s", dist.Name)
		for _, r := range series[dist.Name] {
			v := r.BenefitRatio
			if which == "4b" {
				v = r.GroupingRatio
			}
			fmt.Printf(" %8.3f", v)
		}
		fmt.Println()
	}
}

// printSetup reports the wall time all Submits up to each checkpoint
// took, with merging and without.
func printSetup(checkpoints []int, series map[string][]*sim.Result) {
	fmt.Println("Set-up wall time, s (merged / unmerged)")
	fmt.Printf("%-9s", "#queries")
	for _, cp := range checkpoints {
		fmt.Printf(" %15d", cp)
	}
	fmt.Println()
	for _, dist := range querygen.PaperDistributions() {
		fmt.Printf("%-9s", dist.Name)
		for _, r := range series[dist.Name] {
			fmt.Printf(" %7.1f / %-5.1f", r.SetupMerged.Seconds(), r.SetupUnmerged.Seconds())
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
