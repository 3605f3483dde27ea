package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// readSet loads one set of runs: a file of result lines as the benchmark
// prints them (other lines are skipped), metric name → one value per run.
func readSet(path string) (map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	set := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, 0, fmt.Errorf("%s: run %d is not correct", path, runs+1)
		}
		runs++
		for name, m := range r.Metrics {
			set[name] = append(set[name], m.Value)
		}
	}
	return set, runs, sc.Err()
}

// summarizeSets prints, per end-to-end metric and per diagnostic the
// runs carry, each set's median, quartiles and spread (interquartile
// range ÷ median — the driver's steadiness measure). Given two sets of
// runs of the same code it adds how much worse set B's median is than
// set A's. It fails (exit 1) on what the driver refuses a benchmark for:
// an end-to-end metric's spread in either set (setup_s excepted), or
// either set's median against the other's, beyond the metric's bound.
// setup_s with a wider spread reads UNRESOLVED: its sets agree, and
// could not show a change of the bound's size. Diagnostics have no bound
// and no verdict.
func summarizeSets(out io.Writer, files []string) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -summarize takes one or two files of result lines")
		return 2
	}
	var sets []map[string][]float64
	for _, path := range files {
		set, runs, err := readSet(path)
		if err != nil || runs == 0 {
			fmt.Fprintf(os.Stderr, "benchmark: -summarize %s: %d runs: %v\n", path, runs, err)
			return 2
		}
		sets = append(sets, set)
	}
	status := 0
	fmt.Fprintf(out, "| %-20s | %6s | %28s | %8s |", "metric", "bound", "A: median [q1, q3]", "spread")
	if len(sets) == 2 {
		fmt.Fprintf(out, " %28s | %8s | %8s |", "B: median [q1, q3]", "spread", "gap")
	}
	fmt.Fprintf(out, " %s |\n|---|---|---|---|", "verdict")
	if len(sets) == 2 {
		fmt.Fprint(out, "---|---|---|")
	}
	fmt.Fprintln(out, "---|")
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, measured := sets[0][d.name]; !measured {
			continue
		}
		gated := d.bound > 0
		if gated {
			fmt.Fprintf(out, "| %-20s | %5.1f%% |", d.name, 100*d.bound)
		} else {
			fmt.Fprintf(out, "| %-20s | %6s |", d.name, "—")
		}
		verdict := "ok"
		var meds []float64
		for _, set := range sets {
			xs := set[d.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			meds = append(meds, med)
			fmt.Fprintf(out, " %10.4g [%7.4g, %7.4g] | %7.2f%% |", med, q1, q3, 100*spread)
			// A metric whose runs scatter more widely than its bound cannot
			// resolve a change of that size.
			if gated && spread > d.bound {
				verdict = "SPREAD"
				if d.name == "setup_s" {
					verdict = "UNRESOLVED"
				}
			}
		}
		if len(meds) == 2 {
			// worse(x, y) is how much worse x is than y, as a share of y.
			worse := func(x, y float64) float64 {
				if d.better == "higher" {
					return (y - x) / y
				}
				return (x - y) / y
			}
			fmt.Fprintf(out, " %+7.2f%% |", 100*worse(meds[1], meds[0]))
			// Of one binary neither set may be worse than the other.
			if gated && (worse(meds[1], meds[0]) > d.bound || worse(meds[0], meds[1]) > d.bound) {
				verdict = "GAP"
			}
		}
		if !gated {
			verdict = "diagnostic"
		}
		if gated && verdict != "ok" && verdict != "UNRESOLVED" {
			status = 1
		}
		fmt.Fprintf(out, " %s |\n", verdict)
	}
	return status
}
