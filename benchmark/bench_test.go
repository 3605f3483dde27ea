package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// inputBytes renders the first n events of a workload's input.
func inputBytes(w *workload, seed int64, n int) []byte {
	var buf bytes.Buffer
	f := newFeed(w, seed)
	for i := 0; i < n; i++ {
		si, t := f.next()
		fmt.Fprintf(&buf, "%d %d %v\n", si, t.Ts, t.Values)
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads() {
		a, b := inputBytes(w, 1, 5000), inputBytes(w, 1, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if bytes.Equal(a, inputBytes(w, 2, 5000)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
}

// smoke runs a workload at 1/20 scale.
func smoke(t *testing.T, name string, trace bool) *result {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(config{w: w, seed: 1, seconds: 2, scale: 0.05, repeats: 2, trace: trace})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed\n%v", name, res.failed, res.attempted, res.notes)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w.name, false)
			names := []string{"throughput_eps", "latency_p50_us", "latency_p99_us", "cpu_us_per_event", "submit_p50_ms"}
			for _, d := range endToEnd {
				names = append(names, d.name)
			}
			for _, name := range names {
				if v, ok := res.metrics[name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", name, v)
				}
			}
		})
	}
}

func TestSameSeedSameNetBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("two more smoke runs")
	}
	// No TCP on this workload: frame batching is the one thing that makes
	// the byte count of a TCP workload differ between runs.
	a, b := smoke(t, "sensor_merge", false), smoke(t, "sensor_merge", false)
	if x, y := a.metrics["net_bytes_per_event"], b.metrics["net_bytes_per_event"]; x != y {
		t.Errorf("net_bytes_per_event %v and %v for one seed", x, y)
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke run")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	res := smoke(t, "remote_churn", true)
	var out bytes.Buffer
	w, _ := workloadByName("remote_churn")
	if err := report(&out, config{w: w, trace: true}, res, true); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Metrics map[string]struct{ Unit string } `json:"metrics"`
	}
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if line.Metrics[d.name].Unit != d.unit {
			t.Errorf("the traced run's result line lacks %s in %s", d.name, d.unit)
		}
	}
	for _, name := range []string{"cql.parse_bind_us", "merge.add_us", "cbn.route_ns", "spe.push_select_ns", "core.publish_ns",
		"transport.publish_rtt_us", "transport.ingest_bytes_per_event", "latency_p99_us", "throughput_eps", "cpu_us_per_event"} {
		if !(res.metrics[name] > 0) {
			t.Errorf("%s = %v on remote_churn, want a positive number", name, res.metrics[name])
		}
	}
	raw, err := os.ReadFile("benchmark/out/trace_remote_churn.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(doc.Spans), err)
	}
}

func TestQuantile(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python's exclusive method gives 2.75, 8.25", q1, q3)
	}
}

func TestGateNeed(t *testing.T) {
	cum := make([]int64, 3*gateWindow)
	for i := range cum {
		cum[i] = int64(2 * (i + 1)) // two results per event
	}
	if got := gateNeed(cum, gateWindow-1); got != 0 {
		t.Errorf("the first window's events wait for %d results, want none", got)
	}
	if got := gateNeed(cum, gateWindow); got != 2 {
		t.Errorf("event %d waits for %d results, want event 0's 2", gateWindow, got)
	}
	if got := gateNeed(cum, 2*gateWindow+5); got != int64(2*(gateWindow+6)) {
		t.Errorf("gateNeed = %d", got)
	}
	if got := warmNeed(cum, 0); got != 0 {
		t.Errorf("the warm-up's first event waits for %d results", got)
	}
	// Events 0..999 yield 2000 results; all but warmResults must be in.
	if got := warmNeed(cum, 1000); got != 2000-warmResults {
		t.Errorf("warmNeed = %d, want %d", got, 2000-warmResults)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "publish", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "route", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "route", Start: 30, End: 60, Parent: 0}, // overlaps its sibling
		{ID: 3, Name: "eval", Start: 12, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	want := map[string]int64{"publish": 50, "route": 22 + 30, "eval": 8}
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, self[name], ns)
		}
	}
}

// BENCHMARK.json is written by hand; the metric tables and the workload
// list in this package must say the same.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Workloads []row
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, rows []row, defs []metricDef) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(rows), len(defs))
		}
		for i, d := range defs {
			if got := rows[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %s %s %s %v", kind, i, got, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the manifest allows 200", w.name, len(w.why))
		}
	}
}
