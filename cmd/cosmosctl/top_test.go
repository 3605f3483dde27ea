package main

import (
	"strings"
	"testing"
	"time"

	"cosmos"
	"cosmos/internal/exec"
	"cosmos/internal/obs"
)

func histOf(vals ...int64) obs.HistSnapshot {
	var h obs.Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	return h.Snapshot()
}

func planStats(proc int, plan string, pushes, emits int64) cosmos.PlanStats {
	return cosmos.PlanStats{
		PlanStats: exec.PlanStats{Plan: plan, Pushes: pushes, Emits: emits},
		Proc:      proc,
	}
}

// frame renders one top frame and returns, per table row, its fields
// keyed by the row's first column.
func frame(t *testing.T, prev, cur cosmos.SystemStats, window time.Duration) (string, map[string][]string) {
	t.Helper()
	var b strings.Builder
	renderTop(&b, prev, cur, window, 5)
	rows := map[string][]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	return b.String(), rows
}

// An idle window shows zero rates, makes no selectivity claim, and still
// shows the latency quantiles (they read the later snapshot).
func TestRenderTopZeroDelta(t *testing.T) {
	snap := cosmos.SystemStats{
		Ingested:  1000,
		Delivered: 900,
		Stages:    []cosmos.StageStats{{Stage: "exec", Count: 1000, Lat: histOf(100, 200)}},
		Plans:     []cosmos.PlanStats{planStats(0, "p0", 500, 250)},
		Links:     []cosmos.LinkStats{{A: 0, B: 1, DataBytes: 4096, DataMsgs: 64}},
	}
	out, rows := frame(t, snap, snap, time.Second)
	if !strings.Contains(out, "ingest=0 deliver=0") {
		t.Errorf("identical snapshots should show zero ingest/deliver rates:\n%s", out)
	}
	if r := rows["exec"]; len(r) < 6 || r[1] != "1000" || r[2] != "0" || r[3] == "-" {
		t.Errorf("stage row %v: want count 1000, rate 0, a p50", r)
	}
	if r := rows["p0"]; len(r) < 5 || r[2] != "0" || r[3] != "0" || r[4] != "0.00" {
		t.Errorf("plan row %v: want zero rates and no selectivity claim", r)
	}
	if strings.Contains(out, "LINK") {
		t.Errorf("an idle link must not be listed:\n%s", out)
	}
}

// A degenerate window yields finite zero rates; selectivity is a counter
// ratio, not a rate, and survives it.
func TestRenderTopZeroWindow(t *testing.T) {
	cur := cosmos.SystemStats{
		Ingested: 500,
		Stages:   []cosmos.StageStats{{Stage: "ingest", Count: 500}},
		Plans:    []cosmos.PlanStats{planStats(0, "p0", 100, 40)},
	}
	for _, window := range []time.Duration{0, -time.Second} {
		out, rows := frame(t, cosmos.SystemStats{}, cur, window)
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Fatalf("window %v: non-finite value rendered:\n%s", window, out)
		}
		if !strings.Contains(out, "ingest=0 ") {
			t.Errorf("window %v: ingest rate should be 0:\n%s", window, out)
		}
		if r := rows["p0"]; len(r) < 5 || r[2] != "0" || r[4] != "0.40" {
			t.Errorf("window %v: plan row %v, want rate 0 and selectivity 0.40", window, r)
		}
	}
}

// A plan present only in the later snapshot is attributed its full
// counters; one that disappeared is not shown; the same plan ID on
// another processor is a different plan (deltas must not cross).
func TestRenderTopPlanDeltas(t *testing.T) {
	prev := cosmos.SystemStats{Plans: []cosmos.PlanStats{
		planStats(0, "old", 1000, 1000),
		planStats(1, "p", 100, 100),
	}}
	cur := cosmos.SystemStats{Plans: []cosmos.PlanStats{
		planStats(0, "new", 300, 150),
		planStats(2, "p", 80, 80),
	}}
	_, rows := frame(t, prev, cur, time.Second)
	if _, ok := rows["old"]; ok {
		t.Error("vanished plan still shown")
	}
	if r := rows["new"]; len(r) < 5 || r[2] != "300/s" || r[3] != "150/s" || r[4] != "0.50" {
		t.Errorf("new plan row %v, want its full counters over the window", r)
	}
	if r := rows["p"]; len(r) < 5 || r[1] != "p2" || r[2] != "80/s" {
		t.Errorf("plan row %v: processor 1's history leaked into processor 2's delta", r)
	}
}

// With sampling off there are no latencies: quantile cells show "-".
func TestRenderTopEmptyHistograms(t *testing.T) {
	cur := cosmos.SystemStats{
		Stages: []cosmos.StageStats{{Stage: "exec", Count: 10}},
		Plans:  []cosmos.PlanStats{planStats(0, "p0", 10, 10)},
	}
	_, rows := frame(t, cosmos.SystemStats{}, cur, time.Second)
	if r := rows["exec"]; len(r) != 6 || r[3] != "-" || r[4] != "-" || r[5] != "-" {
		t.Errorf("stage row %v, want \"-\" quantiles", r)
	}
	if r := rows["p0"]; len(r) < 7 || r[5] != "-" || r[6] != "-" {
		t.Errorf("plan row %v, want \"-\" push quantiles", r)
	}
}

// Link rates are deltas over the window; a link new this window gets its
// full counters; the delay is the current gauge.
func TestRenderTopLinkDeltas(t *testing.T) {
	prev := cosmos.SystemStats{Links: []cosmos.LinkStats{{A: 0, B: 1, DataBytes: 1000, DataMsgs: 10}}}
	cur := cosmos.SystemStats{Links: []cosmos.LinkStats{
		{A: 0, B: 1, DataBytes: 3000, DataMsgs: 30, DelayMs: 12},
		{A: 1, B: 2, DataBytes: 500, DataMsgs: 5},
	}}
	links := busiestLinks(prev.Links, cur.Links, 2*time.Second, 5)
	if len(links) != 2 {
		t.Fatalf("%d links, want 2", len(links))
	}
	if l := links[0]; l.a != 0 || l.bytesPerSec != 1000 || l.msgsPerSec != 10 || l.delayMs != 12 {
		t.Errorf("link 0-1 %+v, want the delta over the 2s window and the current delay", l)
	}
	if l := links[1]; l.a != 1 || l.bytesPerSec != 250 {
		t.Errorf("new link %+v, want its full counters over the window", l)
	}
}

// The plan table shows each plan's resident window state — live rows and
// the bytes holding them — as gauges of the later snapshot.
func TestRenderTopWindowState(t *testing.T) {
	join, sel := planStats(0, "join", 10, 5), planStats(0, "sel", 10, 10)
	join.WindowRows, join.WindowBytes = 90000, 9<<20+1<<19
	join.Queries = []string{"q1"}
	prev := cosmos.SystemStats{Plans: []cosmos.PlanStats{planStats(0, "join", 0, 0)}}
	out, rows := frame(t, prev, cosmos.SystemStats{Plans: []cosmos.PlanStats{join, sel}}, time.Second)
	if !strings.Contains(out, "ROWS     STATE") {
		t.Errorf("plan header lacks the window columns:\n%s", out)
	}
	if r := rows["join"]; len(r) != 10 || r[7] != "90000" || r[8] != "9.5MiB" || r[9] != "q1" {
		t.Errorf("join row %v, want 90000 rows in 9.5MiB before its queries", r)
	}
	if r := rows["sel"]; len(r) != 9 || r[7] != "0" || r[8] != "0B" {
		t.Errorf("selection row %v, want no window state", r)
	}
	for n, want := range map[int64]string{512: "512B", 1536: "1.5KiB", 3 << 20: "3.0MiB"} {
		if got := fmtBytes(n); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
