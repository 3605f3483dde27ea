package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cosmos"
)

// cmdTop renders a refreshing per-stage / per-query / per-link view of
// a running deployment. Each frame is built from two Stats() snapshots
// bracketing the refresh interval: rates are counter deltas over the
// window, latency quantiles come from the sampled histograms of the
// later snapshot. `-n 1` prints a single frame with no escape codes,
// which is what scripts and smoke tests want.
func cmdTop(c cosmos.Client, args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "refresh interval")
	n := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
	nlinks := fs.Int("links", 5, "busiest links to show")
	fs.Parse(args)
	if *interval <= 0 {
		fail("-interval must be positive")
	}

	prev, err := c.Stats()
	if err != nil {
		fail("%v", err)
	}
	prevAt := time.Now()
	for i := 0; *n == 0 || i < *n; i++ {
		time.Sleep(*interval)
		cur, err := c.Stats()
		if err != nil {
			fail("%v", err)
		}
		now := time.Now()
		if *n != 1 {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: refresh in place
		}
		renderTop(os.Stdout, prev, cur, now.Sub(prevAt), *nlinks)
		prev, prevAt = cur, now
	}
}

// rate normalises a counter delta over the window; 0 for a degenerate
// window.
func rate(delta int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(delta) / window.Seconds()
}

// renderTop writes one frame. A plan or link absent from prev gets its
// full counters attributed to the window (it appeared mid-window); one
// absent from cur is not shown.
func renderTop(w io.Writer, prev, cur cosmos.SystemStats, window time.Duration, nlinks int) {
	var b strings.Builder

	fmt.Fprintf(&b, "cosmos top  queries=%d processors=%d  ingest=%s deliver=%s  window=%s\n",
		cur.Queries, cur.Processors,
		fmtRate(rate(cur.Ingested-prev.Ingested, window)),
		fmtRate(rate(cur.Delivered-prev.Delivered, window)), window.Round(time.Millisecond))
	switch {
	case cur.SampleEvery > 1:
		fmt.Fprintf(&b, "latency sampled 1-in-%d\n", cur.SampleEvery)
	case cur.SampleEvery == 0:
		b.WriteString("latency sampling off\n")
	}

	b.WriteString("\nSTAGE      EVENTS        RATE       P50        P99        P99.99\n")
	prevStages := map[string]int64{}
	for _, s := range prev.Stages {
		prevStages[s.Stage] = s.Count
	}
	for _, s := range cur.Stages {
		fmt.Fprintf(&b, "%-10s %-13d %-10s %-10s %-10s %s\n",
			s.Stage, s.Count, fmtRate(rate(s.Count-prevStages[s.Stage], window)),
			fmtQuantile(s.Lat, 0.50), fmtQuantile(s.Lat, 0.99), fmtQuantile(s.Lat, 0.9999))
	}

	if len(cur.Plans) > 0 {
		// The same plan ID on another processor is a different plan.
		type planKey struct {
			proc int
			plan string
		}
		prevPlans := map[planKey]cosmos.PlanStats{}
		for _, p := range prev.Plans {
			prevPlans[planKey{p.Proc, p.Plan}] = p
		}
		b.WriteString("\nPLAN             PROC  PUSH/S     EMIT/S     SEL    P50        P99        ROWS     STATE      QUERIES\n")
		for _, p := range cur.Plans {
			old := prevPlans[planKey{p.Proc, p.Plan}]
			pushes, emits := p.Pushes-old.Pushes, p.Emits-old.Emits
			sel := 0.0 // observed output/input ratio; no claim for an idle window
			if pushes > 0 {
				sel = float64(emits) / float64(pushes)
			}
			fmt.Fprintf(&b, "%-16s p%-4d %-10s %-10s %-6.2f %-10s %-10s %-8d %-10s %s\n",
				p.Plan, p.Proc, fmtRate(rate(pushes, window)), fmtRate(rate(emits, window)),
				sel, fmtQuantile(p.PushLat, 0.50), fmtQuantile(p.PushLat, 0.99),
				p.WindowRows, fmtBytes(p.WindowBytes), strings.Join(p.Queries, " "))
		}
	}

	if len(cur.Workers) > 0 {
		b.WriteString("\nWORKERS  ")
		for _, w := range cur.Workers {
			fmt.Fprintf(&b, " p%d/w%d q=%d/%d", w.Proc, w.Worker, w.QueueDepth, w.QueueCap)
		}
		b.WriteByte('\n')
	}
	if len(cur.BrokerQueues) > 0 {
		backlog, busiest := 0, 0
		for n, d := range cur.BrokerQueues {
			backlog += d
			if d > cur.BrokerQueues[busiest] {
				busiest = n
			}
		}
		fmt.Fprintf(&b, "BROKERS   backlog=%d (max node %d: %d)\n",
			backlog, busiest, cur.BrokerQueues[busiest])
	}
	if cur.Wire != nil {
		fmt.Fprintf(&b, "WIRE      conns=%d results=%d batches=%d bytes=%d queued=%d\n",
			cur.Wire.Connections, cur.Wire.Results, cur.Wire.Batches,
			cur.Wire.Bytes, cur.Wire.QueueDepth)
		// Both directions over the window, a frame's fill beside its rate.
		var old cosmos.WireStats
		if prev.Wire != nil {
			old = *prev.Wire
		}
		perFrame := func(tuples, frames int64) float64 {
			if frames == 0 {
				return 0 // no claim for an idle window
			}
			return float64(tuples) / float64(frames)
		}
		results, ingest := cur.Wire.Results-old.Results, cur.Wire.IngestTuples-old.IngestTuples
		fmt.Fprintf(&b, "          results/s=%s (%.1f per frame)  ingest/s=%s (%.1f per frame)\n",
			fmtRate(rate(results, window)), perFrame(results, cur.Wire.Batches-old.Batches),
			fmtRate(rate(ingest, window)), perFrame(ingest, cur.Wire.IngestFrames-old.IngestFrames))
	}

	links := busiestLinks(prev.Links, cur.Links, window, nlinks)
	if len(links) > 0 {
		b.WriteString("\nLINK     BYTES/S    MSGS/S     DELAY\n")
		for _, l := range links {
			fmt.Fprintf(&b, "%3d-%-4d %-10s %-10s %.1fms\n",
				l.a, l.b, fmtRate(l.bytesPerSec), fmtRate(l.msgsPerSec), l.delayMs)
		}
	}
	fmt.Fprint(w, b.String())
}

// linkRate is one overlay link's observed bandwidth over the window.
type linkRate struct {
	a, b                    int
	bytesPerSec, msgsPerSec float64
	delayMs                 float64
}

// busiestLinks keeps the n links with the highest observed bandwidth
// this window, dropping idle ones.
func busiestLinks(prev, cur []cosmos.LinkStats, window time.Duration, n int) []linkRate {
	type linkKey struct{ a, b int }
	old := map[linkKey]cosmos.LinkStats{}
	for _, l := range prev {
		old[linkKey{l.A, l.B}] = l
	}
	busy := make([]linkRate, 0, len(cur))
	for _, l := range cur {
		p := old[linkKey{l.A, l.B}]
		r := linkRate{
			a: l.A, b: l.B,
			bytesPerSec: rate(l.DataBytes-p.DataBytes, window),
			msgsPerSec:  rate(l.DataMsgs-p.DataMsgs, window),
			delayMs:     l.DelayMs,
		}
		if r.bytesPerSec > 0 || r.msgsPerSec > 0 {
			busy = append(busy, r)
		}
	}
	sort.SliceStable(busy, func(i, j int) bool {
		return busy[i].bytesPerSec > busy[j].bytesPerSec
	})
	if len(busy) > n {
		busy = busy[:n]
	}
	return busy
}

func fmtRate(r float64) string {
	switch {
	case r == 0:
		return "0"
	case r >= 1e6:
		return fmt.Sprintf("%.2fM/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk/s", r/1e3)
	case r >= 10:
		return fmt.Sprintf("%.0f/s", r)
	default:
		return fmt.Sprintf("%.1f/s", r)
	}
}

// fmtBytes renders a gauge of resident bytes.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fmtQuantile renders one latency quantile of a histogram snapshot with
// magnitude-appropriate rounding; "-" marks an empty histogram (nothing
// sampled yet).
func fmtQuantile(h cosmos.HistSnapshot, q float64) string {
	switch d := time.Duration(h.Quantile(q)); {
	case d == 0:
		return "-"
	case d < 10*time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	case d < 10*time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(100 * time.Microsecond).String()
	}
}
