package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cosmos/internal/core"
)

// span is one traced interval: what ran, when, under which span, for
// which event (−1 when it belongs to none). Times are ns on the
// benchmark's clock.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Event  int    `json:"event"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time (the run's own).
type tracer struct {
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: nowNs(), Parent: parent, Event: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = nowNs() }

func (t *tracer) add(name string, start, end int64, parent, event int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: start, End: end, Parent: parent, Event: event})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, the spans' durations minus the part of
// each their children cover: a layer's self time.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, upTo), min(k.End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// traceEvery thins the per-event spans written out: every event's
// Publish is timed, every traceEvery-th event's spans are kept.
const traceEvery = 16

// gauges are the 10 Hz samples of a traced phase.
type gauges struct {
	workerQueue []int64 // deepest exec worker queue per sample
	brokerQueue []int64 // deepest broker mailbox per sample
}

// sampleGauges polls Client.Stats at 10 Hz until stop closes.
func (pl *play) sampleGauges(stop <-chan struct{}, done chan<- gauges) {
	var g gauges
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			done <- g
			return
		case <-tick.C:
			st, err := pl.d.sub.Stats()
			if err != nil {
				continue
			}
			var wq, bq int64
			for _, w := range st.Workers {
				wq = max(wq, int64(w.QueueDepth))
			}
			for _, q := range st.BrokerQueues {
				bq = max(bq, int64(q))
			}
			g.workerQueue = append(g.workerQueue, wq)
			g.brokerQueue = append(g.brokerQueue, bq)
		}
	}
}

func p99(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(quantile(s, 0.99))
}

// traced is the run the per-layer metrics come from: one set-up, the
// warm-up, the held-rate phase in two halves — the first as in an
// untraced run, the second with a span around every Publish, Stats
// deltas and 10 Hz gauges — one saturation phase, then the layer replays.
func (r *runner) traced() error {
	m := r.res.metrics
	w := r.cfg.w
	tr := &tracer{}
	root := tr.begin("run", -1)
	m["core.sync_oracle_eps"] = r.o.eps

	id := tr.begin("setup", root)
	pl, tm, err := r.setUp(true)
	tr.end(id)
	if err != nil {
		return err
	}
	defer pl.close()
	at := tr.spans[id].Start + int64(tm.assemble)
	for _, d := range tm.submits {
		// Submits run back to back after assembly and registration; the
		// span file places them in order, the durations are exact.
		tr.add("submit", at, at+int64(d), id, -1)
		at += int64(d)
	}
	m["submit_p50_ms"] = float64(medianDur(tm.submits)) / 1e6
	if w.resultsOverTCP {
		m["transport.submit_rtt_us"] = float64(medianDur(tm.submits)) / 1e3
	}

	id = tr.begin("warmup", root)
	err = pl.warmUp()
	tr.end(id)
	if err != nil {
		return err
	}

	mid := r.p.warmEnd + (r.p.heldSecs/2)*r.p.heldPerSec()
	id = tr.begin("held.untraced", root)
	plain, err := pl.hold(r.p.warmEnd, mid, nil)
	tr.end(id)
	if err != nil {
		return err
	}

	st0, err := pl.d.sub.Stats()
	if err != nil {
		return err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var in0 int64
	if pl.d.wire != nil {
		in0 = pl.d.wire.in.Load()
	}
	stop, done := make(chan struct{}), make(chan gauges, 1)
	go pl.sampleGauges(stop, done)
	spans := make([]pubSpan, 0, r.p.heldEnd-mid)
	id = tr.begin("held.traced", root)
	held, err := pl.hold(mid, r.p.heldEnd, &spans)
	tr.end(id)
	close(stop)
	g := <-done
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&mem1)
	st1, err := pl.d.sub.Stats()
	if err != nil {
		return err
	}
	events := float64(r.p.heldEnd - mid)

	// Publish spans, and per kept event the in-flight span from Publish's
	// return to the last of its results.
	var pubNs []int64
	blocked := 0
	lastRecv := map[int]int64{}
	for _, st := range pl.d.subs {
		for _, s := range st.samples {
			if i := int(s.idx); i >= mid && i%traceEvery == 0 && s.recv > lastRecv[i] {
				lastRecv[i] = s.recv
			}
		}
	}
	for k, ps := range spans {
		d := ps.end - ps.start
		pubNs = append(pubNs, d)
		if d > int64(100*time.Microsecond) {
			blocked++
		}
		if ev := mid + k; ev%traceEvery == 0 {
			pid := tr.add("publish", ps.start, ps.end, id, ev)
			if recv, ok := lastRecv[ev]; ok {
				tr.add("in_flight", ps.end, recv, pid, ev)
			}
		}
	}
	sort.Slice(pubNs, func(i, j int) bool { return pubNs[i] < pubNs[j] })
	m["core.publish_ns"] = float64(quantile(pubNs, 0.5))
	m["core.publish_blocked_ratio"] = float64(blocked) / float64(len(pubNs))
	if w.publishOverTCP {
		m["transport.publish_rtt_us"] = float64(quantile(pubNs, 0.5)) / 1e3
	}

	m["core.deliver_fanout"] = ratio(st1.Delivered-st0.Delivered, st1.Ingested-st0.Ingested)
	m["exec.pushes_per_event"] = ratio(planPushes(st1)-planPushes(st0), st1.Ingested-st0.Ingested)
	msgs1, bytes1 := linkTotals(st1)
	msgs0, bytes0 := linkTotals(st0)
	m["cbn.link_msgs_per_event"] = float64(msgs1-msgs0) / events
	m["cbn.link_bytes_per_event"] = float64(bytes1-bytes0) / events
	groups := 0
	for _, n := range st1.GroupsPerProc {
		groups += n
	}
	m["merge.groups"] = float64(groups)
	m["merge.grouping_ratio"] = ratio(int64(st1.Queries), int64(groups))
	if st1.Wire != nil && st0.Wire != nil {
		m["transport.wire_bytes_per_result"] = ratio(st1.Wire.Bytes-st0.Wire.Bytes, st1.Wire.Results-st0.Wire.Results)
		m["transport.tuples_per_frame"] = ratio(st1.Wire.Results-st0.Wire.Results, st1.Wire.Batches-st0.Wire.Batches)
	}
	if pl.d.wire != nil && w.publishOverTCP {
		m["transport.ingest_bytes_per_event"] = float64(pl.d.wire.in.Load()-in0) / events
	}
	for _, sg := range st1.Stages {
		m["obs.stage_"+sg.Stage+"_p50_ns"] = float64(sg.Lat.Quantile(0.5))
	}
	m["exec.worker_queue_p99"] = p99(g.workerQueue)
	m["cbn.broker_queue_p99"] = p99(g.brokerQueue)

	m["latency_p99_us"] = median(plain.p99s)
	m["gen.sched_lag_p50_us"] = held.lagP50
	m["gen.sched_lag_p99_us"] = held.lagP99
	m["e2e.backlog_end"] = float64(held.backlog)
	m["e2e.latency_p999_us"] = held.p999
	m["go.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["go.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["go.goroutines"] = float64(runtime.NumGoroutine())
	plainP50, tracedP50 := median(plain.p50s), median(held.p50s)
	m["trace.overhead_pct"] = 100 * (tracedP50 - plainP50) / plainP50
	r.res.notef("held-rate p50: %.1f µs untraced, %.1f µs traced; p99: %.1f, %.1f µs",
		plainP50, tracedP50, median(plain.p99s), median(held.p99s))
	m["latency_p50_us"] = plainP50

	id = tr.begin("saturation", root)
	sat, err := pl.saturate()
	tr.end(id)
	if err != nil {
		return err
	}
	m["throughput_eps"], m["cpu_us_per_event"] = median(sat.eps), median(sat.cpuUs)

	if err := pl.finish(); err != nil {
		return err
	}

	if w.resultsOverTCP && w.churn == nil {
		id = tr.begin("held.embedded", root)
		embedded, err := r.embeddedP50()
		tr.end(id)
		if err != nil {
			return err
		}
		m["transport.result_path_us"] = plainP50 - embedded
	}
	if err := replayLayers(w, r.cfg.seed, r.p.warmEnd, tr, m); err != nil {
		return err
	}
	tr.end(root)
	return writeTrace(w.name, tr, m)
}

// embeddedP50 runs the workload's input once more with the standing
// subscriptions on an EmbedLive session — no wire — and returns the
// held-rate p50 of a short phase: Dial's p50 minus this is the
// transport layer's self time on the result path.
func (r *runner) embeddedP50() (float64, error) {
	w := *r.cfg.w
	w.resultsOverTCP, w.publishOverTCP = false, false
	cfg := r.cfg
	cfg.w = &w
	e := &runner{cfg: cfg, p: r.p, o: r.o, res: &result{metrics: map[string]float64{}}}
	e.samples = make([][]sample, len(w.standing))
	pl, _, err := e.setUp(false)
	if err != nil {
		return 0, err
	}
	defer pl.close()
	if err := pl.warmUp(); err != nil {
		return 0, err
	}
	h, err := pl.hold(r.p.warmEnd, r.p.warmEnd+(r.p.heldSecs/2)*r.p.heldPerSec(), nil)
	if err != nil {
		return 0, err
	}
	return median(h.p50s), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func planPushes(st core.SystemStats) int64 {
	var n int64
	for _, p := range st.Plans {
		n += p.Pushes
	}
	return n
}

func linkTotals(st core.SystemStats) (msgs, bytes int64) {
	for _, l := range st.Links {
		msgs += l.DataMsgs
		bytes += l.DataBytes
	}
	return msgs, bytes
}

// writeTrace writes the span file: benchmark/out/trace_<workload>.json
// under the working directory (the checkout's root).
func writeTrace(name string, tr *tracer, metrics map[string]float64) error {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Metrics  map[string]float64 `json:"metrics"`
		SelfNs   map[string]int64   `json:"self_ns"`
		Spans    []span             `json:"spans"`
	}{name, metrics, selfTimes(tr.spans), tr.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+name+".json"), b, 0o644)
}
