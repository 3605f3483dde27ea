package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"cosmos"
	"cosmos/internal/load"
	"cosmos/internal/obs"
)

// gateWindow is the saturation publisher's in-flight bound: event i may
// be published once the standing results of event i−gateWindow have all
// arrived. The egress queues of the system are unbounded, so a publisher
// without it measures only itself.
const gateWindow = 4096

// warmResults is the warm-up publisher's in-flight bound, in standing
// results outstanding: enough to fill the windows quickly, little enough
// that the system's elastic queues keep about the size the held rate
// needs. A warm-up through the saturation gate (65 k results in flight on
// fanout_tcp) left that workload holding 9–14 MiB of queue capacity,
// whatever its bursts happened to reach, where the deployment itself
// needs 1.
const warmResults = 1024

// gateNeed is the standing result count that must have arrived before
// event i may be published through the saturation gate.
func gateNeed(cum []int64, i int) int64 {
	if i < gateWindow {
		return 0
	}
	return cum[i-gateWindow]
}

// warmNeed is the same for the warm-up: event i waits until no more than
// warmResults of its predecessors' results are outstanding.
func warmNeed(cum []int64, i int) int64 {
	if i == 0 {
		return 0
	}
	return cum[i-1] - warmResults
}

const drainTimeout = 60 * time.Second

// config is one invocation's parameters.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	// scale shrinks event counts and rates, repeats the number of
	// deployments an untraced run measures (tests run 2 at 1/20).
	scale   float64
	repeats int
	trace   bool
}

// result is everything one run measured. Metric values are keyed by
// name; units live in the metric tables (metrics.go).
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runner is one run: the plan, the oracle's account of the input, and
// what has been measured so far.
type runner struct {
	cfg config
	p   phases
	o   *oracle
	ops []churnOp
	res *result
	// samples are the standing subscriptions' latency sample buffers,
	// sized by the oracle, allocated before the heap baseline, reused by
	// every repeat.
	samples [][]sample
}

// play is one playing of the input on one deployment.
type play struct {
	*runner
	d    *deployment
	feed *feed

	ordinal []int // next churn query ordinal per stream
	live    []*churnSub
	churned []*churnSub
	// ledger holds the churn subscriptions' contiguity tracks.
	ledger      *load.Recorder
	liveSubmits []time.Duration

	pubErrs int64
	opErrs  int64
	opCount int64
}

// churnSub is one churn subscription: ledgered for contiguity between
// its first and last result, never compared with the oracle (when its
// subscription settles in the live network is not deterministic).
type churnSub struct {
	sub       *cosmos.Subscription
	done      chan struct{}
	submitted int64 // nowNs at Submit's return
	first     int64 // nowNs of the first result; the consumer's until done closes
}

// run executes one benchmark run.
func run(cfg config) (*result, error) {
	r := &runner{cfg: cfg, res: &result{metrics: map[string]float64{}}}
	r.p = planPhases(cfg.w, cfg.seconds, cfg.scale, cfg.repeats, cfg.trace)
	o, err := runOracle(cfg.w, cfg.seed, r.p)
	if err != nil {
		return nil, err
	}
	r.o = o
	r.res.notef("oracle: %d events, %d standing results; of %d standing subscriptions the set-up's %d events reach %d, the warm-up all but %d; %.0f events/s",
		r.p.n, o.cum[r.p.n-1], len(cfg.w.standing), cfg.w.primeEvents, o.primed, o.silent, o.eps)
	r.ops = churnPlan(r.p.churnOps(cfg.w.churn))
	for _, n := range o.held {
		r.samples = append(r.samples, make([]sample, 0, n))
	}
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// untraced is the run every end-to-end metric comes from: cfg.repeats
// times over, fresh deployments are set up (all but the last torn down
// at once), and the last is warmed, held at the workload's rate, measured
// for heap, saturated, torn down and checked against the oracle.
func (r *runner) untraced() error {
	// Harness memory is allocated before the baseline so heap_mb is the
	// deployment's.
	heapBase := liveHeap()

	var setups, submits, heaps, eps, cpu, allocs, net, p50s, p99s []float64
	for rep := 0; rep < r.cfg.repeats; rep++ {
		var pl *play
		for until := nowNs() + int64(r.p.setupTime); pl == nil || nowNs() < until; {
			if pl != nil {
				pl.close()
			}
			var tm setupTiming
			var err error
			if pl, tm, err = r.setUp(false); err != nil {
				return err
			}
			setups = append(setups, tm.total.Seconds())
			for _, s := range tm.submits {
				submits = append(submits, float64(s)/1e6)
			}
		}
		err := func() error {
			defer pl.close()
			if err := pl.warmUp(); err != nil {
				return err
			}
			held, err := pl.hold(r.p.warmEnd, r.p.heldEnd, nil)
			if err != nil {
				return err
			}
			p50s, p99s = append(p50s, held.p50s...), append(p99s, held.p99s...)
			r.res.notef("repeat %d held %d/s: windows p50 %.0f p99 %.0f µs; %.0f%% of %d CPUs busy, p99.9 %.0f µs, "+
				"backlog at end %d results, generator lag p50 %.0f p99 %.0f µs", rep, held.rate, held.p50s, held.p99s,
				100*held.busy, runtime.GOMAXPROCS(0), held.p999, held.backlog, held.lagP50, held.lagP99)

			heaps = append(heaps, (float64(liveHeap())-float64(heapBase))/(1<<20))

			sat, err := pl.saturate()
			if err != nil {
				return err
			}
			r.res.notef("repeat %d saturated: segments %.0f events/s, %.2f CPU µs per event", rep, sat.eps, sat.cpuUs)
			eps, cpu = append(eps, sat.eps...), append(cpu, sat.cpuUs...)
			allocs, net = append(allocs, sat.allocs), append(net, sat.netBytes)
			return pl.finish()
		}()
		if err != nil {
			return fmt.Errorf("repeat %d: %w", rep, err)
		}
	}
	m := r.res.metrics
	m["setup_s"] = median(setups)
	m["allocs_per_event"] = median(allocs)
	m["net_bytes_per_event"] = median(net)
	m["heap_mb"] = median(heaps)
	// The timed diagnostics (see metrics.go).
	m["submit_p50_ms"] = median(submits)
	m["throughput_eps"] = median(eps)
	m["latency_p50_us"] = median(p50s)
	m["latency_p99_us"] = median(p99s)
	m["cpu_us_per_event"] = median(cpu)
	q1, q3 := quartiles(setups)
	r.res.notef("%d set-ups (%d standing submits), quartiles %.4f %.4f %.4f s; heaps %.2f MiB",
		len(setups), len(submits), q1, median(setups), q3, heaps)
	r.res.notef("saturation phases: %.2f allocs, %.2f net bytes per event", allocs, net)
	return nil
}

// setUp runs one timed set-up and returns the play that continues on it;
// its feed has consumed the priming prefix.
func (r *runner) setUp(countWire bool) (*play, setupTiming, error) {
	f := newFeed(r.cfg.w, r.cfg.seed)
	for i := range r.samples {
		r.samples[i] = r.samples[i][:0]
	}
	d, tm, err := setUp(r.cfg.w, f, r.o, r.samples, countWire)
	if err != nil {
		return nil, tm, err
	}
	return &play{
		runner:  r,
		d:       d,
		feed:    f,
		ordinal: make([]int, len(r.cfg.w.streams)),
		ledger:  load.NewRecorder(epoch),
		opCount: int64(len(r.cfg.w.standing)),
	}, tm, nil
}

// close tears the play's deployment down if finish has not.
func (pl *play) close() {
	if pl.d != nil {
		pl.d.close()
		pl.d = nil
	}
}

// publish sends the next event, running the churn op due before it.
func (pl *play) publish() {
	if k, due := pl.p.churnAt(pl.cfg.w.churn, pl.feed.i); due {
		pl.churnOp(k)
	}
	si, t := pl.feed.next()
	if err := pl.d.sources[si].Publish(t); err != nil {
		pl.pubErrs++
	}
}

// publishGated publishes events up to `to` as fast as the gate allows:
// need(cum, i) standing results must have arrived before event i goes
// out.
func (pl *play) publishGated(to int, need func(cum []int64, i int) int64) {
	delivered := &pl.d.sink.delivered
	for pl.feed.i < to {
		for n := need(pl.o.cum, pl.feed.i); delivered.Load() < n; {
			time.Sleep(100 * time.Microsecond)
		}
		pl.publish()
	}
}

// warmUp publishes the discarded prefix: caches fill, windows load.
func (pl *play) warmUp() error {
	pl.publishGated(pl.p.warmEnd, warmNeed)
	if _, err := pl.d.sink.waitDelivered(pl.o.cum[pl.p.warmEnd-1], drainTimeout); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

type saturation struct {
	// Per segment: source events/s and process CPU µs per event.
	eps, cpuUs []float64
	// Over the phase, per event.
	allocs   float64
	netBytes float64
}

// saturate publishes the saturation phase's fixed event count through
// the gate, in satSegments equal segments. A segment runs from the
// publish of its first event to the publish of the next segment's first;
// the gate ties the publisher to the deliveries 4096 events behind it,
// so that is the rate results arrive at. The last segment ends with the
// arrival of the phase's last expected result, the drain of the window
// included.
func (pl *play) saturate() (saturation, error) {
	var s saturation
	from, to := pl.p.heldEnd, pl.p.n
	runtime.GC()
	bytes0, err := pl.netBytes()
	if err != nil {
		return s, err
	}
	mallocs0 := mallocs()

	per := (to - from) / satSegments
	begin, cpu0 := nowNs(), cpuTime()
	for k := 1; k <= satSegments; k++ {
		end := from + k*per
		if k == satSegments {
			end = to
		}
		events := float64(end - pl.feed.i)
		pl.publishGated(end, gateNeed)
		now := nowNs()
		if k == satSegments {
			if now, err = pl.d.sink.waitDelivered(pl.o.cum[to-1], drainTimeout); err != nil {
				return s, fmt.Errorf("saturation: %w", err)
			}
		}
		cpu1 := cpuTime()
		s.eps = append(s.eps, events/(float64(now-begin)/1e9))
		s.cpuUs = append(s.cpuUs, float64(cpu1-cpu0)/1e3/events)
		begin, cpu0 = now, cpu1
	}
	mallocs1 := mallocs()
	// Link counters trail the deliveries they caused by at most the last
	// hop's forwarding; Quiesce settles them exactly.
	if err := pl.d.sub.Quiesce(); err != nil {
		return s, err
	}
	bytes1, err := pl.netBytes()
	if err != nil {
		return s, err
	}
	s.allocs = float64(mallocs1-mallocs0) / float64(to-from)
	s.netBytes = float64(bytes1-bytes0) / float64(to-from)
	return s, nil
}

// netBytes is the communication cost so far: tuple bytes over CBN links
// plus result bytes on the wire.
func (pl *play) netBytes() (int64, error) {
	st, err := pl.d.sub.Stats()
	if err != nil {
		return 0, err
	}
	n := st.TotalDataBytes
	if st.Wire != nil {
		n += st.Wire.Bytes
	}
	return n, nil
}

type heldStats struct {
	rate       int
	p50s, p99s []float64 // µs, one per window
	p999       float64   // µs, whole phase
	backlog    int64     // standing results outstanding at the last publish
	lagP50     float64   // µs, generator scheduling lag: how late a tick ran
	lagP99     float64
	busy       float64 // process CPU ÷ (wall × GOMAXPROCS) over the phase
}

// pubSpan is one traced Source.Publish call.
type pubSpan struct{ start, end int64 }

// hold publishes events [from, to) open loop at the workload's held
// rate and turns the standing subscriptions' samples into per-window
// latency quantiles. Latency runs from the event's intended publish time
// to receipt in the subscriber. spans, when non-nil, receives one
// Publish span per event (traced runs).
func (pl *play) hold(from, to int, spans *[]pubSpan) (heldStats, error) {
	sk := pl.d.sink
	runtime.GC()
	ticks, err := newAlarm()
	if err != nil {
		return heldStats{}, err
	}
	defer ticks.close()
	rate := int(float64(pl.cfg.w.heldRate) * pl.cfg.scale)
	h := heldStats{rate: rate}
	interval := time.Second / time.Duration(rate)
	// The pacer owns the schedule and records how late each tick ran;
	// the waiting is the alarm's.
	pacer := load.NewPacer(rate)
	start := int64(pacer.Start().Sub(epoch))
	cpu0 := cpuTime()
	sk.sampleFrom.Store(int64(from))
	for k := 0; pl.feed.i < to; k++ {
		if err := ticks.sleepUntil(start + int64(k)*int64(interval)); err != nil {
			return h, err
		}
		if off := pacer.Tick(); off != time.Duration(k)*interval {
			return h, fmt.Errorf("held rate: the pacer's tick %d is due at %v, not %v", k, off, time.Duration(k)*interval)
		}
		if spans != nil {
			t0 := nowNs()
			pl.publish()
			*spans = append(*spans, pubSpan{t0, nowNs()})
			continue
		}
		pl.publish()
	}
	h.backlog = pl.o.cum[to-1] - sk.delivered.Load()
	h.busy = float64(cpuTime()-cpu0) / float64(nowNs()-start) / float64(runtime.GOMAXPROCS(0))
	if _, err := sk.waitDelivered(pl.o.cum[to-1], drainTimeout); err != nil {
		return h, fmt.Errorf("held rate: %w", err)
	}
	sk.sampleFrom.Store(math.MaxInt64)

	perWindow := rate / windowsPerSec
	byWindow := make([][]int64, (to-from)/perWindow)
	var all obs.Histogram
	for _, st := range pl.d.subs {
		for _, s := range st.samples {
			k := int(s.idx) - from
			if k < 0 || int(s.idx) >= to {
				continue // another held phase's (a traced run has two)
			}
			lat := max(0, s.recv-(start+int64(k)*int64(interval)))
			all.Observe(lat)
			if wi := k / perWindow; wi < len(byWindow) {
				byWindow[wi] = append(byWindow[wi], lat)
			}
		}
	}
	for wi, lats := range byWindow {
		if len(lats) < 1000 && pl.cfg.scale == 1 {
			return h, fmt.Errorf("held rate: window %d holds %d results; a p99 needs 1000", wi, len(lats))
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		h.p50s = append(h.p50s, float64(quantile(lats, 0.50))/1e3)
		h.p99s = append(h.p99s, float64(quantile(lats, 0.99))/1e3)
	}
	h.p999 = float64(all.Snapshot().Quantile(0.999)) / 1e3
	lag := pacer.LagSnapshot()
	h.lagP50, h.lagP99 = float64(lag.Quantile(0.5))/1e3, float64(lag.Quantile(0.99))/1e3
	// A backlog above one second of offered load means the rate was not
	// sustained: the latency figures then describe a growing queue.
	phase := pl.o.cum[to-1] - pl.o.cum[from-1]
	if float64(h.backlog) > float64(phase)/float64(to-from)*float64(rate) {
		pl.res.failed += phase
		pl.res.notef("held rate: a backlog of %d results at the end exceeds one second of offered load: the latency metrics count as failed", h.backlog)
	}
	return h, nil
}

// churnOp runs the k-th scheduled control-plane operation on the
// publishing connection.
func (pl *play) churnOp(k int) {
	op := pl.ops[k]
	pl.opCount++
	if !op.add {
		cs := pl.live[op.victim]
		pl.live = append(pl.live[:op.victim], pl.live[op.victim+1:]...)
		if cs.sub == nil {
			return // its Submit failed, and was counted then
		}
		if err := cs.sub.Cancel(); err != nil {
			pl.opErrs++
		}
		return
	}
	t0 := time.Now()
	sub, err := pl.d.pub.Submit(context.Background(), churnQuery(op.stream, pl.ordinal[op.stream]), churnNode(k))
	pl.liveSubmits = append(pl.liveSubmits, time.Since(t0))
	pl.ordinal[op.stream]++
	cs := &churnSub{sub: sub, done: make(chan struct{}), submitted: nowNs()}
	// The op keeps its slot either way, so later cancels' victims still
	// line up with the plan.
	pl.live = append(pl.live, cs)
	pl.churned = append(pl.churned, cs)
	if err != nil {
		pl.opErrs++
		close(cs.done)
		return
	}
	track := pl.ledger.NewTrack(1)
	go func() {
		defer close(cs.done)
		for t := range sub.Results() {
			if cs.first == 0 {
				cs.first = nowNs()
			}
			// MAX(seq) leads every churn query's select list.
			pl.ledger.Observe(track, t.Values[0].AsInt(), 0, -1)
		}
	}()
}

// finish tears the deployment down and settles the play's accounts
// against the oracle.
func (pl *play) finish() error {
	res, d := pl.res, pl.d
	for _, cs := range pl.live {
		if cs.sub != nil {
			pl.opCount++
			if err := cs.sub.Cancel(); err != nil {
				pl.opErrs++
			}
		}
	}
	pl.close()
	var firsts []float64
	for _, cs := range pl.churned {
		<-cs.done
		if cs.first != 0 {
			firsts = append(firsts, float64(cs.first-cs.submitted)/1e6)
		}
	}

	var expected, lost, dup, mismatched int64
	for i, st := range d.subs {
		expected += pl.o.counts[i]
		switch {
		case st.count < pl.o.counts[i]:
			lost += pl.o.counts[i] - st.count
		case st.count > pl.o.counts[i]:
			dup += st.count - pl.o.counts[i]
		case st.hash != pl.o.hashes[i]:
			mismatched++
			res.notef("standing subscription %d (%s): results differ from the oracle's", i, pl.cfg.w.standing[i].cql)
		}
	}
	churnLost, churnDup := pl.ledger.Totals()
	failed := pl.pubErrs + lost + dup + mismatched + churnLost + churnDup + pl.opErrs
	res.attempted += int64(pl.feed.i) + expected + pl.ledger.Delivered() + pl.opCount
	res.failed += failed
	if failed > 0 {
		res.notef("accounts: %d published (%d errors), %d standing results expected (%d lost, %d duplicated, %d subscriptions mismatched), "+
			"%d churn results (%d lost, %d duplicated), %d control ops (%d failed)",
			pl.feed.i, pl.pubErrs, expected, lost, dup, mismatched, pl.ledger.Delivered(), churnLost, churnDup, pl.opCount, pl.opErrs)
	}
	if len(pl.liveSubmits) > 0 {
		res.metrics["e2e.live_submit_p50_ms"] = medianDur(pl.liveSubmits).Seconds() * 1e3
		res.metrics["e2e.first_result_p50_ms"] = median(firsts)
		res.notef("churn: %d subscriptions, %d results; live submit p50 %.3f ms, first result p50 %.3f ms after submit",
			len(pl.churned), pl.ledger.Delivered(), res.metrics["e2e.live_submit_p50_ms"], res.metrics["e2e.first_result_p50_ms"])
	}
	return nil
}

func init() {
	// The benchmark sets its own parallelism and leaves GOGC at its
	// default, whatever the environment says.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	debug.SetGCPercent(100)
}
