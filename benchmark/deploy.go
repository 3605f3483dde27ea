package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"cosmos"
	"cosmos/internal/core"
	"cosmos/internal/transport"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// deployment is one assembled system under test with the sessions the
// workload drives it through.
type deployment struct {
	ls  *core.LiveSystem
	srv *transport.Server
	// served receives Serve's return once the listener closed.
	served chan error
	// wire counts the bytes the server reads (traced runs).
	wire *countingListener

	pub     cosmos.Client // registers and publishes the sources
	sub     cosmos.Client // holds the standing subscriptions
	sources []cosmos.Source
	subs    []*standing
	sink    *sink
}

// sink is what the standing subscriptions' consumers share: the count
// the gate and the drains wait on, and the switch that starts latency
// sampling.
type sink struct {
	w         *workload
	delivered atomic.Int64
	// awaited is the count waitDelivered waits for (MaxInt64: none); the
	// consumer whose result reaches it sends the time on reached.
	awaited atomic.Int64
	reached chan arrival
	// sampleFrom is the first event index whose results are timed;
	// MaxInt64 while no held-rate phase is running.
	sampleFrom atomic.Int64
}

// arrival says when the standing result count reached n.
type arrival struct{ n, at int64 }

// sample is one timed result: the event it answers and when it arrived.
type sample struct {
	idx  int32
	recv int64
}

// standing is one measured subscription and its consumer's tallies,
// which belong to the consumer goroutine until done closes.
type standing struct {
	sub     *cosmos.Subscription
	done    chan struct{}
	count   int64
	hash    uint64
	samples []sample
}

func (sk *sink) consume(st *standing) {
	defer close(st.done)
	for t := range st.sub.Results() {
		if idx := int64(sk.w.eventIndex(t.Ts)); idx >= sk.sampleFrom.Load() {
			st.samples = append(st.samples, sample{int32(idx), nowNs()})
		}
		st.count++
		st.hash += hashTuple(t)
		// The count goes last: whoever reads it sees the tallies and
		// samples of every result it counts.
		if n := sk.delivered.Add(1); n == sk.awaited.Load() {
			sk.reached <- arrival{n, nowNs()}
		}
	}
}

// waitDelivered blocks until the standing result count reaches n — the
// oracle's count, so it is never passed — and returns when it did, on
// the benchmark's clock: the end of a set-up and of a saturation phase.
// The consumer that delivers the n-th result takes the time; nothing
// polls.
func (sk *sink) waitDelivered(n int64, timeout time.Duration) (int64, error) {
	sk.awaited.Store(n)
	defer sk.awaited.Store(math.MaxInt64)
	if sk.delivered.Load() >= n {
		// Already there. A consumer that saw awaited in time reports as
		// well; the next wait skips that report.
		return nowNs(), nil
	}
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for {
		select {
		case a := <-sk.reached:
			if a.n == n {
				return a.at, nil
			}
		case <-expired.C:
			return 0, fmt.Errorf("%d of %d standing results after %v", sk.delivered.Load(), n, timeout)
		}
	}
}

// setupTiming is what one set-up measured.
type setupTiming struct {
	total    time.Duration
	assemble time.Duration   // topology → NewLiveSystem → listen/dial
	submits  []time.Duration // one per standing Client.Submit
}

// setUp assembles a fresh deployment and brings it to the point where
// every standing subscription has delivered its first result:
// NewLiveSystem → listen/dial → RegisterStream → every standing Submit →
// Quiesce → publish the priming prefix. samples, when non-nil, holds each
// subscription's latency sample buffer (the deployment the run continues
// on); count is whether the server's listener counts bytes.
func setUp(w *workload, f *feed, o *oracle, samples [][]sample, count bool) (*deployment, setupTiming, error) {
	var tm setupTiming
	start := nowNs()
	// Room for one report per wait: a consumer never blocks on it.
	d := &deployment{sink: &sink{w: w, reached: make(chan arrival, 64)}}
	d.sink.sampleFrom.Store(math.MaxInt64)
	d.sink.awaited.Store(math.MaxInt64)
	fail := func(err error) (*deployment, setupTiming, error) {
		d.close()
		return nil, tm, fmt.Errorf("set-up: %w", err)
	}
	ls, err := core.NewLiveSystem(w.opts)
	if err != nil {
		return fail(err)
	}
	d.ls = ls
	embedded := cosmos.EmbedLive(ls)
	d.pub, d.sub = embedded, embedded
	if w.resultsOverTCP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		if count {
			d.wire = &countingListener{Listener: ln}
			ln = d.wire
		}
		d.srv = transport.NewServer(ls.System)
		d.served = make(chan error, 1)
		go func() { d.served <- d.srv.Serve(ln) }()
		addr := ln.Addr().String()
		if d.sub, err = cosmos.Dial(addr); err != nil {
			return fail(err)
		}
		if w.publishOverTCP {
			if d.pub, err = cosmos.Dial(addr); err != nil {
				return fail(err)
			}
		}
	}
	tm.assemble = time.Duration(nowNs() - start)

	for _, s := range w.streams {
		src, err := d.pub.RegisterStream(s.info, s.node)
		if err != nil {
			return fail(err)
		}
		d.sources = append(d.sources, src)
	}
	for i, q := range w.standing {
		t0 := time.Now()
		sub, err := d.sub.Submit(context.Background(), q.cql, q.node)
		tm.submits = append(tm.submits, time.Since(t0))
		if err != nil {
			return fail(fmt.Errorf("standing query %d: %w", i, err))
		}
		st := &standing{sub: sub, done: make(chan struct{})}
		if samples != nil {
			st.samples = samples[i]
		}
		d.subs = append(d.subs, st)
		go d.sink.consume(st)
	}
	// Subscription propagation is asynchronous on the live network.
	if err := d.sub.Quiesce(); err != nil {
		return fail(err)
	}
	for f.i < w.primeEvents {
		si, t := f.next()
		if err := d.sources[si].Publish(t); err != nil {
			return fail(fmt.Errorf("priming event %d: %w", f.i-1, err))
		}
	}
	end, err := d.sink.waitDelivered(o.cum[w.primeEvents-1], 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("priming: %w", err))
	}
	tm.total = time.Duration(end - start)
	return d, tm, nil
}

// close tears the deployment down and waits for every goroutine it
// started: sessions first (their subscriptions' channels close once
// drained), then the server, then the system.
func (d *deployment) close() {
	if d.sub != nil {
		_ = d.sub.Close()
	}
	if d.pub != nil && d.pub != d.sub {
		_ = d.pub.Close()
	}
	for _, st := range d.subs {
		<-st.done
	}
	if d.srv != nil {
		_ = d.srv.Close()
		<-d.served
	}
	if d.ls != nil {
		d.ls.Close()
	}
}

// countingListener counts the bytes the server reads from its
// connections: what clients sent, ingest and control.
type countingListener struct {
	net.Listener
	in atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: &l.in}, nil
}

type countingConn struct {
	net.Conn
	in *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.Add(int64(n))
	return n, err
}
