package load

import (
	"fmt"
	"sync/atomic"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
	"cosmos/internal/transport"
)

// runTransport is the sustained TCP result-path scenario — the
// PR-7/PR-8 BENCH_transport workload rebased onto the harness: one
// daemon (in-process unless cfg.Addr points at a running cosmosd), one
// subscriber connection fanning out to cfg.Subs subscriptions, tuples
// published at the held rate from an embedded source so the timed path
// is publish → eval → wire → client callback, with the wire codec
// dominating the per-result cost.
func runTransport(cfg Config) (*Report, error) {
	addr := cfg.Addr
	var dep *liveDeployment
	if addr == "" {
		var err error
		dep, err = startLive(core.Options{
			Nodes: 16, Seed: cfg.Seed, ExecWorkers: cfg.Workers, IngestBatch: 1,
		}, true)
		if err != nil {
			return nil, err
		}
		defer dep.close()
		addr = dep.addr
	}

	pub, err := newPublisher(dep, addr, loadInfo("Load00", cfg.Rate), 1)
	if err != nil {
		return nil, err
	}
	defer pub.close()

	sub, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer sub.Close()

	rec := NewRecorder(time.Now())
	var extractErr atomic.Value
	target := int64(cfg.targetEvents()) * int64(cfg.Subs)
	arrived := make(chan struct{}, 1)
	for i := 0; i < cfg.Subs; i++ {
		track := rec.NewTrack(1).Expect(0)
		var x seqPub
		_, err := sub.Submit(loadQuery("Load00"), 3+i%8, func(t stream.Tuple, _ uint64) {
			seq, pubNs, err := x.extract(t)
			if err != nil {
				extractErr.CompareAndSwap(nil, err)
				return
			}
			rec.Observe(track, seq, pubNs, int64(t.Ts))
			if rec.Delivered() >= target {
				select {
				case arrived <- struct{}{}:
				default:
				}
			}
		}, nil, nil)
		if err != nil {
			return nil, err
		}
	}
	// Settle subscription propagation before traffic starts.
	if err := sub.Quiesce(); err != nil {
		return nil, err
	}
	statsBefore, err := sub.Stats()
	if err != nil {
		return nil, err
	}

	var probe memProbe
	probe.start()
	pacer := NewPacer(cfg.Rate)
	rec.start = pacer.Start()
	events := cfg.targetEvents()
	for i := 0; i < events; i++ {
		intended := pacer.Tick()
		if err := pub.publish(loadTuple(pub.schema, int64(i), intended, pacer.Elapsed())); err != nil {
			return nil, fmt.Errorf("load: publish: %w", err)
		}
	}
	pubElapsed := pacer.Elapsed()

	// Drain: the delivery callbacks signal when the last expected
	// result lands; anything missing at the deadline is charged lost.
	deadline := time.Now().Add(cfg.DrainTimeout)
	for rec.Delivered() < target && time.Now().Before(deadline) {
		select {
		case <-arrived:
		case <-time.After(time.Until(deadline)):
		}
	}
	total := pacer.Elapsed()
	allocs := probe.allocsPer(rec.Delivered())
	if err, _ := extractErr.Load().(error); err != nil {
		return nil, err
	}

	final := int64(events) - 1
	for _, tr := range rec.Tracks() {
		tr.AddTailLoss(final)
	}
	lost, dups := rec.Totals()
	statsAfter, err := sub.Stats()
	if err != nil {
		return nil, err
	}

	res := baseResults(pacer, rec, pubElapsed, total)
	res.Expected = target
	res.Lost = lost
	res.Duplicated = dups
	res.AllocsPerResult = allocs
	return &Report{
		Area: "transport",
		Config: ReportConfig{
			Backend:    "tcp",
			RatePerSec: cfg.Rate,
			DurationS:  cfg.Duration.Seconds(),
			Events:     events,
			Subs:       cfg.Subs,
			Workers:    cfg.Workers,
			Seed:       cfg.Seed,
		},
		Results: res,
		Stages:  stageReports(statsBefore, statsAfter),
	}, nil
}

// publisher abstracts the ingest side: an embedded SourcePort when the
// daemon runs in-process (the direct-publish path the transport bench
// always measured), a dedicated TCP connection against an external
// daemon.
type publisher struct {
	schema  *stream.Schema
	publish func(stream.Tuple) error
	close   func()
}

func newPublisher(dep *liveDeployment, addr string, info *stream.Info, node int) (*publisher, error) {
	if dep != nil {
		port, err := dep.ls.RegisterStream(info, node)
		if err != nil {
			return nil, err
		}
		return &publisher{schema: info.Schema, publish: port.Publish, close: func() {}}, nil
	}
	tc, err := transport.DialConfig(addr, transport.Config{})
	if err != nil {
		return nil, err
	}
	if err := tc.Register(info, node); err != nil {
		tc.Close()
		return nil, err
	}
	return &publisher{schema: info.Schema, publish: tc.Publish, close: func() { tc.Close() }}, nil
}
