package load

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
	"cosmos/internal/transport"
)

// The clients scenario stresses the daemon's connection fan-out:
// hundreds of independently dialling TCP clients (cfg.Clients), each
// holding one pass-through subscription over one of cfg.Streams source
// streams, while tuples flow at the held rate. The dial storm — every
// connection and subscription arriving concurrently — is the scenario's
// point and runs fully live. Halfway through, every fourth client
// cancels and resubmits; like the churn scenario's membership ops, that
// burst happens at an announced quiesced boundary (identical queries on
// one stream share a merged group, and a live re-version drops
// co-members' in-flight results — see internal/load/churn.go), so every
// ledger stays exact: stable clients account for every sequence,
// churned replacements for everything from the boundary on.
const clientsNodes = 32

// tcpClient is one dialling client's bookkeeping; tag/track are
// replaced when the client churns at the halfway boundary.
type tcpClient struct {
	conn    *transport.Client
	stream  int
	churner bool
	tag     string
	track   *Track
}

func runClients(cfg Config) (*Report, error) {
	addr := cfg.Addr
	var dep *liveDeployment
	if addr == "" {
		var err error
		dep, err = startLive(core.Options{
			Nodes: clientsNodes, Seed: cfg.Seed, ExecWorkers: cfg.Workers, IngestBatch: 1,
		}, true)
		if err != nil {
			return nil, err
		}
		defer dep.close()
		addr = dep.addr
	}

	perStream := cfg.Rate / cfg.Streams
	if perStream < 1 {
		perStream = 1
	}
	pubs := make([]*publisher, cfg.Streams)
	for i := range pubs {
		p, err := newPublisher(dep, addr, loadInfo(fmt.Sprintf("Feed%02d", i), perStream), 1+i%4)
		if err != nil {
			return nil, err
		}
		defer p.close()
		pubs[i] = p
	}

	rec := NewRecorder(time.Now())
	var extractErr atomic.Value

	// subscribe installs (or replaces) the client's one subscription;
	// firstDue is the stream's next sequence once the subscription is
	// settled (0 before traffic, the boundary's cursor when churning).
	subscribe := func(cl *tcpClient, firstDue int64) error {
		track := rec.NewTrack(1).Expect(firstDue)
		var x seqPub
		tag, err := cl.conn.Submit(loadQuery(pubs[cl.stream].schema.Stream),
			cl.stream%clientsNodes, func(t stream.Tuple, _ uint64) {
				seq, pubNs, err := x.extract(t)
				if err != nil {
					extractErr.CompareAndSwap(nil, err)
					return
				}
				rec.Observe(track, seq, pubNs, int64(t.Ts))
			}, nil, nil)
		if err != nil {
			return err
		}
		cl.tag, cl.track = tag, track
		return nil
	}

	// Dial and subscribe all clients concurrently — the point of the
	// scenario is many independent sessions arriving at once.
	clients := make([]*tcpClient, cfg.Clients)
	defer func() {
		for _, cl := range clients {
			if cl != nil && cl.conn != nil {
				cl.conn.Close()
			}
		}
	}()
	var wg sync.WaitGroup
	dialErrs := make([]error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		clients[c] = &tcpClient{stream: c % cfg.Streams, churner: c%4 == 0}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := transport.Dial(addr)
			if err != nil {
				dialErrs[c] = err
				return
			}
			clients[c].conn = conn
			dialErrs[c] = subscribe(clients[c], 0)
		}(c)
	}
	wg.Wait()
	for c, err := range dialErrs {
		if err != nil {
			return nil, fmt.Errorf("load: client %d: %w", c, err)
		}
	}
	if err := clients[0].conn.Quiesce(); err != nil {
		return nil, err
	}
	statsBefore, err := clients[0].conn.Stats()
	if err != nil {
		return nil, err
	}

	events := cfg.targetEvents()
	var probe memProbe
	probe.start()
	pacer := NewPacer(cfg.Rate)
	rec.start = pacer.Start()
	seqs := make([]int64, cfg.Streams)
	for i := 0; i < events; i++ {
		if i == events/2 && i > 0 {
			// Churn burst at a drained boundary: quiesce, cancel and
			// resubmit every churner, quiesce again so the replacement
			// groups' advertisements settle, then amend the schedule.
			if err := clients[0].conn.Quiesce(); err != nil {
				return nil, err
			}
			for _, cl := range clients {
				if !cl.churner {
					continue
				}
				cl.track.Close()
				if err := cl.conn.Cancel(cl.tag); err != nil {
					return nil, fmt.Errorf("load: churn cancel: %w", err)
				}
				if err := subscribe(cl, seqs[cl.stream]); err != nil {
					return nil, fmt.Errorf("load: churn resubmit: %w", err)
				}
			}
			if err := clients[0].conn.Quiesce(); err != nil {
				return nil, err
			}
			pacer.Shift()
		}
		intended := pacer.Tick()
		k := i % cfg.Streams
		if err := pubs[k].publish(loadTuple(pubs[k].schema, seqs[k], intended, pacer.Elapsed())); err != nil {
			return nil, fmt.Errorf("load: publish: %w", err)
		}
		seqs[k]++
	}
	pubElapsed := pacer.Elapsed()

	if err := clients[0].conn.Quiesce(); err != nil {
		return nil, err
	}
	waitUntil(time.Now().Add(cfg.DrainTimeout), func() bool {
		for _, cl := range clients {
			if !cl.track.Settled(seqs[cl.stream] - 1) {
				return false
			}
		}
		return true
	})
	total := pacer.Elapsed()
	allocs := probe.allocsPer(rec.Delivered())
	if err, _ := extractErr.Load().(error); err != nil {
		return nil, err
	}

	for _, cl := range clients {
		if final := seqs[cl.stream] - 1; final >= 0 {
			cl.track.AddTailLoss(final)
		}
	}
	lost, dups := rec.Totals()
	statsAfter, err := clients[0].conn.Stats()
	if err != nil {
		return nil, err
	}

	res := baseResults(pacer, rec, pubElapsed, total)
	res.Lost = lost
	res.Duplicated = dups
	res.AllocsPerResult = allocs
	return &Report{
		Area: "clients",
		Config: ReportConfig{
			Backend:    "tcp",
			RatePerSec: cfg.Rate,
			DurationS:  cfg.Duration.Seconds(),
			Events:     events,
			Clients:    cfg.Clients,
			Streams:    cfg.Streams,
			Workers:    cfg.Workers,
			Seed:       cfg.Seed,
			Shifts:     pacer.Shifts(),
		},
		Results: res,
		Stages:  stageReports(statsBefore, statsAfter),
	}, nil
}
