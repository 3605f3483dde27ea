package load

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
	"cosmos/internal/transport"
)

// TestScenarioClients stresses the daemon's connection fan-out: many
// independently dialling TCP clients, each holding one pass-through
// subscription over one of the source streams, while tuples flow at
// the held rate. The dial storm — every connection and subscription
// arriving concurrently — is the point and runs fully live. Halfway
// through, every fourth client cancels and resubmits; like the churn
// test's membership ops, that burst happens at a quiesced boundary
// (identical queries on one stream share a merged group, and a live
// re-version drops co-members' in-flight results — see churn_test.go),
// so every ledger stays exact: stable clients account for every
// sequence, churned replacements for everything from the boundary on.
func TestScenarioClients(t *testing.T) {
	const (
		nodes   = 32
		rate    = 2000
		clients = 16
		feeds   = 2
	)
	ls, err := core.NewLiveSystem(core.Options{Nodes: nodes, Seed: 5, ExecWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(ls.System, transport.WithSystemClose(ls.Close))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ls.Close()
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	// Sources publish in-process, through the daemon's own ports.
	schemas := make([]*stream.Schema, feeds)
	ports := make([]*core.SourcePort, feeds)
	for i := range ports {
		info := ledgerInfo(fmt.Sprintf("Feed%02d", i), rate/feeds)
		if ports[i], err = ls.RegisterStream(info, 1+i%4); err != nil {
			t.Fatal(err)
		}
		schemas[i] = info.Schema
	}

	rec := NewRecorder(time.Now())
	// One dialling client; tag and track are replaced when it churns.
	type client struct {
		conn    *transport.Client
		feed    int
		churner bool
		tag     string
		track   *Track
	}
	// subscribe installs (or replaces) the client's one subscription;
	// firstDue is the feed's next sequence once the subscription is
	// settled (0 before traffic, the boundary's cursor when churning).
	subscribe := func(cl *client, firstDue int64) error {
		track := rec.NewTrack(1).Expect(firstDue)
		tag, err := cl.conn.Submit(ledgerQuery(schemas[cl.feed].Stream), cl.feed%nodes,
			func(t stream.Tuple, _ uint64) { observe(rec, track, t) }, nil, nil)
		if err != nil {
			return err
		}
		cl.tag, cl.track = tag, track
		return nil
	}

	// Dial and subscribe all clients concurrently.
	cls := make([]*client, clients)
	defer func() {
		for _, cl := range cls {
			if cl.conn != nil {
				cl.conn.Close()
			}
		}
	}()
	var wg sync.WaitGroup
	dialErrs := make([]error, clients)
	for c := range cls {
		cls[c] = &client{feed: c % feeds, churner: c%4 == 0}
		wg.Add(1)
		go func(cl *client, errp *error) {
			defer wg.Done()
			if cl.conn, *errp = transport.Dial(ln.Addr().String()); *errp == nil {
				*errp = subscribe(cl, 0)
			}
		}(cls[c], &dialErrs[c])
	}
	wg.Wait()
	for c, err := range dialErrs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	quiesce := func() {
		if err := cls[0].conn.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	quiesce()

	events := smokeEvents(400)
	pacer := NewPacer(rate)
	rec.start = pacer.Start()
	seqs := make([]int64, feeds)
	for i := 0; i < events; i++ {
		if i == events/2 {
			// Churn burst at a drained boundary: quiesce, cancel and
			// resubmit every churner, quiesce again so the replacement
			// groups' advertisements settle, then amend the schedule.
			quiesce()
			for _, cl := range cls {
				if !cl.churner {
					continue
				}
				cl.track.Close()
				if err := cl.conn.Cancel(cl.tag); err != nil {
					t.Fatalf("churn cancel: %v", err)
				}
				if err := subscribe(cl, seqs[cl.feed]); err != nil {
					t.Fatalf("churn resubmit: %v", err)
				}
			}
			quiesce()
			pacer.Shift()
		}
		intended := pacer.Tick()
		k := i % feeds
		if err := ports[k].Publish(ledgerTuple(schemas[k], seqs[k], intended, pacer)); err != nil {
			t.Fatalf("publish: %v", err)
		}
		seqs[k]++
	}

	quiesce()
	waitUntil(func() bool {
		for _, cl := range cls {
			if !cl.track.Settled(seqs[cl.feed] - 1) {
				return false
			}
		}
		return true
	})
	for _, cl := range cls {
		if final := seqs[cl.feed] - 1; final >= 0 {
			cl.track.AddTailLoss(final)
		}
	}
	checkLedger(t, rec, pacer)
	if pacer.Shifts() != 1 {
		t.Fatalf("%d schedule shifts, want exactly the halfway churn burst", pacer.Shifts())
	}
}
