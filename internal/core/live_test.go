package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cosmos/internal/exec"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
)

// resultLog collects per-query result sequences keyed by result stream
// (= the query tag); live deliveries arrive on proxy pump goroutines.
type resultLog struct {
	mu sync.Mutex
	m  map[string][]string
}

func newResultLog() *resultLog { return &resultLog{m: map[string][]string{}} }

func (r *resultLog) add(t stream.Tuple) {
	r.mu.Lock()
	r.m[t.Schema.Stream] = append(r.m[t.Schema.Stream], t.String())
	r.mu.Unlock()
}

func (r *resultLog) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, seq := range r.m {
		n += len(seq)
	}
	return n
}

func (r *resultLog) snapshot() map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]string, len(r.m))
	for tag, seq := range r.m {
		out[tag] = append([]string(nil), seq...)
	}
	return out
}

// driveTransportWorkload runs the mixed auction workload on either
// transport and returns the per-query result sequences. Both sources
// attach at one node: on the live transport, per-client injection order
// plus FIFO hops then guarantee every processor sees the interleaved
// trace in publish order — the precondition for matching the
// synchronous reference byte for byte. When failProc >= 0 the run
// crashes that processor halfway through (at a quiesced boundary, so
// the loss — everything past the last checkpoint — is identical on both
// transports).
func driveTransportWorkload(t *testing.T, opts Options, live bool, failProc int) map[string][]string {
	t.Helper()
	var sys *System
	if live {
		ls, err := NewLiveSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ls.Close)
		sys = ls.System
	} else {
		var err error
		sys, err = NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	infos := auctionInfos()
	openPort, err := sys.RegisterStream(infos[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	closedPort, err := sys.RegisterStream(infos[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	log := newResultLog()
	queries := []struct {
		text string
		node int
	}{
		{"SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > 50", 3},
		{"SELECT itemID FROM OpenAuction [Now] WHERE start_price > 20", 4},
		{"SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID", 5},
		{"SELECT sellerID, COUNT(*) FROM OpenAuction [Range 1 Hour] GROUP BY sellerID", 6},
		{"SELECT itemID, buyerID FROM ClosedAuction [Now]", 7},
	}
	for _, q := range queries {
		if _, err := sys.Submit(q.text, q.node, log.add); err != nil {
			t.Fatalf("submit %q: %v", q.text, err)
		}
	}
	// Settle the control plane — subscription propagation is
	// asynchronous on the live transport — before traffic starts.
	sys.Quiesce()

	publish := func(from, to int) {
		for i := from; i < to; i++ {
			ts := stream.Timestamp(i * 500)
			if err := openPort.Publish(openT(infos[0], ts, int64(i%40), int64(i%5), float64(i%120))); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := closedPort.Publish(closedT(infos[1], ts+1, int64(i%40), int64(i%7))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	publish(0, 60)
	switch {
	case failProc >= 0:
		sys.Quiesce()
		if err := sys.FailProcessor(failProc); err != nil {
			t.Fatal(err)
		}
		// Let the survivor's re-advertisements and re-subscriptions
		// settle before traffic resumes.
		sys.Quiesce()
	case live:
		// Steady state: results must reach the proxies while ingest
		// continues — no Quiesce on the data path.
		deadline := time.Now().Add(10 * time.Second)
		for log.total() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no results delivered while ingest was in flight")
			}
			time.Sleep(time.Millisecond)
		}
	}
	publish(60, 120)
	sys.Quiesce()
	return log.snapshot()
}

func compareSequences(t *testing.T, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d queries delivered, want %d", len(got), len(want))
	}
	for tag, ref := range want {
		g := got[tag]
		if len(g) != len(ref) {
			t.Fatalf("query %s: %d results, want %d", tag, len(g), len(ref))
		}
		for i := range g {
			if g[i] != ref[i] {
				t.Fatalf("query %s result %d differs:\nlive: %s\nsync: %s", tag, i, g[i], ref[i])
			}
		}
	}
}

// TestLiveSystemMatchesSynchronous is the keystone differential for the
// concurrent deployment: sharded processors over the goroutine-per-
// broker LiveNet, with workers publishing results straight into the
// network, must deliver per query exactly the result sequence of the
// deterministic synchronous system — at workers 1, 2 and 4, with
// checkpoints firing under live traffic, and with results flowing while
// ingest continues (no world-stop on the data path).
func TestLiveSystemMatchesSynchronous(t *testing.T) {
	base := Options{Nodes: 16, Seed: 3, CheckpointEvery: 11}
	want := driveTransportWorkload(t, base, false, -1)
	nonEmpty := 0
	for _, seq := range want {
		if len(seq) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d queries produced results; workload too weak", nonEmpty)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			opts := base
			opts.ExecWorkers = workers
			got := driveTransportWorkload(t, opts, true, -1)
			compareSequences(t, got, want)
		})
	}
}

// TestLiveSystemFailoverMatchesSynchronous runs the workload across a
// processor crash: checkpoints captured under live traffic must restore
// on the survivor to exactly the state the synchronous system restores
// to, so the post-failover result sequences stay identical per query.
func TestLiveSystemFailoverMatchesSynchronous(t *testing.T) {
	base := Options{
		Nodes: 16, Seed: 3, CheckpointEvery: 7,
		ProcessorNodes: []int{4, 9}, Placement: RoundRobin,
	}
	want := driveTransportWorkload(t, base, false, 0)
	nonEmpty := 0
	for _, seq := range want {
		if len(seq) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d queries produced results; workload too weak", nonEmpty)
	}
	opts := base
	opts.ExecWorkers = 2
	got := driveTransportWorkload(t, opts, true, 0)
	compareSequences(t, got, want)
}

// TestLiveCheckpointRestoreUnderLoad: snapshots captured by the
// consume-path checkpointer while live traffic flows (WithPlan quiesces
// one plan; ingest, other plans and the network keep running) must
// restore onto a fresh engine to exactly the captured state.
func TestLiveCheckpointRestoreUnderLoad(t *testing.T) {
	opts := Options{Nodes: 16, Seed: 3, ExecWorkers: 2, CheckpointEvery: 5}
	ls, err := NewLiveSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	infos := auctionInfos()
	openPort, err := ls.RegisterStream(infos[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	closedPort, err := ls.RegisterStream(infos[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
		"SELECT sellerID, COUNT(*) FROM OpenAuction [Range 1 Hour] GROUP BY sellerID",
	}
	for i, q := range queries {
		if _, err := ls.Submit(q, 3+i, func(stream.Tuple) {}); err != nil {
			t.Fatal(err)
		}
	}
	ls.Quiesce()
	// Checkpoints fire every 5th delivery while this loop keeps
	// injecting — capture genuinely overlaps live traffic.
	for i := 0; i < 120; i++ {
		ts := stream.Timestamp(i * 500)
		if err := openPort.Publish(openT(infos[0], ts, int64(i%40), int64(i%5), float64(i%120))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := closedPort.Publish(closedT(infos[1], ts+1, int64(i%40), int64(i%7))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ls.Quiesce()

	proc := ls.Processors()[0]
	restored := exec.New(exec.Config{})
	recovered, err := proc.cp.Failover(restored)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) == 0 {
		t.Fatal("no plans recovered from the checkpoint store")
	}
	snaps := 0
	for _, id := range recovered {
		snap, ok := proc.cp.Snapshot(id)
		if !ok {
			continue // registered but never captured — restarts cold
		}
		snaps++
		var got *spe.Snapshot
		if !restored.WithPlan(id, func(p *spe.Plan) { got = p.Snapshot() }) {
			t.Fatalf("plan %s missing on the restored engine", id)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Errorf("plan %s: restored state differs from the live-captured checkpoint", id)
		}
	}
	if snaps == 0 {
		t.Fatal("no snapshots were captured under load")
	}
}
