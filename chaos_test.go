package cosmos_test

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmos"
	"cosmos/internal/core"
	"cosmos/internal/faultnet"
	"cosmos/internal/sensordata"
	"cosmos/internal/transport"
)

// chaosRecorder collects one subscription's delivery stream under
// concurrent reconnects.
type chaosRecorder struct {
	mu   sync.Mutex
	rows []string
	gaps []transport.Gap
	ends []error
}

func (r *chaosRecorder) settled(total int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rows) >= total || len(r.gaps) > 0
}

// TestChaosReconnectDifferential is the keystone of the resilience
// work: the full three-way differential workload is subscribed to
// through a fault-injecting proxy that kills the server->client
// connection every few dozen frames, mid-frame half the time. The
// resilient client must reconnect and resume its session at the next
// epoch, and the server — which held the session all along — must
// resend exactly what did not arrive: each query's delivered rows equal
// the deterministic sync system's result sequence, in order, with no
// duplicate, no loss and no gap reported.
func TestChaosReconnectDifferential(t *testing.T) {
	// KillEveryWrites 60 keeps the minimum per-connection kill budget
	// (30 writes) well above the resume overhead (one hello), so every
	// epoch makes forward progress.
	runChaosDifferential(t, faultnet.Config{
		Seed:             7,
		KillEveryWrites:  60,
		MidFrameFraction: 0.5,
	})
}

// TestChaosByteCutDifferential reruns the differential with the cut at
// an exact byte offset instead of a jittered write count: every
// connection is severed precisely CutAtBytes into the server->client
// stream, which under the v2 wire provably lands inside length-prefixed
// batch frames (the 32KiB bufio flushes are far larger than the
// distance between cut and frame start). The client must discard the
// partial frame and resume without duplicating or corrupting a row.
func TestChaosByteCutDifferential(t *testing.T) {
	// 8000 bytes per epoch clears the per-resume handshake overhead
	// (the hello's OK, 183 bytes of JSON with this workload's 12 resumed
	// tags) with room for data, so every epoch makes forward progress.
	runChaosDifferential(t, faultnet.Config{
		Seed:       11,
		CutAtBytes: 8000,
	})
}

func runChaosDifferential(t *testing.T, faults faultnet.Config) {
	if testing.Short() {
		t.Skip("chaos differential is slow; skipped in -short")
	}
	queries := diffWorkloadQueries(t)

	// Reference: the deterministic synchronous system.
	sys, err := core.NewSystem(diffOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := driveClient(t, cosmos.Embed(sys), queries)

	addr := startDiffServer(t, 2)
	proxy, err := faultnet.NewProxy(addr, faults)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Control path: registration and publishing run on a direct,
	// non-proxied session; this differential is about the subscription
	// side, which alone goes through the chaos proxy (the publish-side
	// twin is TestChaosPublish*).
	control, err := cosmos.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	sources := make([]cosmos.Source, diffStreams)
	for i := 0; i < diffStreams; i++ {
		src, err := control.RegisterStream(sensordata.Info(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = src
	}

	subcli, err := transport.DialConfig(proxy.Addr(), transport.Config{
		Resilience: &transport.Resilience{
			MinBackoff:        5 * time.Millisecond,
			MaxBackoff:        50 * time.Millisecond,
			HeartbeatInterval: 250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer subcli.Close()
	recs := make([]*chaosRecorder, len(queries))
	for i, q := range queries {
		rec := &chaosRecorder{}
		recs[i] = rec
		_, err := subcli.Submit(q, diffNode(i),
			func(tp cosmos.Tuple) {
				rec.mu.Lock()
				rec.rows = append(rec.rows, tp.String())
				rec.mu.Unlock()
			},
			func(err error) {
				rec.mu.Lock()
				rec.ends = append(rec.ends, err)
				rec.mu.Unlock()
			},
			func(g transport.Gap) {
				rec.mu.Lock()
				rec.gaps = append(rec.gaps, g)
				rec.mu.Unlock()
			})
		if err != nil {
			t.Fatalf("submit %q: %v", q, err)
		}
	}
	if err := control.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// One barrier per tuple: pipelined publishes would otherwise reach
	// the server in a few frames and the results leave it in a few writes,
	// too few for the proxy's kill budgets to land at varied positions.
	for round := 0; round < diffRounds; round++ {
		for i, src := range sources {
			if err := src.Publish(diffTuple(i, round)); err != nil {
				t.Fatal(err)
			}
			if err := control.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Everything is in the session's window now. Let the subscriber come
	// back one final time and settle every query.
	proxy.DisableFaults()
	deadline := time.Now().Add(30 * time.Second)
	for q := range queries {
		for !recs[q].settled(len(want[q])) {
			if time.Now().After(deadline) {
				recs[q].mu.Lock()
				delivered, gaps := len(recs[q].rows), recs[q].gaps
				recs[q].mu.Unlock()
				t.Fatalf("query %d never settled: %d delivered, gaps %v, want %d total",
					q, delivered, gaps, len(want[q]))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if subcli.Reconnects() == 0 {
		t.Error("no reconnects happened; the chaos proxy injected no faults")
	}
	t.Logf("chaos: %d reconnects, epoch %d, %d proxy kills",
		subcli.Reconnects(), subcli.Epoch(), proxy.Kills())

	for q := range queries {
		rec := recs[q]
		rec.mu.Lock()
		rows, gaps, ends := rec.rows, rec.gaps, rec.ends
		rec.mu.Unlock()
		if len(ends) != 0 {
			t.Fatalf("query %d: subscription ended (%v) during survivable chaos", q, ends)
		}
		if len(gaps) != 0 {
			t.Fatalf("query %d: gaps %v against a server that held the session", q, gaps)
		}
		if len(rows) != len(want[q]) {
			t.Fatalf("query %d: %d rows delivered, the reference has %d", q, len(rows), len(want[q]))
		}
		for i := range rows {
			if rows[i] != want[q][i] {
				t.Fatalf("query %d row %d differs:\ngot:  %s\nwant: %s", q, i, rows[i], want[q][i])
			}
		}
	}

	// The pair's match sets were partial, and it really shares a delivery:
	// one more tuple for both crosses the wire as one frame carrying both
	// results, which one delivery id names.
	p0, p1 := diffPairAt[0], diffPairAt[1]
	if len(want[p0]) == 0 || len(want[p1]) == 0 || len(want[p0]) == len(want[p1]) {
		t.Fatalf("pair results %d and %d: want partial overlap", len(want[p0]), len(want[p1]))
	}
	before, err := control.Stats()
	if err != nil {
		t.Fatal(err)
	}
	both := cosmos.MustTuple(sensordata.Schema(2), cosmos.Timestamp(diffRounds)*cosmos.Timestamp(30*cosmos.Second),
		cosmos.Int(2), cosmos.Float(20), cosmos.Float(30), cosmos.Float(0), cosmos.Float(0))
	if err := sources[2].Publish(both); err != nil {
		t.Fatal(err)
	}
	if err := control.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for _, q := range diffPairAt {
		for !recs[q].settled(len(want[q]) + 1) {
			if time.Now().After(deadline) {
				t.Fatalf("pair member %d never got the shared result", q)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	after, err := control.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if results, frames := after.Wire.Results-before.Wire.Results, after.Wire.Batches-before.Wire.Batches; results != 2 || frames != 1 {
		t.Fatalf("the pair's shared result took %d frames for %d results, want 1 for 2", frames, results)
	}
	if err := subcli.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPublishKills puts the *publisher* behind the fault proxy: a
// resilient session publishes a numbered sequence while the proxy kills
// its connection every few dozen server→client writes — the acks and
// control replies it is waiting for. Against the surviving server the
// subscriber's ledger must show every number exactly once, in order:
// the reconnect resends from the server's applied sequence, no more.
func TestChaosPublishKills(t *testing.T) {
	runChaosPublish(t, func(addr string) (*faultnet.Proxy, error) {
		return faultnet.NewProxy(addr, faultnet.Config{Seed: 5, KillEveryWrites: 24, MidFrameFraction: 0.5})
	})
}

// TestChaosPublishMidFrameCuts severs the publish direction itself: the
// proxy truncates a client→server write partway — inside a 'D' frame or
// a control request — and kills the connection. The server drops the
// partial frame with the session; nothing of it may be applied, and
// nothing before it twice.
func TestChaosPublishMidFrameCuts(t *testing.T) {
	runChaosPublish(t, func(addr string) (*faultnet.Proxy, error) {
		return faultnet.NewUpstreamProxy(addr, faultnet.Config{Seed: 9, KillEveryWrites: 24, MidFrameFraction: 1})
	})
}

func runChaosPublish(t *testing.T, newProxy func(addr string) (*faultnet.Proxy, error)) {
	if testing.Short() {
		t.Skip("publish chaos is slow; skipped in -short")
	}
	addr := startDiffServer(t, 2)
	proxy, err := newProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	info := &cosmos.StreamInfo{Schema: cosmos.MustSchema("Numbered",
		cosmos.Field{Name: "seq", Kind: cosmos.KindInt},
		cosmos.Field{Name: "pad", Kind: cosmos.KindString, AvgLen: 32},
	), Rate: 100}

	pub, err := transport.DialConfig(proxy.Addr(), transport.Config{
		Resilience: &transport.Resilience{
			MinBackoff:        2 * time.Millisecond,
			MaxBackoff:        20 * time.Millisecond,
			HeartbeatInterval: 250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Register(info, 1); err != nil {
		t.Fatal(err)
	}
	src, err := pub.Source("Numbered")
	if err != nil {
		t.Fatal(err)
	}

	// The subscriber sits on a direct connection: what it records is what
	// the server applied, in order.
	sub, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var mu sync.Mutex
	var got []int64
	if _, err := sub.Submit("SELECT seq FROM Numbered [Now]", 5,
		func(tp cosmos.Tuple) {
			mu.Lock()
			got = append(got, tp.Values[0].AsInt())
			mu.Unlock()
		}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := sub.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Bursts of varied size, each closed by the publish barrier, so kills
	// land on windows holding anything from one tuple to a few dozen.
	const total = 6000
	rng := rand.New(rand.NewSource(3))
	pad := strings.Repeat("x", 32)
	for next := int64(1); next <= total; {
		for burst := 1 + rng.Intn(60); burst > 0 && next <= total; burst-- {
			tp := cosmos.MustTuple(info.Schema, cosmos.Timestamp(next), cosmos.Int(next), cosmos.String(pad))
			if err := src.Publish(tp); err != nil {
				t.Fatalf("publish %d: %v", next, err)
			}
			next++
		}
		if err := pub.Quiesce(); err != nil {
			t.Fatalf("quiesce before %d: %v", next, err)
		}
	}
	proxy.DisableFaults()
	if err := pub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= total || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pub.Reconnects() == 0 {
		t.Error("no reconnects happened; the chaos proxy injected no faults")
	}
	t.Logf("publish chaos: %d reconnects, %d proxy kills", pub.Reconnects(), proxy.Kills())
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("result %d carries %d: the ledger has a loss or a duplicate (%d results for %d published)",
				i, seq, len(got), total)
		}
	}
	if len(got) != total {
		t.Fatalf("%d results for %d published tuples", len(got), total)
	}
	if err := pub.Close(); err != nil {
		t.Errorf("close after a fully acknowledged run: %v", err)
	}
}

// TestChaosPlanPanicContainment: a panic injected into one query's plan
// on a live system degrades exactly that query — the other query, on
// its own plan over a different stream, keeps streaming, and both
// subscriptions stay open and cancel cleanly afterwards.
func TestChaosPlanPanicContainment(t *testing.T) {
	opts := diffOptions()
	opts.ExecWorkers = 2
	ls, err := core.NewLiveSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	client := cosmos.EmbedLive(ls)

	srcs := make([]cosmos.Source, 2)
	for i := range srcs {
		src, err := client.RegisterStream(sensordata.Info(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	// Distinct streams keep the two queries on distinct plans — one
	// failure domain each.
	subA, err := client.Submit(context.Background(),
		"SELECT station, temperature FROM Sensor00 [Now]", 3)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := client.Submit(context.Background(),
		"SELECT station, temperature FROM Sensor01 [Now]", 4)
	if err != nil {
		t.Fatal(err)
	}
	var aGot, bGot atomic.Int64
	go func() {
		for range subA.Results() {
			aGot.Add(1)
		}
	}()
	go func() {
		for range subB.Results() {
			bGot.Add(1)
		}
	}()
	if err := client.Quiesce(); err != nil {
		t.Fatal(err)
	}

	pub := func(from, to int) {
		for r := from; r < to; r++ {
			for i, src := range srcs {
				if err := src.Publish(diffTuple(i, r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := client.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (A=%d B=%d)", what, aGot.Load(), bGot.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	pub(0, 5)
	wait("baseline results", func() bool { return aGot.Load() == 5 && bGot.Load() == 5 })

	if !ls.System.InjectPlanPanic(subA.Tag()) {
		t.Fatal("InjectPlanPanic(subA) = false")
	}
	pub(5, 10)
	wait("bystander results after the panic", func() bool { return bGot.Load() == 10 })
	if got := aGot.Load(); got != 5 {
		t.Errorf("victim delivered %d results, want 5 (dead after the panic)", got)
	}

	// Both subscriptions are still live sessions: the survivor keeps
	// its channel open until cancelled, and both cancel cleanly.
	if err := subB.Cancel(); err != nil {
		t.Errorf("cancel bystander: %v", err)
	}
	if err := subA.Cancel(); err != nil {
		t.Errorf("cancel victim: %v", err)
	}
	for _, sub := range []*cosmos.Subscription{subA, subB} {
		select {
		case _, ok := <-sub.Results():
			_ = ok
		case <-time.After(5 * time.Second):
			t.Fatal("results channel did not close after cancel")
		}
		if err := sub.Err(); err != nil {
			t.Errorf("subscription ended abnormally: %v", err)
		}
	}
}
