// Transport result-path benchmarks: the v1(gob) vs v2(binary) A/B on
// one Dial connection, and the sustained-load run — now driven by the
// internal/load harness — that records its trajectory point to
// BENCH_transport.json (scripts/bench_transport.sh).
//
// Both drive the cosmosd assembly — LiveSystem behind transport.Server —
// with publishes entering through the embedded client, so the timed
// path is publish → eval → wire → client callback and the wire codec
// dominates the per-result cost (eval is shared across the fan-out).
package cosmos_test

import (
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cosmos"
	"cosmos/internal/core"
	"cosmos/internal/load"
	"cosmos/internal/sensordata"
	"cosmos/internal/transport"
)

// benchFanout is how many subscriptions share the one benched
// connection; each published tuple yields this many wire results, so
// upstream (publish + eval) cost is amortised 1/benchFanout per result.
const benchFanout = 16

// benchHarness is one live server + embedded publisher + one remote
// subscriber connection with benchFanout counting subscriptions.
type benchHarness struct {
	src      cosmos.Source
	sub      *transport.Client
	received atomic.Int64
	target   atomic.Int64
	notify   chan struct{}
	cleanup  []func()
}

func (h *benchHarness) close() {
	for i := len(h.cleanup) - 1; i >= 0; i-- {
		h.cleanup[i]()
	}
}

// startBenchHarness wires the assembly.
func startBenchHarness(tb testing.TB, ingestBatch int) *benchHarness {
	tb.Helper()
	h := &benchHarness{notify: make(chan struct{}, 1)}
	opts := core.Options{Nodes: 16, Seed: 3, ExecWorkers: 2, IngestBatch: ingestBatch}
	ls, err := core.NewLiveSystem(opts)
	if err != nil {
		tb.Fatal(err)
	}
	srv := transport.NewServer(ls.System, transport.WithSystemClose(ls.Close))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			tb.Errorf("serve: %v", err)
		}
	}()
	h.cleanup = append(h.cleanup, func() { srv.Close(); <-done })

	pub := cosmos.EmbedLive(ls)
	src, err := pub.RegisterStream(sensordata.Info(0), 1)
	if err != nil {
		tb.Fatal(err)
	}
	h.src = src

	sub, err := transport.Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	h.cleanup = append(h.cleanup, func() { sub.Close() })
	h.sub = sub
	for i := 0; i < benchFanout; i++ {
		_, err := sub.Submit("SELECT station, temperature FROM Sensor00 [Now]", 3+i%8,
			func(tp cosmos.Tuple, _ uint64) {
				if n := h.received.Add(1); n >= h.target.Load() {
					select {
					case h.notify <- struct{}{}:
					default:
					}
				}
			}, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
	}
	// Settle subscription propagation before traffic starts.
	if err := pub.Quiesce(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// waitResults blocks until the harness has delivered at least n
// results; the delivery callback signals notify when the target is
// crossed, so nothing spins (this host may have a single CPU).
func (h *benchHarness) waitResults(tb testing.TB, n int64) {
	tb.Helper()
	h.target.Store(n)
	deadline := time.Now().Add(2 * time.Minute)
	for h.received.Load() < n {
		select {
		case <-h.notify:
		case <-time.After(time.Until(deadline)):
			tb.Fatalf("stalled at %d/%d results", h.received.Load(), n)
		}
	}
}

// BenchmarkDialResultPath measures the TCP result path under a fan-out
// workload; one op = one result delivered to a client callback.
func BenchmarkDialResultPath(b *testing.B) {
	h := startBenchHarness(b, 32)
	defer h.close()
	pubs := (b.N + benchFanout - 1) / benchFanout
	b.ReportAllocs()
	b.ResetTimer()
	// Publish in rounds with a blocking wait between them: deep
	// enough for batching to form, bounded so elastic buffers
	// stay small — and no spin-waiting, which on a small host
	// would drown the measurement in scheduler churn.
	const round = 256
	for published := 0; published < pubs; {
		n := round
		if pubs-published < n {
			n = pubs - published
		}
		h.target.Store(int64((published + n) * benchFanout))
		for i := 0; i < n; i++ {
			if err := h.src.Publish(diffTuple(0, published+i)); err != nil {
				b.Fatal(err)
			}
		}
		published += n
		h.waitResults(b, int64(published*benchFanout))
	}
}

// TestSustainedTransportLoad is the harness-driven successor of the
// bespoke sustained bench: internal/load's transport scenario holds the
// same offered rate (5000/s, 16 subscriptions) with an
// open-loop pacer and a per-subscription sequence ledger, so the run
// both produces the BENCH_transport.json trajectory point and asserts
// zero loss and zero duplication. With COSMOS_BENCH_OUT set the report
// is written there (scripts/bench_transport.sh points it at
// BENCH_transport.json); earlier points — including the pre-harness flat
// schema — are preserved in the file's history block.
func TestSustainedTransportLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained load is slow; skipped in -short")
	}
	rep, err := load.Run(load.Config{
		Scenario: "transport",
		Rate:     5000,
		Duration: time.Second,
		Subs:     benchFanout,
		Out:      os.Getenv("COSMOS_BENCH_OUT"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results
	t.Logf("sustained: %d results in %.2fs, %.0f ns/result, %.1f allocs/result, p50 %.0fµs p99 %.0fµs p99.99 %.0fµs",
		r.Delivered, r.ElapsedS, r.NsPerResult, r.AllocsPerResult,
		r.LatencyUs.P50, r.LatencyUs.P99, r.LatencyUs.P9999)
	if r.Lost != 0 || r.Duplicated != 0 {
		t.Fatalf("ledger: %d lost, %d duplicated (want 0/0)", r.Lost, r.Duplicated)
	}
	if r.Delivered != r.Expected {
		t.Fatalf("delivered %d of %d expected results", r.Delivered, r.Expected)
	}
}
