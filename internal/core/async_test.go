package core

import (
	"fmt"
	"testing"

	"cosmos/internal/stream"
)

// driveWorkload builds a system, submits a mixed query set, publishes an
// interleaved auction trace, and returns the per-query result sequences
// (rendered). Sharded systems are quiesced before reading results.
func driveWorkload(t *testing.T, opts Options) map[string][]string {
	t.Helper()
	sys, openPort, closedPort := newAuctionSystem(t, opts)
	results := map[string][]string{}
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
		var tag string // set before anything is published
		h, err := sys.Submit(q.text, q.node, func(tp stream.Tuple) {
			results[tag] = append(results[tag], tp.String())
		})
		if err != nil {
			t.Fatalf("submit %q: %v", q.text, err)
		}
		tag = h.Tag
	}
	info := auctionInfos()
	for i := 0; i < 120; i++ {
		ts := stream.Timestamp(i * 500)
		if err := openPort.Publish(openT(info[0], ts, int64(i%40), int64(i%5), float64(i%120))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := closedPort.Publish(closedT(info[1], ts+1, int64(i%40), int64(i%7))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys.Quiesce()
	return results
}

// TestShardedSystemMatchesSynchronous is the system-level differential:
// processors running the sharded execution runtime with batched ingest
// must deliver, per query, exactly the result sequence of the
// synchronous (deterministic) system.
func TestShardedSystemMatchesSynchronous(t *testing.T) {
	base := Options{Nodes: 16, Seed: 3, CheckpointEvery: 11}
	want := driveWorkload(t, base)
	nonEmpty := 0
	for _, seq := range want {
		if len(seq) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d queries produced results; workload too weak", nonEmpty)
	}
	for _, cfg := range []struct {
		workers, batch int
	}{{1, 1}, {2, 8}, {4, 32}} {
		t.Run(fmt.Sprintf("workers%d-batch%d", cfg.workers, cfg.batch), func(t *testing.T) {
			opts := base
			opts.ExecWorkers = cfg.workers
			opts.IngestBatch = cfg.batch
			got := driveWorkload(t, opts)
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
						t.Fatalf("query %s result %d differs:\nsharded: %s\nsync:    %s", tag, i, g[i], ref[i])
					}
				}
			}
		})
	}
}

// TestProcessorSurfacesPlanErrors: plan failures (schema drift between
// delivery and plan) land in the processor's error counter and the
// OnPlanError callback instead of vanishing.
func TestProcessorSurfacesPlanErrors(t *testing.T) {
	var cbProc int
	var cbPlan string
	var cbErr error
	calls := 0
	opts := Options{Nodes: 8, Seed: 5, OnPlanError: func(proc int, plan string, err error) {
		cbProc, cbPlan, cbErr = proc, plan, err
		calls++
	}}
	sys, _, _ := newAuctionSystem(t, opts)
	if _, err := sys.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 0", 3, nil); err != nil {
		t.Fatal(err)
	}
	proc := sys.procs[0]
	if proc.PlanErrors() != 0 {
		t.Fatalf("fresh processor reports %d plan errors", proc.PlanErrors())
	}
	// A tuple under the OpenAuction name that lacks the attributes the
	// plan needs: the runtime reports the plan failure.
	drifted := stream.MustSchema("OpenAuction", stream.Field{Name: "bogus", Kind: stream.KindInt})
	proc.consume(stream.MustTuple(drifted, 1, stream.Int(1)))
	if proc.PlanErrors() != 1 {
		t.Fatalf("plan errors = %d, want 1", proc.PlanErrors())
	}
	if calls != 1 || cbProc != proc.ID || cbPlan == "" || cbErr == nil {
		t.Fatalf("callback = (%d calls, proc %d, plan %q, err %v)", calls, cbProc, cbPlan, cbErr)
	}
}
