package core

import (
	"slices"
	"strings"
	"testing"

	"cosmos/internal/stream"
)

// TestProcessorFailoverContinuesDelivery is the query-layer FT
// integration test: a processor with checkpointed window state fails;
// the survivor adopts its groups, restores state, re-advertises the same
// result streams, and delivery continues — including join results whose
// left side was buffered BEFORE the crash.
func TestProcessorFailoverContinuesDelivery(t *testing.T) {
	sys, err := NewSystem(Options{
		Nodes:           24,
		Seed:            9,
		Processors:      2,
		Placement:       RoundRobin,
		CheckpointEvery: 1, // checkpoint after every tuple for the test
	})
	if err != nil {
		t.Fatal(err)
	}
	infos := auctionInfos()
	openPort, err := sys.RegisterStream(infos[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	closedPort, err := sys.RegisterStream(infos[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []stream.Tuple
	h, err := sys.Submit(
		"SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
		5, func(tp stream.Tuple) { got = append(got, tp) })
	if err != nil {
		t.Fatal(err)
	}
	owner := h.Processor()

	hr := stream.Timestamp(stream.Hour)
	// Buffer two opens; the checkpoint captures them.
	openPort.Publish(openT(infos[0], 0, 1, 9, 10))
	openPort.Publish(openT(infos[0], 1, 2, 9, 10))

	// Crash the owning processor.
	if err := sys.FailProcessor(owner.ID); err != nil {
		t.Fatal(err)
	}
	if owner.Alive() {
		t.Fatal("owner should be dead")
	}
	if h.Processor() == owner {
		t.Fatal("handle not re-homed")
	}
	if h.Processor().Load() != 1 {
		t.Errorf("backup load = %d", h.Processor().Load())
	}

	// A close arriving after the crash joins the opens buffered before
	// it — state survived via the checkpoint.
	closedPort.Publish(closedT(infos[1], 1*hr, 1, 77))
	if len(got) != 1 {
		t.Fatalf("deliveries after failover = %d, want 1", len(got))
	}
	if got[0].MustGet("OpenAuction.itemID").AsInt() != 1 {
		t.Errorf("result = %v", got[0])
	}
	// New opens keep working on the backup.
	openPort.Publish(openT(infos[0], 2*hr, 3, 9, 10))
	closedPort.Publish(closedT(infos[1], 3*hr, 3, 88))
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(got))
	}
	// Cancelling the adopted query cleans up.
	if err := sys.Cancel(h); err != nil {
		t.Fatal(err)
	}
	if h.Processor().Load() != 0 || h.Processor().Groups() != 0 {
		t.Errorf("backup after cancel: load=%d groups=%d",
			h.Processor().Load(), h.Processor().Groups())
	}
}

func TestFailProcessorErrors(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 16, Seed: 3, Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FailProcessor(99); err == nil {
		t.Error("out of range should fail")
	}
	if err := sys.FailProcessor(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.FailProcessor(0); err == nil {
		t.Error("double failure should be rejected")
	}
	// Failing the last processor leaves nobody to adopt.
	if err := sys.FailProcessor(1); err == nil {
		t.Error("no survivor should be rejected")
	}
}

func TestSubmitAfterFailureUsesSurvivor(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 16, Seed: 4, Processors: 2, Placement: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterStream(auctionInfos()[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.FailProcessor(0); err != nil {
		t.Fatal(err)
	}
	h, err := sys.Submit("SELECT itemID FROM OpenAuction [Now]", 3, func(stream.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	if h.Processor().ID != 1 {
		t.Errorf("query placed on dead processor")
	}
	// Kill the survivor too: submissions must now fail cleanly.
	sys2, _ := NewSystem(Options{Nodes: 16, Seed: 4, Processors: 2})
	sys2.RegisterStream(auctionInfos()[0], 0)
	sys2.FailProcessor(0)
	sys2.procs[1].mu.Lock()
	sys2.procs[1].alive = false
	sys2.procs[1].mu.Unlock()
	if _, err := sys2.Submit("SELECT itemID FROM OpenAuction [Now]", 3, nil); err == nil {
		t.Error("submit with no alive processor should fail")
	}
}

// TestFailoverStatsPlans: after a failover, StatsSnapshot lists each
// adopted group's plan under the survivor, with its member tags and its
// unchanged result stream, and none under the failed processor;
// cancelling an adopted member removes its tag,
// and cancelling the last member removes the plan.
func TestFailoverStatsPlans(t *testing.T) {
	sys, _, _ := newAuctionSystem(t, Options{Nodes: 16, Seed: 3, Processors: 2, Placement: RoundRobin})
	var hs []*QueryHandle
	for _, text := range []string{
		"SELECT itemID FROM OpenAuction [Now] WHERE sellerID > 5",
		"SELECT itemID FROM OpenAuction [Now] WHERE sellerID > 1",
		"SELECT itemID FROM OpenAuction [Now] WHERE sellerID > 7",
		"SELECT itemID FROM ClosedAuction [Now] WHERE buyerID > 1",
		"SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
	} {
		h, err := sys.Submit(text, 5, func(stream.Tuple) {})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	failed := hs[0].Processor()
	// plans maps plan ID to its entry, for the plans hosted by proc.
	plans := func(proc int) map[string]PlanStats {
		out := map[string]PlanStats{}
		for _, ps := range sys.StatsSnapshot().Plans {
			if ps.Proc == proc {
				out[ps.Plan] = ps
			}
		}
		return out
	}
	before := plans(failed.ID)
	merged := hs[0].Tag + "," + hs[2].Tag
	var mergedPlan string
	for id, ps := range before {
		if strings.Join(ps.Queries, ",") == merged {
			mergedPlan = id
		}
	}
	if len(before) != 2 || mergedPlan == "" {
		t.Fatalf("processor %d hosts %v; want two plans, one serving %s", failed.ID, before, merged)
	}

	if err := sys.FailProcessor(failed.ID); err != nil {
		t.Fatal(err)
	}
	backup := hs[0].Processor()
	if gone := plans(failed.ID); len(gone) != 0 {
		t.Errorf("failed processor %d still lists plans %v", failed.ID, gone)
	}
	after := plans(backup.ID)
	for id, want := range before {
		got, ok := after[id]
		if !ok {
			t.Errorf("adopted plan %s missing from processor %d's stats", id, backup.ID)
			continue
		}
		if !slices.Equal(got.Queries, want.Queries) || got.ResultStream != want.ResultStream {
			t.Errorf("adopted plan %s: queries %v, result %s; want %v, %s",
				id, got.Queries, got.ResultStream, want.Queries, want.ResultStream)
		}
	}

	if err := sys.Cancel(hs[0]); err != nil {
		t.Fatal(err)
	}
	got := plans(backup.ID)[mergedPlan]
	if !slices.Equal(got.Queries, []string{hs[2].Tag}) || got.ResultStream != before[mergedPlan].ResultStream {
		t.Errorf("after cancelling %s: plan %s serves %v as %s; want [%s] as %s", hs[0].Tag, mergedPlan,
			got.Queries, got.ResultStream, hs[2].Tag, before[mergedPlan].ResultStream)
	}
	if err := sys.Cancel(hs[2]); err != nil {
		t.Fatal(err)
	}
	if ps, ok := plans(backup.ID)[mergedPlan]; ok {
		t.Errorf("plan %s still listed after its last member left: %+v", mergedPlan, ps)
	}
	if len(plans(backup.ID)) != len(after)-1 {
		t.Errorf("backup lists %d plans, want %d", len(plans(backup.ID)), len(after)-1)
	}
}

// TestAdoptedGroupShrinkKeepsSurvivorExact: an adopted group keeps its
// frozen representative as it shrinks, so its last member must keep the
// member binding, its re-tightening filter. Bound to the whole result
// stream, as the sole member of an owned group is, the narrow survivor
// here would receive every price above 10.
func TestAdoptedGroupShrinkKeepsSurvivorExact(t *testing.T) {
	sys, port, _ := newAuctionSystem(t, Options{Nodes: 16, Seed: 3, ProcessorNodes: []int{12, 0}, Placement: NearestToUser})
	got := 0
	wide, err := sys.Submit("SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > 10", 12, func(stream.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := sys.Submit("SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > 100", 12, func(stream.Tuple) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	if wide.proc != narrow.proc || wide.proc.Groups() != 1 {
		t.Fatal("the two queries should share a group")
	}
	if err := sys.FailProcessor(wide.proc.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.Cancel(wide); err != nil {
		t.Fatal(err)
	}
	info := auctionInfos()[0]
	for i, price := range []float64{50, 150} {
		if err := port.Publish(openT(info, stream.Timestamp(i), int64(i), 1, price)); err != nil {
			t.Fatal(err)
		}
	}
	if got != 1 {
		t.Errorf("the adopted survivor (price > 100) got %d of prices 50 and 150, want 1", got)
	}
}
