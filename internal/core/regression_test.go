package core

import (
	"fmt"
	"strings"
	"testing"

	"cosmos/internal/stream"
)

// TestGroupGrowthDoesNotLeakForeignTuples is the regression test for the
// stale-subscription bug: when a singleton group (whose user subscribed
// to the unfiltered result stream) grows into a merged group, the first
// user's old, filterless subscription must not keep delivering the whole
// representative stream to it. The fix versions the result stream name
// whenever the representative changes, as it does here.
func TestGroupGrowthDoesNotLeakForeignTuples(t *testing.T) {
	sys, openPort, closedPort := newAuctionSystem(t, Options{Nodes: 16, Seed: 5})
	infos := auctionInfos()
	h := stream.Timestamp(stream.Hour)

	var got1, got2 []stream.Tuple
	// q1 first: singleton group, unfiltered result subscription.
	_, err := sys.Submit(
		"SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
		5, func(tp stream.Tuple) { got1 = append(got1, tp) })
	if err != nil {
		t.Fatal(err)
	}
	// q2 joins the group; the representative now covers 5 hours.
	_, err = sys.Submit(
		"SELECT O.itemID, C.buyerID FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
		6, func(tp stream.Tuple) { got2 = append(got2, tp) })
	if err != nil {
		t.Fatal(err)
	}
	if sys.Processors()[0].Groups() != 1 {
		t.Fatal("queries should merge")
	}
	// Item closes after 4h: inside q2's window, OUTSIDE q1's.
	openPort.Publish(openT(infos[0], 0, 1, 9, 10))
	closedPort.Publish(closedT(infos[1], 4*h, 1, 77))
	if len(got1) != 0 {
		t.Errorf("q1 leaked a 4-hour close: %v", got1)
	}
	if len(got2) != 1 {
		t.Errorf("q2 deliveries = %d", len(got2))
	}
	// Item closes within 2h: both.
	openPort.Publish(openT(infos[0], 5*h, 2, 9, 10))
	closedPort.Publish(closedT(infos[1], 7*h, 2, 88))
	if len(got1) != 1 || len(got2) != 2 {
		t.Errorf("after fast close: q1=%d q2=%d", len(got1), len(got2))
	}
}

// TestThreeMemberGroupEvolution grows a group to three members and
// removes the widest, checking that deliveries stay exact throughout.
func TestThreeMemberGroupEvolution(t *testing.T) {
	sys, openPort, _ := newAuctionSystem(t, Options{Nodes: 16, Seed: 6})
	infos := auctionInfos()

	counts := make([]int, 3)
	thresholds := []float64{500, 100, 10}
	handles := make([]*QueryHandle, 3)
	for i, th := range thresholds {
		i := i
		h, err := sys.Submit(
			fmt.Sprintf("SELECT itemID FROM OpenAuction [Now] WHERE start_price > %.0f", th),
			i+3, func(stream.Tuple) { counts[i]++ })
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	if sys.Processors()[0].Groups() != 1 {
		t.Fatalf("groups = %d", sys.Processors()[0].Groups())
	}
	// price 250: members with thresholds 100 and 10 match.
	openPort.Publish(openT(infos[0], 1, 1, 1, 250))
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts after 250: %v", counts)
	}
	// Remove the widest member (threshold 10); the representative
	// narrows to price > 100.
	if err := sys.Cancel(handles[2]); err != nil {
		t.Fatal(err)
	}
	openPort.Publish(openT(infos[0], 2, 2, 1, 50)) // matches nobody now
	if counts[0] != 0 || counts[1] != 1 {
		t.Fatalf("counts after 50: %v", counts)
	}
	openPort.Publish(openT(infos[0], 3, 3, 1, 600)) // matches both survivors
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts after 600: %v", counts)
	}
	if counts[2] != 1 {
		t.Fatalf("cancelled member kept receiving: %v", counts)
	}
}

// TestResultStreamVersioning checks the versioned naming contract.
func TestResultStreamVersioning(t *testing.T) {
	sys, _, _ := newAuctionSystem(t, Options{Nodes: 16, Seed: 7})
	h1, err := sys.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 10", 3,
		func(stream.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	v0 := h1.resultStreamName()
	if !strings.HasSuffix(v0, "-v0") {
		t.Errorf("initial version = %s", v0)
	}
	if _, err := sys.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 20", 4,
		func(stream.Tuple) {}); err != nil {
		t.Fatal(err)
	}
	v1 := h1.resultStreamName()
	if v1 == v0 || !strings.HasSuffix(v1, "-v1") {
		t.Errorf("version after growth = %s (was %s)", v1, v0)
	}
	// The old result stream is gone from the catalogue; the new one is
	// registered.
	if _, ok := sys.Catalog().Lookup(v0); ok {
		t.Error("stale result stream still in catalogue")
	}
	if _, ok := sys.Catalog().Lookup(v1); !ok {
		t.Error("current result stream missing from catalogue")
	}
}

// resultStreamName exposes the handle's current binding for tests.
func (h *QueryHandle) resultStreamName() string {
	h.px.mu.Lock()
	defer h.px.mu.Unlock()
	return h.px.stream
}

// The contained-join probe: q1 and q2 share a join group, the contained
// variant is a third user's, and each item opens in the join window
// before the newcomer arrives and closes after.
const (
	containedQ1 = "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID"
	containedQ2 = "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 4 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID"
	containedQ3 = "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID"
)

// TestContainedJoinKeepsCoMembersState: a newcomer the group's
// representative already contains changes nothing its co-members hold
// (paper §4, Theorems 1 and 2). q1 [Range 5 Hour] and q2 [Range 4 Hour]
// share a group, and ten opens enter its join window. Then a third user
// submits the contained [Range 3 Hour] variant — in the second case
// submits and cancels it — and ten matching closes follow. The join and
// the leave both keep the representative, so the plan with its window
// and the result stream stand, and q1 and q2 each get all ten results.
//
// The first join into a singleton still re-versions: q2 joining q1 moves
// the layout from [O.itemID, C.buyerID] to one that carries O.__ts for
// re-tightening, and the new plan starts with an empty window. Submitted
// between the opens and the closes, q2 still costs q1 its ten results;
// that case is "Transparency, part 2"'s.
func TestContainedJoinKeepsCoMembersState(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		t.Run(fmt.Sprintf("cancel=%v", cancel), func(t *testing.T) {
			sys, openPort, closedPort := newAuctionSystem(t, Options{Nodes: 16, Seed: 3})
			infos := auctionInfos()
			var got [2]int
			var handles [2]*QueryHandle
			for i, q := range []string{containedQ1, containedQ2} {
				h, err := sys.Submit(q, 5+i, func(stream.Tuple) { got[i]++ })
				if err != nil {
					t.Fatal(err)
				}
				handles[i] = h
			}
			for i := range 10 {
				if err := openPort.Publish(openT(infos[0], stream.Timestamp(i), int64(i), 1, 10)); err != nil {
					t.Fatal(err)
				}
			}
			before := handles[0].resultStreamName()
			h3, err := sys.Submit(containedQ3, 9, func(stream.Tuple) {})
			if err != nil {
				t.Fatal(err)
			}
			if cancel {
				if err := sys.Cancel(h3); err != nil {
					t.Fatal(err)
				}
			}
			if g := sys.Processors()[0].Groups(); g != 1 {
				t.Fatalf("%d groups, want one", g)
			}
			for i, h := range handles {
				if after := h.resultStreamName(); after != before {
					t.Errorf("q%d's result stream went from %s to %s", i+1, before, after)
				}
			}
			for i := range 10 {
				if err := closedPort.Publish(closedT(infos[1], stream.Timestamp(10+i), int64(i), 77)); err != nil {
					t.Fatal(err)
				}
			}
			if got != [2]int{10, 10} {
				t.Errorf("q1 / q2 got %d / %d results, want 10 / 10", got[0], got[1])
			}
		})
	}
}
