package core

import (
	"fmt"
	"testing"

	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// Standing query families for the control-cycle measurements: grouped
// aggregates whose windows differ, so no two merge and every one is a
// group of its own, either on the stream the cycle uses or on another.
const (
	standingSame  = "SELECT max(start_price) FROM OpenAuction [Range %d Minute]"
	standingOther = "SELECT max(buyerID) FROM ClosedAuction [Range %d Minute]"
	// cycledQuery is submitted and cancelled: a [Now] aggregate whose
	// signature none of the standing groups shares.
	cycledQuery = "SELECT count(*) FROM OpenAuction [Now] WHERE start_price > 10"
)

// controlSystem builds the auction System with n standing groups of the
// family, each submitted from its own user node.
func controlSystem(tb testing.TB, family string, n int) *System {
	tb.Helper()
	sys, err := NewSystem(Options{Nodes: 16, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	for _, info := range auctionInfos() {
		if _, err := sys.RegisterStream(info, 1); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range n {
		if _, err := sys.Submit(fmt.Sprintf(family, i+1), i%16, func(stream.Tuple) {}); err != nil {
			tb.Fatal(err)
		}
	}
	if got := sys.Processors()[0].Groups(); got != n {
		tb.Fatalf("%d standing queries formed %d groups, want %d", n, got, n)
	}
	return sys
}

// controlCycle submits the cycled query and cancels it.
func controlCycle(tb testing.TB, sys *System) {
	h, err := sys.Submit(cycledQuery, 5, func(stream.Tuple) {})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.Cancel(h); err != nil {
		tb.Fatal(err)
	}
}

// TestControlCycleCostFlat: a Submit and its Cancel cost what they
// change, not what stands. With 1 000 groups standing, one
// submit-and-cancel cycle makes at most 10 % more allocations than with
// 10, whether the standing groups read the cycled query's stream (its
// Cancel narrows the demand they share) or another one.
func TestControlCycleCostFlat(t *testing.T) {
	const cycles = 20
	for _, on := range []struct{ name, family string }{
		{"same stream", standingSame},
		{"other stream", standingOther},
	} {
		per := map[int]int{}
		for _, n := range []int{10, 1000} {
			sys := controlSystem(t, on.family, n)
			per[n] = mallocs(cycles, func() { controlCycle(t, sys) }) / cycles
			checkDemand(t, sys.Processors()[0])
		}
		t.Logf("%s: %d allocations per cycle at 10 standing groups, %d at 1000", on.name, per[10], per[1000])
		if per[1000]*10 > per[10]*11 {
			t.Errorf("%s: a cycle costs %d allocations at 1000 standing groups, %d at 10: more than 1.1x", on.name, per[1000], per[10])
		}
	}
}

// BenchmarkControlCycle times one submit-and-cancel cycle of a [Now]
// aggregate with 10, 100 and 1 000 groups standing on the cycled
// query's stream or on another.
func BenchmarkControlCycle(b *testing.B) {
	for _, on := range []struct{ name, family string }{
		{"same", standingSame},
		{"other", standingOther},
	} {
		for _, n := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("standing=%d/%s", n, on.name), func(b *testing.B) {
				sys := controlSystem(b, on.family, n)
				b.ReportAllocs()
				for b.Loop() {
					controlCycle(b, sys)
				}
			})
		}
	}
}

// checkDemand asserts the processor's demand is, on every stream, the
// union of all its live groups' inputs in plan order — what a narrowing
// computed from every group, before groups were indexed by stream, set.
func checkDemand(t *testing.T, p *Processor) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	var inputs []*profile.Profile
	streams := map[string]bool{}
	for _, g := range p.liveLocked() {
		inputs = append(inputs, g.input)
		for _, s := range g.input.Streams {
			streams[s] = true
		}
	}
	for _, s := range p.demand.Streams {
		streams[s] = true
	}
	for s := range streams {
		if want := profile.UnionOn(s, inputs); !profile.SameOn(p.demand, want, s) {
			t.Errorf("processor %d demand %s, want on %s %s", p.ID, p.demand, s, want)
		}
	}
}

// TestAdoptedGroupsStayInDemand: a group a processor adopts in failover
// reads its streams there as any group of its own does, so a Cancel on
// the survivor that narrows the demand on the same stream keeps the
// adopted group's part, and its query keeps getting results.
func TestAdoptedGroupsStayInDemand(t *testing.T) {
	sys, port, _ := newAuctionSystem(t, Options{Nodes: 16, Seed: 3, ProcessorNodes: []int{12, 0}, Placement: RoundRobin})
	got := 0
	adopted, err := sys.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 100", 3, func(stream.Tuple) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	own, err := sys.Submit("SELECT sellerID FROM OpenAuction [Now] WHERE start_price < 50", 4, func(stream.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	if adopted.proc == own.proc {
		t.Fatal("round-robin placed both queries on one processor")
	}
	if err := sys.FailProcessor(adopted.proc.ID); err != nil {
		t.Fatal(err)
	}
	survivor := own.proc
	checkDemand(t, survivor)
	if err := sys.Cancel(own); err != nil {
		t.Fatal(err)
	}
	checkDemand(t, survivor)
	info := auctionInfos()[0]
	for i := range 10 {
		if err := port.Publish(openT(info, stream.Timestamp(i), int64(i), 1, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if got != 10 {
		t.Errorf("the adopted query got %d of 10 results after the survivor's own query left", got)
	}
}
