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

// countingClient counts the advertisements and unadvertisements a
// processor sends through it.
type countingClient struct {
	netClient
	adverts, unadverts int
}

func (c *countingClient) Advertise(s string) {
	c.adverts++
	c.netClient.Advertise(s)
}

func (c *countingClient) Unadvertise(s string) {
	c.unadverts++
	c.netClient.Unadvertise(s)
}

// ctrlMsgs sums the control messages every overlay link has carried.
func ctrlMsgs(sys *System) int64 {
	var n int64
	for _, l := range sys.NetStats() {
		n += l.CtrlMsgs
	}
	return n
}

// TestContainedSubmitCostFlat: a Submit its group's representative
// already contains costs its own change, not the group's size. Into a
// group of 2 and of 64 members, it advertises and unadvertises nothing,
// keeps the result stream, refreshes no co-member (each keeps its
// re-tightening profile, the same pointer) and only binds the newcomer;
// its control messages do not grow with the group. Nor do its
// allocations but for the brokers' share: the newcomer's demand is
// re-unioned with every other interface's at its node (Broker.
// demandExcept), four more proxies at 64 members, about 10 % of the
// Submit. Refreshing every member would cost 64 refreshes, several
// times the whole Submit.
func TestContainedSubmitCostFlat(t *testing.T) {
	const (
		runs      = 20
		standing  = "SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > 10"
		contained = "SELECT itemID, start_price FROM OpenAuction [Now] WHERE start_price > 100"
	)
	ctrl, allocs := map[int]int64{}, map[int]int{}
	for _, n := range []int{2, 64} {
		sys, _, _ := newAuctionSystem(t, Options{Nodes: 16, Seed: 3})
		submit := func(q string, node int) *QueryHandle {
			h, err := sys.Submit(q, node, func(stream.Tuple) {})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		members := make([]*QueryHandle, n)
		for i := range members {
			members[i] = submit(standing, i%16)
		}
		proc := sys.Processors()[0]
		client := &countingClient{netClient: proc.client}
		proc.client = client
		filters := make([]*profile.Profile, n)
		for i, h := range members {
			filters[i] = h.filter
		}
		resultStream := members[0].resultStreamName()
		before := ctrlMsgs(sys)
		h := submit(contained, 7)
		ctrl[n] = ctrlMsgs(sys) - before
		if client.adverts+client.unadverts != 0 {
			t.Errorf("%d members: the contained Submit sent %d advertisements and %d unadvertisements, want none", n, client.adverts, client.unadverts)
		}
		if got := h.resultStreamName(); got != resultStream {
			t.Errorf("%d members: the newcomer reads %s, the group read %s", n, got, resultStream)
		}
		for i, m := range members {
			if m.filter != filters[i] || m.resultStreamName() != resultStream {
				t.Fatalf("%d members: the contained Submit refreshed member %d", n, i)
			}
		}
		if gs := proc.groupOf(h.Tag); gs == nil || len(gs.memberTags) != n+1 {
			t.Fatalf("%d members: the newcomer did not join their group", n)
		}
		allocs[n] = mallocs(runs, func() { submit(contained, 7) }) / runs
		checkDemand(t, proc)
	}
	t.Logf("a contained Submit: %d / %d control messages and %d / %d allocations into 2 / 64 members", ctrl[2], ctrl[64], allocs[2], allocs[64])
	if ctrl[64] > ctrl[2] {
		t.Errorf("a contained Submit sends %d control messages into 64 members, %d into 2", ctrl[64], ctrl[2])
	}
	if allocs[64]*4 > allocs[2]*5 {
		t.Errorf("a contained Submit makes %d allocations into 64 members, %d into 2: more than 1.25x", allocs[64], allocs[2])
	}
}
