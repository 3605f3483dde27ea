package core

import (
	"fmt"
	"slices"
	"testing"

	"cosmos/internal/stream"
)

// Demand is state: a cancelled query or a failed processor takes its
// demand out of the network, so no source traffic keeps flowing toward
// it. Each scenario runs on the synchronous System and on a LiveSystem.

func newDemandSystem(t *testing.T, live bool, opts Options) *System {
	t.Helper()
	if !live {
		sys, err := NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	ls, err := NewLiveSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	return ls.System
}

// publishOpens publishes n OpenAuction tuples from ts on, settles the
// network, and returns the link data bytes they moved.
func publishOpens(t *testing.T, sys *System, port *SourcePort, ts, n int) int64 {
	t.Helper()
	info := auctionInfos()[0]
	before := sys.TotalDataBytes()
	for i := ts; i < ts+n; i++ {
		if err := port.Publish(openT(info, stream.Timestamp(i), int64(i), int64(i%5), float64(i%300))); err != nil {
			t.Fatal(err)
		}
	}
	sys.Quiesce()
	return sys.TotalDataBytes() - before
}

// submitSelections submits n OpenAuction selections at user nodes 3…
func submitSelections(t *testing.T, sys *System, n int) []*QueryHandle {
	t.Helper()
	var hs []*QueryHandle
	for i := 0; i < n; i++ {
		h, err := sys.Submit(fmt.Sprintf("SELECT itemID FROM OpenAuction [Now] WHERE start_price > %d", 50*i), 3+i,
			func(stream.Tuple) {})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	sys.Quiesce()
	return hs
}

func cancelAll(t *testing.T, sys *System, hs []*QueryHandle) {
	t.Helper()
	for _, h := range hs {
		if err := sys.Cancel(h); err != nil {
			t.Fatal(err)
		}
	}
	sys.Quiesce()
}

func checkCancelWithdrawsDemand(t *testing.T, live bool) {
	sys := newDemandSystem(t, live, Options{Nodes: 16, Seed: 3})
	port, err := sys.RegisterStream(auctionInfos()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := submitSelections(t, sys, 5)
	if moved := publishOpens(t, sys, port, 0, 100); moved == 0 {
		t.Fatal("five live selections moved no link data")
	}
	cancelAll(t, sys, hs)
	if moved := publishOpens(t, sys, port, 100, 100); moved != 0 {
		t.Errorf("after every query was cancelled, 100 tuples moved %d link data bytes", moved)
	}
	// No broker wants anything. On the live transport a retired result
	// stream's demand may outlive PruneStream's sweep when an update for
	// it was still in flight; it pulls nothing, since the retired name
	// is never published again, so there only source demand counts.
	for node := 0; node < sys.net.NumNodes(); node++ {
		b := sys.net.Broker(node)
		for _, iface := range b.DemandIfaces() {
			if d := b.DemandOn(iface); d != nil && (!live || slices.Contains(d.Streams, "OpenAuction")) {
				t.Errorf("broker %d iface %d still wants %v", node, iface, d)
			}
		}
	}
}

func TestCancelWithdrawsDemand(t *testing.T)     { checkCancelWithdrawsDemand(t, false) }
func TestLiveCancelWithdrawsDemand(t *testing.T) { checkCancelWithdrawsDemand(t, true) }

func checkFailoverWithdrawsDemand(t *testing.T, live bool) {
	opts := Options{Nodes: 16, Seed: 3, ProcessorNodes: []int{12, 0}, Placement: RoundRobin}
	sys := newDemandSystem(t, live, opts)
	failed := sys.Processors()[0]
	tree := sys.Tree()
	if len(tree.Children[failed.Node]) != 0 {
		t.Fatalf("node %d is not a leaf", failed.Node)
	}
	leafLink := func() int64 {
		a, b := min(failed.Node, tree.Parent[failed.Node]), max(failed.Node, tree.Parent[failed.Node])
		for _, l := range sys.NetStats() {
			if l.A == a && l.B == b {
				return l.DataBytes
			}
		}
		t.Fatalf("no link %d-%d", a, b)
		return 0
	}
	port, err := sys.RegisterStream(auctionInfos()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := submitSelections(t, sys, 4)
	before := leafLink()
	publishOpens(t, sys, port, 0, 100)
	if leafLink() == before {
		t.Fatal("the processor at the leaf received no input")
	}
	if err := sys.FailProcessor(failed.ID); err != nil {
		t.Fatal(err)
	}
	sys.Quiesce()
	before = leafLink()
	publishOpens(t, sys, port, 100, 100)
	if moved := leafLink() - before; moved != 0 {
		t.Errorf("the failed processor's leaf link carried %d data bytes", moved)
	}
	cancelAll(t, sys, hs)
	if moved := publishOpens(t, sys, port, 200, 100); moved != 0 {
		t.Errorf("after the last cancel, 100 tuples moved %d link data bytes", moved)
	}
}

func TestFailoverWithdrawsDemand(t *testing.T)     { checkFailoverWithdrawsDemand(t, false) }
func TestLiveFailoverWithdrawsDemand(t *testing.T) { checkFailoverWithdrawsDemand(t, true) }
