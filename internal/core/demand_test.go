package core

import (
	"fmt"
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
	// No broker wants anything.
	for node := 0; node < sys.net.NumNodes(); node++ {
		b := sys.net.Broker(node)
		for _, iface := range b.DemandIfaces() {
			t.Errorf("broker %d iface %d still wants %v", node, iface, b.DemandOn(iface))
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

// TestLiveSubmitCancelRetiresStreams: a long-running LiveSystem with a
// worker pool retires every result stream it stops using. Each cycle
// submits two queries that merge, publishes, and cancels both, with no
// quiesce inside a cycle, so each group is re-versioned and dissolved
// while its advertisements, demand updates and results are still in
// flight. Once the system is quiet, no broker knows a retired result
// stream or wants anything.
func TestLiveSubmitCancelRetiresStreams(t *testing.T) {
	ls, err := NewLiveSystem(Options{Nodes: 16, Seed: 3, ExecWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	info := auctionInfos()[0]
	port, err := ls.RegisterStream(info, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls.Quiesce()
	retired := map[string]bool{}
	submit := func(text string, node int) *QueryHandle {
		h, err := ls.Submit(text, node, func(stream.Tuple) {})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// record notes the result stream h's group publishes now.
	record := func(h *QueryHandle) {
		if gs := h.proc.groupOf(h.Tag); gs != nil {
			retired[gs.resultStream] = true
		}
	}
	const cycles = 300
	for i := 0; i < cycles; i++ {
		a := submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 10", 3+i%8)
		record(a)
		b := submit("SELECT itemID, sellerID FROM OpenAuction [Now] WHERE start_price > 20", 4+i%8)
		record(b)
		for j := 0; j < 3; j++ {
			ts := stream.Timestamp(3*i + j)
			if err := port.Publish(openT(info, ts, int64(ts), 1, float64(ts%40))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ls.Cancel(a); err != nil {
			t.Fatal(err)
		}
		record(b)
		if err := ls.Cancel(b); err != nil {
			t.Fatal(err)
		}
	}
	ls.Quiesce()
	if len(retired) < 2*cycles {
		t.Fatalf("%d result streams over %d cycles, want the pairs merged and re-versioned", len(retired), cycles)
	}
	for node := 0; node < ls.net.NumNodes(); node++ {
		b := ls.net.Broker(node)
		for name := range retired {
			if b.KnowsSource(name) {
				t.Errorf("broker %d still knows retired stream %s", node, name)
			}
		}
		for _, iface := range b.DemandIfaces() {
			t.Errorf("broker %d iface %d still wants %v", node, iface, b.DemandOn(iface))
		}
	}
}
