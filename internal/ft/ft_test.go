package ft

import (
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/exec"
	"cosmos/internal/overlay"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

var testSchema = stream.MustSchema("S",
	stream.Field{Name: "v", Kind: stream.KindInt},
)

func tup(ts stream.Timestamp, v int64) stream.Tuple {
	return stream.MustTuple(testSchema, ts, stream.Int(v))
}

func TestRetransmitLostFrames(t *testing.T) {
	tx := NewRetransmitter(64)
	rx := &Receiver{}

	f1 := tx.Send(tup(1, 1))
	f2 := tx.Send(tup(2, 2))
	f3 := tx.Send(tup(3, 3))

	// Deliver 1, lose 2, deliver 3 → gap (1,2].
	if fresh, gap := rx.Accept(f1); !fresh || gap != nil {
		t.Fatalf("frame 1: fresh=%v gap=%v", fresh, gap)
	}
	fresh, gap := rx.Accept(f3)
	if !fresh || gap == nil {
		t.Fatalf("frame 3 should reveal a gap")
	}
	if gap.From != 1 || gap.To != 2 {
		t.Fatalf("gap = %+v", gap)
	}
	// NACK-driven replay recovers frame 2.
	frames, err := tx.Replay(gap.From, gap.To)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Seq != f2.Seq || frames[0].Tuple.MustGet("v").AsInt() != 2 {
		t.Fatalf("replay = %v", frames)
	}
	// Duplicates are rejected.
	if fresh, _ := rx.Accept(f3); fresh {
		t.Error("duplicate accepted")
	}
}

func TestAckEvictsAndReplayBeyondHorizonFails(t *testing.T) {
	tx := NewRetransmitter(4)
	for i := 1; i <= 10; i++ {
		tx.Send(tup(stream.Timestamp(i), int64(i)))
	}
	// Window 4 keeps frames 7..10 only.
	if tx.Pending() != 4 {
		t.Fatalf("pending = %d", tx.Pending())
	}
	if _, err := tx.Replay(2, 5); err == nil {
		t.Error("replay beyond horizon should fail")
	}
	tx.Ack(8)
	if tx.Pending() != 2 {
		t.Errorf("pending after ack = %d", tx.Pending())
	}
	frames, err := tx.Replay(8, 10)
	if err != nil || len(frames) != 2 {
		t.Fatalf("replay after ack = %v, %v", frames, err)
	}
}

func TestRepairTree(t *testing.T) {
	g, err := topology.GeneratePowerLaw(40, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := overlay.MST(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	delays := overlay.AllPairsDelays(g)
	// Pick an internal (non-root) node with children.
	failed := -1
	for v := 0; v < tree.NumNodes(); v++ {
		if v != tree.Root && len(tree.Children[v]) > 0 {
			failed = v
			break
		}
	}
	if failed < 0 {
		t.Skip("no internal node")
	}
	orphans := append([]int(nil), tree.Children[failed]...)
	parent := tree.Parent[failed]
	res, err := RepairTree(tree, failed, func(a, b int) float64 { return delays[a][b] })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Resubscribe) != len(orphans) {
		t.Fatalf("resubscribe = %v, orphans = %v", res.Resubscribe, orphans)
	}
	for _, c := range orphans {
		if tree.Parent[c] != parent {
			t.Errorf("orphan %d reattached to %d, want %d", c, tree.Parent[c], parent)
		}
	}
	// All surviving nodes still reach the root.
	for v := 0; v < tree.NumNodes(); v++ {
		if v == failed {
			continue
		}
		path := tree.PathToRoot(v)
		if path[len(path)-1] != tree.Root {
			t.Fatalf("node %d lost connectivity", v)
		}
		for _, hop := range path {
			if hop == failed {
				t.Fatalf("node %d still routes through the failed node", v)
			}
		}
	}
}

func TestRepairTreeErrors(t *testing.T) {
	g, _ := topology.GeneratePowerLaw(10, 2, 1)
	tree, _ := overlay.MST(g, 0)
	if _, err := RepairTree(tree, tree.Root, nil); err == nil {
		t.Error("root failure should be rejected")
	}
	if _, err := RepairTree(tree, 99, nil); err == nil {
		t.Error("out of range should be rejected")
	}
}

func catalog() *stream.Registry {
	r := stream.NewRegistry()
	r.Register(&stream.Info{Schema: stream.MustSchema("OpenAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "price", Kind: stream.KindFloat},
	), Rate: 10})
	r.Register(&stream.Info{Schema: stream.MustSchema("ClosedAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
	), Rate: 10})
	return r
}

func TestCheckpointFailoverResumesExactly(t *testing.T) {
	cat := catalog()
	b, err := cql.AnalyzeString(
		"SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID", cat)
	if err != nil {
		t.Fatal(err)
	}
	open, _ := cat.Schema("OpenAuction")
	closed, _ := cat.Schema("ClosedAuction")
	openT := func(ts stream.Timestamp, item int64) stream.Tuple {
		return stream.MustTuple(open, ts, stream.Int(item), stream.Float(1))
	}
	closedT := func(ts stream.Timestamp, item int64) stream.Tuple {
		return stream.MustTuple(closed, ts, stream.Int(item))
	}

	// Primary runs and checkpoints after buffering opens.
	primary := exec.New(exec.Config{})
	plan, err := primary.Install("g1", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	cp := NewCheckpointer()
	cp.Register("g1", b, "res")
	primary.Consume(openT(100, 1))
	primary.Consume(openT(200, 2))
	cp.Capture(plan)

	// Primary fails here. Survivor takes over from the checkpoint.
	var survivorOut []stream.Tuple
	survivor := exec.New(exec.Config{Emit: func(t stream.Tuple) { survivorOut = append(survivorOut, t) }})
	recovered, err := cp.Failover(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "g1" {
		t.Fatalf("recovered = %v", recovered)
	}
	// A close arriving after failover joins the opens buffered BEFORE
	// the failure — state survived.
	survivor.Consume(closedT(300, 1))
	if len(survivorOut) != 1 || survivorOut[0].MustGet("OpenAuction.itemID").AsInt() != 1 {
		t.Fatalf("survivor out = %v", survivorOut)
	}
	// Reference: a runtime without the checkpoint misses the join.
	var coldOut int
	cold := exec.New(exec.Config{Emit: func(stream.Tuple) { coldOut++ }})
	if _, err := cold.Install("g1", b, "res"); err != nil {
		t.Fatal(err)
	}
	cold.Consume(closedT(300, 1))
	if coldOut != 0 {
		t.Error("cold runtime should have no state")
	}
}

func TestCheckpointDrop(t *testing.T) {
	cp := NewCheckpointer()
	cat := catalog()
	b, _ := cql.AnalyzeString("SELECT itemID FROM OpenAuction [Now]", cat)
	cp.Register("q", b, "r")
	p, _ := exec.New(exec.Config{}).Install("q", b, "r")
	cp.Capture(p)
	if _, ok := cp.Snapshot("q"); !ok {
		t.Fatal("snapshot missing")
	}
	cp.Drop("q")
	if _, ok := cp.Snapshot("q"); ok {
		t.Error("snapshot survived drop")
	}
	recovered, err := cp.Failover(exec.New(exec.Config{}))
	if err != nil || len(recovered) != 0 {
		t.Errorf("failover after drop = %v, %v", recovered, err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cat := catalog()
	b, _ := cql.AnalyzeString("SELECT itemID FROM OpenAuction [Range 1 Hour]", cat)
	p1, err := spe.Compile("q", b, "r")
	if err != nil {
		t.Fatal(err)
	}
	open, _ := cat.Schema("OpenAuction")
	for i := 0; i < 5; i++ {
		p1.Push(stream.MustTuple(open, stream.Timestamp(i*1000), stream.Int(int64(i)), stream.Float(1)))
	}
	snap := p1.Snapshot()
	p2, _ := spe.Compile("q", b, "r")
	if err := p2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	s2 := p2.Snapshot()
	if s2.Watermark != snap.Watermark {
		t.Error("watermark differs")
	}
	if len(s2.Buffers["OpenAuction"]) != len(snap.Buffers["OpenAuction"]) {
		t.Error("buffers differ")
	}
	// Restore into an incompatible plan fails.
	other, _ := cql.AnalyzeString("SELECT itemID FROM ClosedAuction [Now]", cat)
	p3, _ := spe.Compile("other", other, "r")
	if err := p3.Restore(snap); err == nil {
		t.Error("incompatible restore should fail")
	}
}
