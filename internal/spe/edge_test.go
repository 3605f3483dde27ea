package spe

import (
	"testing"

	"cosmos/internal/stream"
)

func TestUnboundedWindowJoinNeverEvicts(t *testing.T) {
	b := bind(t, "SELECT O.itemID FROM OpenAuction O, ClosedAuction [Now] C WHERE O.itemID = C.itemID")
	p, err := Compile("q", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	day := stream.Timestamp(stream.Day)
	p.Push(openTuple(0, 1, 1, 10))
	// A year later the open is still joinable under [Unbounded].
	out, err := p.Push(closedTuple(365*day, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("unbounded join results = %v", out)
	}
}

func TestOutOfOrderAcrossStreamsWithinWindow(t *testing.T) {
	// The close arrives with a timestamp older than the newest open;
	// cross-stream interleaving within window bounds must still join.
	b := bind(t, "SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Range 1 Hour] C WHERE O.itemID = C.itemID")
	p, _ := Compile("q", b, "res")
	m := stream.Timestamp(stream.Minute)
	p.Push(openTuple(10*m, 1, 1, 10))
	p.Push(openTuple(30*m, 2, 1, 10))
	// Close at t=20m (older than the newest open at 30m).
	out, err := p.Push(closedTuple(20*m, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out-of-order close results = %v", out)
	}
	// Lemma 1 symmetric window: the close (20m) also joins an open
	// arriving later within C's window.
	out, _ = p.Push(openTuple(40*m, 1, 1, 10))
	if len(out) != 1 {
		t.Fatalf("open-after-close results = %v", out)
	}
}

func TestMultipleGroupByColumns(t *testing.T) {
	// Group by both columns of a two-attribute composite.
	b := bind(t, "SELECT sellerID, itemID, COUNT(*) FROM OpenAuction [Range 1 Hour] GROUP BY sellerID, itemID")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	p.Push(openTuple(1, 1, 10, 5))
	p.Push(openTuple(2, 1, 10, 5))
	out, _ := p.Push(openTuple(3, 1, 11, 5)) // same item, different seller
	if n := out[0].MustGet("COUNT(*)").AsInt(); n != 1 {
		t.Errorf("composite group count = %d, want 1", n)
	}
	out, _ = p.Push(openTuple(4, 1, 10, 5))
	if n := out[0].MustGet("COUNT(*)").AsInt(); n != 3 {
		t.Errorf("composite group count = %d, want 3", n)
	}
}

func TestCountSpecificColumn(t *testing.T) {
	b := bind(t, "SELECT COUNT(itemID) FROM OpenAuction [Range 1 Minute]")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	p.Push(openTuple(1, 1, 1, 1))
	out, _ := p.Push(openTuple(2, 2, 1, 1))
	if n := out[0].MustGet("COUNT(OpenAuction.itemID)").AsInt(); n != 2 {
		t.Errorf("count(col) = %d", n)
	}
}

func TestAggregateWithoutGroupBy(t *testing.T) {
	b := bind(t, "SELECT AVG(start_price) FROM OpenAuction [Range 1 Hour]")
	p, err := Compile("agg", b, "res")
	if err != nil {
		t.Fatal(err)
	}
	p.Push(openTuple(1, 1, 1, 10))
	out, _ := p.Push(openTuple(2, 2, 1, 30))
	if avg := out[0].MustGet("AVG(OpenAuction.start_price)").AsFloat(); avg != 20 {
		t.Errorf("global avg = %f", avg)
	}
}

func TestPlanIgnoresWrongStream(t *testing.T) {
	b := bind(t, "SELECT station FROM Sensor [Now]")
	p, _ := Compile("q", b, "res")
	out, err := p.Push(openTuple(1, 1, 1, 1))
	if err != nil || out != nil {
		t.Errorf("foreign stream: %v, %v", out, err)
	}
}

func TestPushProjectedInputTuples(t *testing.T) {
	// The data layer may deliver tuples already projected to the needed
	// attributes; the plan must adapt them by name.
	b := bind(t, "SELECT itemID FROM OpenAuction [Now] WHERE start_price > 5")
	p, _ := Compile("q", b, "res")
	full, _ := catalog().Schema("OpenAuction")
	projected, err := full.Project([]string{"itemID", "start_price"})
	if err != nil {
		t.Fatal(err)
	}
	tp := stream.MustTuple(projected, 1, stream.Int(7), stream.Float(10))
	out, err := p.Push(tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].MustGet("OpenAuction.itemID").AsInt() != 7 {
		t.Fatalf("projected input: %v", out)
	}
	// Under-projected input (missing a needed attribute) errors clearly.
	tooNarrow, _ := full.Project([]string{"itemID"})
	if _, err := p.Push(stream.MustTuple(tooNarrow, 2, stream.Int(8))); err == nil {
		t.Error("missing needed attribute should error")
	}
}

func TestSnapshotAcrossEngineReplace(t *testing.T) {
	// Replacing a plan (recompiling it under the same id, as the runtime
	// does on a merge or re-tighten) drops state; a snapshot taken before
	// the replace rehydrates the new plan only if the query shape matches.
	b := bind(t, "SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID")
	p1, err := Compile("g", b, "r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Push(openTuple(1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	snap := p1.Snapshot()

	fresh, err := Compile("g", b.Clone(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := fresh.Push(closedTuple(2, 1, 9)); len(out) != 0 {
		t.Fatalf("replaced plan without restore kept state: %v", out)
	}

	p2, err := Compile("g", b.Clone(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	out, err := p2.Push(closedTuple(2, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].MustGet("OpenAuction.itemID").AsInt() != 1 {
		t.Fatalf("restored plan should join the snapshotted open: %v", out)
	}

	other := bind(t, "SELECT O.itemID FROM OpenAuction [Range 1 Hour] O")
	p3, err := Compile("g", other, "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.Restore(snap); err == nil {
		t.Error("restoring into a differently-shaped plan should error")
	}
}
