package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"cosmos/internal/stream"
)

// TestNewSystemRefusesWorkers: the synchronous System runs plans inline
// only; a worker pool is refused by name and points at NewLiveSystem,
// which accepts the same options.
func TestNewSystemRefusesWorkers(t *testing.T) {
	opts := Options{Nodes: 8, Seed: 1, ExecWorkers: 2}
	if sys, err := NewSystem(opts); !errors.Is(err, ErrSyncWorkers) || sys != nil {
		t.Fatalf("NewSystem(ExecWorkers: 2) = (%v, %v), want (nil, ErrSyncWorkers)", sys, err)
	}
	ls, err := NewLiveSystem(opts)
	if err != nil {
		t.Fatalf("NewLiveSystem(ExecWorkers: 2): %v", err)
	}
	ls.Close()
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

// TestSyncSystemSerialisesItself drives one synchronous System from
// several goroutines at once — publishers on two ports, a goroutine
// submitting and cancelling queries, one reading stats — with no lock of
// the caller's. A query submitted first must see every matching tuple
// exactly once and in publish order (run with -race).
func TestSyncSystemSerialisesItself(t *testing.T) {
	sys, openPort, closedPort := newAuctionSystem(t, Options{Nodes: 16, Seed: 4})
	infos := auctionInfos()
	var got []int64 // appended inside the publish cascade, under the System's lock
	if _, err := sys.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 50", 5,
		func(tp stream.Tuple) { got = append(got, tp.Values[0].AsInt()) }); err != nil {
		t.Fatal(err)
	}
	const n = 500
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := openPort.Publish(openT(infos[0], stream.Timestamp(i), int64(i), 1, float64(i%100))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := closedPort.Publish(closedT(infos[1], stream.Timestamp(i), int64(i), 2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			h, err := sys.Submit(fmt.Sprintf("SELECT buyerID FROM ClosedAuction [Now] WHERE buyerID = %d", i), 7, func(stream.Tuple) {})
			if err != nil {
				t.Error(err)
				return
			}
			if err := sys.Cancel(h); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sys.StatsSnapshot()
		}
	}()
	wg.Wait()
	var want []int64
	for i := 0; i < n; i++ {
		if i%100 > 50 {
			want = append(want, int64(i))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("standing query got %d results, want %d in publish order", len(got), len(want))
	}
}

// TestSyncCallbackHandsOffCancel: a result callback on the synchronous
// System runs under the System lock, so one that wants its query gone
// hands the Cancel to another goroutine, which runs once the publish
// returns; no result reaches the callback after that.
func TestSyncCallbackHandsOffCancel(t *testing.T) {
	sys, openPort, _ := newAuctionSystem(t, Options{Nodes: 16, Seed: 4})
	infos := auctionInfos()
	var h *QueryHandle
	cancelled := make(chan error, 1)
	calls := 0
	h, err := sys.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 50", 5, func(stream.Tuple) {
		if calls++; calls == 1 {
			go func() { cancelled <- sys.Cancel(h) }()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := openPort.Publish(openT(infos[0], 1, 1, 1, 60)); err != nil {
		t.Fatal(err)
	}
	if err := <-cancelled; err != nil {
		t.Fatalf("Cancel from the handed-off goroutine: %v", err)
	}
	if err := openPort.Publish(openT(infos[0], 2, 2, 1, 70)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || sys.Queries() != 0 {
		t.Fatalf("after the hand-off: %d callback calls, %d queries; want 1 and 0", calls, sys.Queries())
	}
}
