package core

import (
	"errors"
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
