package core

import (
	"errors"
	"testing"

	"cosmos/internal/exec"
	"cosmos/internal/stream"
)

// TestPlanPanicDegradesOnlyThatQuery: an armed panic firing inside one
// plan must surface as a *exec.PanicError on the processor's error
// surface and stop that query's results, while every other query on the
// system — including ones sharing the processor — keeps streaming.
func TestPlanPanicDegradesOnlyThatQuery(t *testing.T) {
	var cbPlans []string
	var cbErrs []error
	opts := Options{Nodes: 8, Seed: 5, OnPlanError: func(proc int, plan string, err error) {
		cbPlans = append(cbPlans, plan)
		cbErrs = append(cbErrs, err)
	}}
	sys, openPort, closedPort := newAuctionSystem(t, opts)

	// Distinct streams keep the two queries on distinct plans — queries
	// adopted into one shared plan group are one failure domain by
	// design (the group IS a single plan).
	var victimGot, bystanderGot int
	victim, err := sys.Submit("SELECT itemID FROM OpenAuction [Now] WHERE start_price > 0", 3,
		func(stream.Tuple) { victimGot++ })
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := sys.Submit("SELECT itemID, buyerID FROM ClosedAuction [Now]", 4,
		func(stream.Tuple) { bystanderGot++ })
	if err != nil {
		t.Fatal(err)
	}

	info := auctionInfos()
	pub := func(n int) {
		for i := 0; i < n; i++ {
			if err := openPort.Publish(openT(info[0], stream.Timestamp(i*500), int64(i), 1, 100)); err != nil {
				t.Fatal(err)
			}
			if err := closedPort.Publish(closedT(info[1], stream.Timestamp(i*500+1), int64(i), 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pub(5)
	sys.Quiesce()
	if victimGot != 5 || bystanderGot != 5 {
		t.Fatalf("before fault: victim=%d bystander=%d, want 5/5", victimGot, bystanderGot)
	}

	if sys.InjectPlanPanic("no-such-query") {
		t.Error("InjectPlanPanic on unknown tag should report false")
	}
	if !sys.InjectPlanPanic(victim.Tag) {
		t.Fatal("InjectPlanPanic(victim) = false")
	}
	pub(5)
	sys.Quiesce()

	if bystanderGot != 10 {
		t.Errorf("bystander = %d results, want 10 (unaffected by the panic)", bystanderGot)
	}
	if victimGot != 5 {
		t.Errorf("victim = %d results, want 5 (dead after the panic)", victimGot)
	}
	if len(cbPlans) != 1 {
		t.Fatalf("OnPlanError calls = %d (%v), want 1", len(cbPlans), cbPlans)
	}
	var pe *exec.PanicError
	if !errors.As(cbErrs[0], &pe) {
		t.Errorf("OnPlanError err = %#v, want *exec.PanicError", cbErrs[0])
	}
	var planErrs int64
	for _, p := range sys.procs {
		planErrs += p.PlanErrors()
	}
	if planErrs != 1 {
		t.Errorf("total plan errors = %d, want 1", planErrs)
	}

	// The rest of the control plane is untouched: both queries are still
	// registered, and the survivor cancels cleanly.
	if sys.Queries() != 2 {
		t.Errorf("queries = %d, want 2 (a dead plan is degraded, not deregistered)", sys.Queries())
	}
	if err := sys.Cancel(bystander); err != nil {
		t.Errorf("cancel bystander: %v", err)
	}
	if err := sys.Cancel(victim); err != nil {
		t.Errorf("cancel victim: %v", err)
	}
}
