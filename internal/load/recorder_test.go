package load

import (
	"testing"
	"time"
)

func newTestRecorder() *Recorder { return NewRecorder(time.Now()) }

func feed(r *Recorder, t *Track, seqs ...int64) {
	for _, s := range seqs {
		r.Observe(t, s, 0, 0)
	}
}

func wantTotals(t *testing.T, r *Recorder, lost, dups int64) {
	t.Helper()
	gotLost, gotDups := r.Totals()
	if gotLost != lost || gotDups != dups {
		t.Fatalf("Totals() = (lost %d, dups %d), want (%d, %d)", gotLost, gotDups, lost, dups)
	}
}

func TestTrackInOrder(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(1).Expect(0)
	feed(r, tr, 0, 1, 2, 3, 4)
	wantTotals(t, r, 0, 0)
	if r.Delivered() != 5 {
		t.Fatalf("delivered %d, want 5", r.Delivered())
	}
	if !tr.Settled(4) || tr.Settled(5) {
		t.Fatalf("Settled(4)=%v Settled(5)=%v, want true/false", tr.Settled(4), tr.Settled(5))
	}
}

func TestTrackDuplicatesAndRegressions(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(1)
	feed(r, tr, 0, 1, 1, 2, 0)
	wantTotals(t, r, 0, 2) // the repeat and the regression both count
}

func TestTrackHole(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(1)
	feed(r, tr, 0, 1, 4) // 2 and 3 skipped
	wantTotals(t, r, 2, 0)
	feed(r, tr, 5) // the ledger resumes from the jump
	wantTotals(t, r, 2, 0)
}

// A jump that is not a stride multiple still rounds to at least one
// loss: the stream provably skipped something.
func TestTrackMisalignedJump(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(2)
	feed(r, tr, 0, 3)
	wantTotals(t, r, 1, 0)
}

func TestTrackStride(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(2).Expect(0)
	feed(r, tr, 0, 2, 4)
	wantTotals(t, r, 0, 0)
	if !tr.Settled(5) {
		t.Fatal("Settled(5) = false: next due is 6, nothing outstanding through 5")
	}
	if tr.Settled(6) {
		t.Fatal("Settled(6) = true: sequence 6 is due and missing")
	}
	feed(r, tr, 8) // skipped 6
	wantTotals(t, r, 1, 0)
}

// Expect turns a late first delivery into accounted loss; without it
// the first delivery is free.
func TestTrackExpectLateStart(t *testing.T) {
	r := newTestRecorder()
	pinned := r.NewTrack(1).Expect(0)
	free := r.NewTrack(1)
	feed(r, pinned, 3)
	feed(r, free, 3)
	wantTotals(t, r, 3, 0) // only the pinned track charges 0,1,2
}

func TestTrackTailLoss(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(1).Expect(0)
	feed(r, tr, 0, 1, 2)
	tr.AddTailLoss(9) // 3..9 never arrived
	wantTotals(t, r, 7, 0)
}

// A track that never delivered is charged from its declared first due
// sequence — and not at all without a declaration, since nothing is
// provably due.
func TestTrackTailLossUnstarted(t *testing.T) {
	r := newTestRecorder()
	declared := r.NewTrack(1).Expect(5)
	undeclared := r.NewTrack(1)
	declared.AddTailLoss(9)   // 5..9 due and missing
	undeclared.AddTailLoss(9) // no provable due sequences
	wantTotals(t, r, 5, 0)
}

func TestTrackSettledUnstarted(t *testing.T) {
	r := newTestRecorder()
	declared := r.NewTrack(1).Expect(5)
	undeclared := r.NewTrack(1)
	if !declared.Settled(4) {
		t.Fatal("Settled(4) = false: first due sequence 5 lies beyond the stream")
	}
	if declared.Settled(5) {
		t.Fatal("Settled(5) = true: sequence 5 is due and missing")
	}
	if !undeclared.Settled(1 << 40) {
		t.Fatal("undeclared unstarted track must always be settled")
	}
}

// Close exempts a deliberately cancelled subscription from tail-loss
// and settlement accounting without forgetting its in-stream ledger.
func TestTrackClose(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(1).Expect(0)
	feed(r, tr, 0, 1)
	tr.Close()
	tr.AddTailLoss(9)
	wantTotals(t, r, 0, 0)
	if !tr.Settled(9) || !tr.Closed() {
		t.Fatal("closed track must report settled and closed")
	}
}

// The dual latency channels: intended-offset latency is always
// recorded and clamped at zero; service latency only when the scenario
// stamps an actual publish offset.
func TestRecorderLatencyChannels(t *testing.T) {
	r := newTestRecorder()
	tr := r.NewTrack(1)
	r.Observe(tr, 0, 0, -1)               // no actual stamp
	r.Observe(tr, 1, int64(time.Hour), 0) // delivered "before" intended: clamps to 0
	if lat := r.LatencySnapshot(); lat.Count != 2 {
		t.Fatalf("latency count %d, want 2", lat.Count)
	}
	if svc := r.SvcSnapshot(); svc.Count != 1 {
		t.Fatalf("service latency count %d, want 1", svc.Count)
	}
}
