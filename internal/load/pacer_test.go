package load

import (
	"testing"
	"time"
)

// TestPacerHoldsSchedule pins the open-loop property: tick i's intended
// offset is exactly i*interval, fixed at construction, independent of
// how long the caller took between ticks.
func TestPacerHoldsSchedule(t *testing.T) {
	p := NewPacer(100000) // 10µs interval: fast enough to run 200 ticks instantly
	for i := int64(0); i < 200; i++ {
		if got, want := p.Tick(), time.Duration(i)*p.interval; got != want {
			t.Fatalf("tick %d: intended offset %v, want %v", i, got, want)
		}
	}
	if lag := p.LagSnapshot(); lag.Count != 200 {
		t.Fatalf("lag histogram holds %d observations, want one per tick", lag.Count)
	}
}

// TestPacerCoordinatedOmissionGuard pins the harness's central
// measurement claim: a stalled driver can only make the numbers worse,
// never better. After a stall the schedule is NOT re-planned — the next
// tick still carries its original intended offset — so the stall
// surfaces as recorded scheduling lag and, through the intended-offset
// latency stamp, as inflated delivery latency.
func TestPacerCoordinatedOmissionGuard(t *testing.T) {
	const stall = 80 * time.Millisecond
	p := NewPacer(2000) // 500µs interval
	rec := NewRecorder(p.Start())
	track := rec.NewTrack(1)

	for i := 0; i < 5; i++ {
		p.Tick()
	}
	time.Sleep(stall) // the consumer wedges; the schedule does not care

	intended := p.Tick()
	if want := time.Duration(5) * p.interval; intended != want {
		t.Fatalf("post-stall tick rescheduled: intended offset %v, want %v", intended, want)
	}
	// The stall is on the record: scheduling lag for the late tick is
	// roughly the stall length (generous lower bound for slow machines).
	if lag := p.LagSnapshot(); time.Duration(lag.Max) < stall/2 {
		t.Fatalf("scheduling lag max %v does not surface the %v stall", time.Duration(lag.Max), stall)
	}
	// A tuple published now but stamped with its intended offset carries
	// the backlog into end-to-end latency.
	rec.Observe(track, 0, int64(intended), -1)
	if lat := rec.LatencySnapshot(); time.Duration(lat.Max) < stall/2 {
		t.Fatalf("delivery latency max %v does not surface the %v stall", time.Duration(lat.Max), stall)
	}
	if svc := rec.SvcSnapshot(); svc.Count != 0 {
		t.Fatalf("service latency recorded %d observations despite actNanos < 0", svc.Count)
	}
}

// TestPacerShift pins the announced-pause escape hatch: Shift re-anchors
// the schedule so a deliberate control-plane pause is excluded from lag
// accounting (it is reported as a shift instead), while the intended
// offsets keep advancing past the pause on the run's time axis.
func TestPacerShift(t *testing.T) {
	const pause = 200 * time.Millisecond
	p := NewPacer(1000)
	p.Tick()
	time.Sleep(pause)
	p.Shift()

	intended := p.Tick()
	if p.Shifts() != 1 {
		t.Fatalf("Shifts() = %d, want 1", p.Shifts())
	}
	// The re-anchored tick is due immediately: its lag must be far below
	// the pause it would otherwise have absorbed.
	if lag := p.LagSnapshot(); time.Duration(lag.Max) > pause/2 {
		t.Fatalf("lag max %v: Shift failed to exclude the %v pause", time.Duration(lag.Max), pause)
	}
	// The pause stays visible on the intended-offset axis: the schedule
	// jumped forward, it was not silently compressed.
	if intended < pause*3/4 {
		t.Fatalf("post-shift intended offset %v hides the %v pause", intended, pause)
	}
}
