// Package load holds the open-loop driver and the delivery ledger that
// benchmark/ measures with: Pacer offers arrivals on a schedule fixed at
// start and records how late each tick ran; Recorder accounts for every
// delivery per subscription (loss, duplication) and measures latency
// from the intended publish offset, so a stall cannot hide as a slower
// offered rate (pacer_test.go pins this). The package's own churn and
// clients tests drive live deployments with both and assert exact
// ledgers.
package load

import (
	"time"

	"cosmos/internal/obs"
)

// Pacer is an open-loop arrival scheduler: tick i is due at
// base + i*interval, fixed when the run starts, regardless of how long
// earlier ticks took. That is the property that makes the harness safe
// against coordinated omission (the Hazelcast Jet evaluation's rule):
// a closed-loop driver that waits for the system slows its own offered
// rate when the system stalls, so the stall never appears in the
// latency distribution. Here a stalled publisher simply falls behind
// its fixed schedule — Tick returns immediately with the intended
// (scheduled) offset, the scheduling lag is recorded, and every tuple
// stamped with the intended offset carries the backlog into the
// end-to-end latency measurement instead of hiding it.
type Pacer struct {
	start    time.Time
	base     time.Time
	interval time.Duration
	n        int64
	shifts   int
	lag      obs.Histogram
}

// NewPacer starts an open-loop schedule offering ratePerSec ticks per
// second from now.
func NewPacer(ratePerSec int) *Pacer {
	if ratePerSec <= 0 {
		ratePerSec = 1
	}
	now := time.Now()
	return &Pacer{
		start:    now,
		base:     now,
		interval: time.Duration(int64(time.Second) / int64(ratePerSec)),
	}
}

// Tick blocks until the next tick's scheduled time and returns that
// tick's intended offset from the run start — the timestamp to stamp
// into the published tuple so delivery latency is measured from when
// the tuple was *supposed* to enter the system. When the caller is
// behind schedule, Tick returns immediately (the arrival stays late,
// it is never rescheduled) and records the scheduling lag; the lag
// histogram is therefore the run's own evidence of whether the offered
// rate was actually held.
func (p *Pacer) Tick() time.Duration {
	due := p.base.Add(time.Duration(p.n) * p.interval)
	p.n++
	lag := time.Since(due)
	if lag < 0 {
		time.Sleep(-lag)
		lag = 0
	}
	p.lag.Observe(int64(lag))
	return due.Sub(p.start)
}

// Shift re-anchors the schedule so the next tick is due now. It exists
// for deliberate control-plane pauses (a failover barrier in the churn
// ledger test): the pause is an announced amendment to the schedule, not a
// silent omission, so it is excluded from lag/latency accounting while
// genuine backlog remains visible. Shifts counts them.
func (p *Pacer) Shift() {
	p.base = time.Now().Add(-time.Duration(p.n) * p.interval)
	p.shifts++
}

// Shifts returns how many times the schedule was re-anchored.
func (p *Pacer) Shifts() int { return p.shifts }

// Start returns the run's epoch: intended offsets returned by Tick and
// delivery timestamps are both measured against it.
func (p *Pacer) Start() time.Time { return p.start }

// LagSnapshot returns the scheduling-lag histogram: one observation per
// tick, zero when the tick fired on time.
func (p *Pacer) LagSnapshot() obs.HistSnapshot { return p.lag.Snapshot() }
