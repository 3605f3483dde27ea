package exec

import (
	"sort"

	"cosmos/internal/obs"
)

// PlanStats is one installed plan's execution series. Plain data —
// JSON-encodable, shipped inside core.SystemStats.
type PlanStats struct {
	// Plan is the installed plan ID.
	Plan string
	// Worker is the owning worker index, or -1 in synchronous mode.
	Worker int
	// Dead marks a plan degraded by a contained panic.
	Dead bool
	// Pushes / Emits / Errors count tuples pushed into the plan, result
	// tuples it emitted, and failed pushes.
	Pushes int64
	Emits  int64
	Errors int64
	// WindowRows / WindowBytes gauge the plan's resident window state:
	// live rows over its inputs, and the bytes their rings and join
	// indexes occupy (see spe.Plan.WindowStats).
	WindowRows  int
	WindowBytes int64
	// PushLat is the sampled push latency (plan execution + emission
	// into the sink, under the plan lock). Empty when latency sampling
	// is off or no push has been sampled yet.
	PushLat obs.HistSnapshot
}

// WorkerStats is one worker shard's series.
type WorkerStats struct {
	Worker int
	// QueueDepth/QueueCap gauge the task queue at snapshot time.
	QueueDepth int
	QueueCap   int
	// Tuples counts tuples dispatched through this worker (a tuple
	// fanned out to plans on k workers counts once per worker).
	Tuples int64
}

// StatsSnapshot reports per-plan and per-worker series, plans sorted by
// ID. It takes each plan's lock briefly (never the queues), so it is
// safe to call while the runtime executes.
func (r *Runtime) StatsSnapshot() ([]PlanStats, []WorkerStats) {
	r.mu.RLock()
	slots := make([]*planSlot, 0, len(r.slots))
	for _, s := range r.slots {
		slots = append(slots, s)
	}
	r.mu.RUnlock()
	sort.Slice(slots, func(i, j int) bool { return slots[i].id < slots[j].id })

	plans := make([]PlanStats, 0, len(slots))
	for _, s := range slots {
		s.mu.Lock()
		ps := PlanStats{
			Plan:   s.id,
			Worker: -1,
			Dead:   s.dead,
			Pushes: s.pushes,
			Emits:  s.emits,
			Errors: s.errs,
		}
		if s.plan != nil { // nil once a concurrent Remove got there first
			ps.WindowRows, ps.WindowBytes = s.plan.WindowStats()
		}
		ps.PushLat = s.lat.Snapshot()
		s.mu.Unlock()
		if s.w != nil {
			ps.Worker = s.w.idx
		}
		plans = append(plans, ps)
	}

	workers := make([]WorkerStats, len(r.workers))
	for i, w := range r.workers {
		workers[i] = WorkerStats{
			Worker:     w.idx,
			QueueDepth: len(w.ch),
			QueueCap:   cap(w.ch),
			Tuples:     w.tuples.Load(),
		}
	}
	return plans, workers
}
