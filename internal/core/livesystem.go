package core

import "cosmos/internal/cbn"

// LiveSystem is a System deployed over the concurrent cbn.LiveNet: one
// goroutine per broker, each processor's delivery pump feeding its
// sharded execution runtime (Options.ExecWorkers) directly, and workers
// publishing results straight into the network through thread-safe
// per-worker clients — no world-stop on the data path. Emissions reach
// subscribers while ingest
// continues; Quiesce remains available as a stabilisation barrier for
// tests, experiment readouts and checkpoint boundaries.
//
// The synchronous System over SimNet stays byte-deterministic and is the
// differential reference: with sources publishing from one node, a
// LiveSystem delivers, per query, exactly the result sequence of the
// synchronous system (per-plan total order; no cross-plan order).
//
// Consistency is the CBN's: control-plane changes (query submission and
// cancellation, failover re-advertisement) propagate asynchronously, so
// tuples published before a new subscription settles may not reach it —
// exactly the semantics of a distributed content-based network. Call
// Quiesce after a batch of control-plane changes when a test or
// experiment needs them visible before traffic resumes.
type LiveSystem struct {
	*System
}

// NewLiveSystem builds the overlay and processors like NewSystem, but
// deploys them over a started LiveNet. Close must be called to release
// the network and runtime goroutines.
func NewLiveSystem(opts Options) (*LiveSystem, error) {
	s, err := newSystem(opts, true)
	if err != nil {
		return nil, err
	}
	return &LiveSystem{System: s}, nil
}

// Net exposes the live network (for inspection and tests).
func (ls *LiveSystem) Net() *cbn.LiveNet { return ls.live }

// Close stops every processor runtime and the network. Queued work is
// dropped; call Quiesce first for a graceful drain. Idempotent.
func (ls *LiveSystem) Close() {
	for _, p := range ls.procs {
		p.rt.Close()
	}
	ls.live.Stop()
}
