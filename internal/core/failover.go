package core

import "fmt"

// Query-layer fault tolerance (paper §2): processors checkpoint the
// execution state of their installed representative plans; when a
// processor fails, a surviving processor adopts its groups — recompiling
// the plans, restoring the latest checkpoints, re-advertising the SAME
// result stream names (so user demand keeps working; the CBN re-routes it
// toward the new advertiser), and adding the groups' inputs to its own
// demand. The failed processor's client is closed, which withdraws its
// demand from the network.
//
// The checkpoint store is shared in-process, standing in for a
// replicated checkpoint log. An adopted group is flagged in the
// survivor's one group table and changes through setGroup like any
// other. It is frozen: it keeps serving and can shrink (members cancel),
// but no longer accepts new members — re-balancing adopted queries back
// into the optimiser is deliberate future work the paper also leaves open.

// FailProcessor simulates the crash of a processor and fails its query
// groups over to the next alive processor. It errors when no survivor
// exists or the processor is already down.
func (s *System) FailProcessor(procID int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if procID < 0 || procID >= len(s.procs) {
		return fmt.Errorf("core: processor %d out of range", procID)
	}
	failed := s.procs[procID]
	if !failed.alive {
		return fmt.Errorf("core: processor %d already failed", procID)
	}
	var backup *Processor
	for i := 1; i < len(s.procs); i++ {
		cand := s.procs[(procID+i)%len(s.procs)]
		if cand.Alive() {
			backup = cand
			break
		}
	}
	if backup == nil {
		return fmt.Errorf("core: no surviving processor to adopt queries")
	}

	// The failed processor stops consuming and emitting; its runtime is
	// torn down, dropping any queued work (crash semantics), and its
	// demand leaves the network with its client.
	failed.mu.Lock()
	failed.alive = false
	failed.mu.Unlock()
	failed.client.Close()
	failed.rt.Close()

	// Recompile + restore every checkpointed plan on the survivor.
	if _, err := failed.cp.Failover(backup.rt); err != nil {
		return fmt.Errorf("core: failover: %w", err)
	}

	// Adopt group bookkeeping, owned and adopted alike: advertise result
	// streams from the new location and pull inputs there.
	failed.mu.Lock()
	groups := failed.liveLocked()
	failed.groups = map[string]*groupState{}
	failed.byTag = map[string]*groupState{}
	failed.readers = map[string][]*groupState{}
	failed.load = 0
	failed.mu.Unlock()

	for _, gs := range groups {
		backup.mu.Lock()
		gs.adopted = true
		backup.groups[gs.plan] = gs
		backup.load += len(gs.memberTags)
		for _, tag := range gs.memberTags {
			backup.byTag[tag] = gs
		}
		backup.mu.Unlock()
		backup.cp.Register(gs.plan, gs.rep, gs.resultStream)
		// Advertising from the backup's node makes the CBN re-route
		// member demand toward it.
		backup.client.Advertise(gs.resultStream)
		backup.setInput(gs, gs.input)
		// Re-home the query handles.
		for _, tag := range gs.memberTags {
			if h, ok := s.queries[tag]; ok {
				h.proc = backup
			}
		}
	}
	return nil
}

// Alive reports whether the processor is serving.
func (p *Processor) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alive
}
