package ft

import (
	"fmt"
	"sync"

	"cosmos/internal/cql"
	"cosmos/internal/exec"
	"cosmos/internal/spe"
)

// Checkpointer retains the latest snapshot of every registered plan —
// the query-layer recovery state (paper §2). In a distributed
// deployment snapshots would be replicated to a standby; here they live
// in memory and the Failover helper replays them onto a survivor runtime.
type Checkpointer struct {
	mu    sync.Mutex
	snaps map[string]*spe.Snapshot // guarded by mu
	// queries retains each plan's bound query and result stream so a
	// survivor can recompile it. Guarded by mu.
	queries map[string]checkpointMeta
}

type checkpointMeta struct {
	bound        *cql.Bound
	resultStream string
}

// NewCheckpointer builds an empty checkpoint store.
func NewCheckpointer() *Checkpointer {
	return &Checkpointer{
		snaps:   map[string]*spe.Snapshot{},
		queries: map[string]checkpointMeta{},
	}
}

// Register associates a plan ID with its query definition.
func (c *Checkpointer) Register(id string, b *cql.Bound, resultStream string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queries[id] = checkpointMeta{bound: b, resultStream: resultStream}
}

// Capture stores the plan's current state.
func (c *Checkpointer) Capture(p *spe.Plan) {
	snap := p.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps[p.ID] = snap
}

// Snapshot returns the latest snapshot of a plan.
func (c *Checkpointer) Snapshot(id string) (*spe.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.snaps[id]
	return s, ok
}

// Drop forgets a plan's checkpoints (query removed).
func (c *Checkpointer) Drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.snaps, id)
	delete(c.queries, id)
}

// Failover recompiles every checkpointed plan onto the survivor runtime
// and restores the captured state under WithPlan (which quiesces the
// plan, so restoration cannot race concurrent pushes), returning the
// recovered plan IDs. Plans without a snapshot restart cold (empty
// windows). Tuples the survivor consumes between a plan's Install and
// its Restore are superseded by the snapshot — the recovery point is the
// checkpoint.
func (c *Checkpointer) Failover(survivor *exec.Runtime) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var recovered []string
	for id, meta := range c.queries {
		if _, err := survivor.Install(id, meta.bound, meta.resultStream); err != nil {
			return recovered, fmt.Errorf("ft: reinstalling %s: %w", id, err)
		}
		if snap, ok := c.snaps[id]; ok {
			var rerr error
			survivor.WithPlan(id, func(p *spe.Plan) { rerr = p.Restore(snap) })
			if rerr != nil {
				return recovered, fmt.Errorf("ft: restoring %s: %w", id, rerr)
			}
		}
		recovered = append(recovered, id)
	}
	return recovered, nil
}
