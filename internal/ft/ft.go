// Package ft implements the two fault-tolerance layers of COSMOS (paper
// §2): "The module at the query layer is responsible for recovering the
// processing of queries from failures, while the one at the data layer
// is targeted at providing highly available data transmission service."
//
// Data layer:
//
//   - RepairTree re-attaches the orphaned subtrees of a failed broker to
//     their nearest surviving ancestor and reports which subscriptions
//     must be re-issued. The links themselves need no replay buffer:
//     in-process links do not lose messages, and the TCP hop resends
//     from its session windows (internal/transport).
//
// Query layer:
//
//   - Checkpointer periodically snapshots plan state (window buffers,
//     watermark — see spe.Snapshot);
//   - Failover re-places a failed processor's queries on survivors and
//     restores the latest checkpoint.
package ft

import (
	"fmt"
	"sort"

	"cosmos/internal/overlay"
)

// RepairResult describes a tree repair.
type RepairResult struct {
	// NewParent maps each orphaned child to its replacement parent.
	NewParent map[int]int
	// Resubscribe lists the nodes whose subscriptions must be re-issued
	// toward the new parent (the orphaned subtree roots).
	Resubscribe []int
}

// RepairTree removes a failed node from a dissemination tree, attaching
// its children to the failed node's parent (their nearest surviving
// ancestor). The root cannot be repaired this way — electing a new root
// is a control-plane decision — so failing the root returns an error.
// delayFn supplies overlay delays for the new links.
func RepairTree(t *overlay.Tree, failed int, delayFn func(a, b int) float64) (*RepairResult, error) {
	if failed == t.Root {
		return nil, fmt.Errorf("ft: cannot repair failure of the tree root")
	}
	if failed < 0 || failed >= t.NumNodes() {
		return nil, fmt.Errorf("ft: node %d out of range", failed)
	}
	parent := t.Parent[failed]
	res := &RepairResult{NewParent: map[int]int{}}
	children := append([]int(nil), t.Children[failed]...)
	for _, c := range children {
		// Re-attach c under the failed node's parent.
		t.Parent[c] = parent
		t.LinkDelay[c] = delayFn(c, parent)
		t.Children[parent] = append(t.Children[parent], c)
		res.NewParent[c] = parent
		res.Resubscribe = append(res.Resubscribe, c)
	}
	// Detach the failed node.
	for i, c := range t.Children[parent] {
		if c == failed {
			t.Children[parent] = append(t.Children[parent][:i], t.Children[parent][i+1:]...)
			break
		}
	}
	t.Children[failed] = nil
	t.Parent[failed] = -1
	sort.Ints(res.Resubscribe)
	return res, nil
}
