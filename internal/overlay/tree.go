package overlay

import (
	"container/heap"
	"fmt"
	"math"

	"cosmos/internal/topology"
)

// Tree is a rooted overlay dissemination tree. Every non-root node has an
// overlay link to its parent with a known delay; overlay links need not
// be physical topology edges (they are routed paths), so delays come from
// shortest-path distances in general.
type Tree struct {
	Root     int
	Parent   []int // Parent[Root] == -1
	Children [][]int
	// LinkDelay[v] is the delay of the overlay link v—Parent[v] in ms;
	// zero for the root.
	LinkDelay []float64
}

// NumNodes returns the node count.
func (t *Tree) NumNodes() int { return len(t.Parent) }

// MST builds the minimum spanning tree of the topology (Prim, delay
// weights) rooted at root — the dissemination tree construction the
// paper's experiment uses ("a minimum spanning tree is constructed as the
// dissemination tree").
func MST(g *topology.Graph, root int) (*Tree, error) {
	n := g.NumNodes()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("overlay: root %d out of range", root)
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	parent := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		parent[i] = -1
	}
	best[root] = 0
	pq := &nodeHeap{{node: root, key: 0}}
	reached := 0
	for pq.Len() > 0 {
		item := heap.Pop(pq).(heapItem)
		v := item.node
		if inTree[v] {
			continue
		}
		inTree[v] = true
		reached++
		for _, e := range g.Adj[v] {
			if !inTree[e.To] && e.Delay < best[e.To] {
				best[e.To] = e.Delay
				parent[e.To] = v
				heap.Push(pq, heapItem{node: e.To, key: e.Delay})
			}
		}
	}
	if reached != n {
		return nil, fmt.Errorf("overlay: topology is disconnected (%d of %d reached)", reached, n)
	}
	return fromParents(root, parent, func(v, p int) float64 {
		d, _ := g.DelayBetween(v, p)
		return d
	})
}

// SPT builds the shortest-path tree from root (delay metric): the
// structure unicast-based systems implicitly use, kept for ablations.
func SPT(g *topology.Graph, root int) (*Tree, error) {
	n := g.NumNodes()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("overlay: root %d out of range", root)
	}
	dist, prev := Dijkstra(g, root)
	for v := 0; v < n; v++ {
		if v != root && math.IsInf(dist[v], 1) {
			return nil, fmt.Errorf("overlay: node %d unreachable from root", v)
		}
	}
	return fromParents(root, prev, func(v, p int) float64 {
		d, ok := g.DelayBetween(v, p)
		if !ok {
			return dist[v] - dist[p]
		}
		return d
	})
}

// Star builds the degenerate one-level tree where every node attaches
// directly to the root over its shortest path — a worst case for root
// load, useful as a reorganisation starting point in tests.
func Star(g *topology.Graph, root int) (*Tree, error) {
	n := g.NumNodes()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("overlay: root %d out of range", root)
	}
	dist, _ := Dijkstra(g, root)
	parent := make([]int, n)
	for v := 0; v < n; v++ {
		parent[v] = root
	}
	parent[root] = -1
	return fromParents(root, parent, func(v, p int) float64 { return dist[v] })
}

// fromParents assembles a Tree from a parent vector, validating shape.
func fromParents(root int, parent []int, delayOf func(v, p int) float64) (*Tree, error) {
	n := len(parent)
	t := &Tree{
		Root:      root,
		Parent:    make([]int, n),
		Children:  make([][]int, n),
		LinkDelay: make([]float64, n),
	}
	copy(t.Parent, parent)
	t.Parent[root] = -1
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		p := t.Parent[v]
		if p < 0 || p >= n {
			return nil, fmt.Errorf("overlay: node %d has invalid parent %d", v, p)
		}
		t.Children[p] = append(t.Children[p], v)
		t.LinkDelay[v] = delayOf(v, p)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate checks that the structure is a tree spanning all nodes.
func (t *Tree) Validate() error {
	n := t.NumNodes()
	seen := make([]bool, n)
	count := 0
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			return fmt.Errorf("overlay: cycle at node %d", v)
		}
		seen[v] = true
		count++
		stack = append(stack, t.Children[v]...)
	}
	if count != n {
		return fmt.Errorf("overlay: tree spans %d of %d nodes", count, n)
	}
	return nil
}

// PathToRoot returns the node sequence v, parent(v), …, root.
func (t *Tree) PathToRoot(v int) []int {
	var path []int
	for v != -1 {
		path = append(path, v)
		v = t.Parent[v]
	}
	return path
}

// Depth returns the hop count from v to the root.
func (t *Tree) Depth(v int) int { return len(t.PathToRoot(v)) - 1 }

// RootDelay returns the summed overlay delay from v up to the root.
func (t *Tree) RootDelay(v int) float64 {
	total := 0.0
	for v != t.Root {
		total += t.LinkDelay[v]
		v = t.Parent[v]
	}
	return total
}

// IsDescendant reports whether node d lies in the subtree rooted at a.
func (t *Tree) IsDescendant(a, d int) bool {
	for d != -1 {
		if d == a {
			return true
		}
		d = t.Parent[d]
	}
	return false
}

// SubtreeNodes lists the nodes of the subtree rooted at v (including v).
func (t *Tree) SubtreeNodes(v int) []int {
	var out []int
	stack := []int{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		stack = append(stack, t.Children[u]...)
	}
	return out
}

// Degree returns the overlay degree of v in the tree (children + parent).
func (t *Tree) Degree(v int) int {
	d := len(t.Children[v])
	if v != t.Root {
		d++
	}
	return d
}

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		Root:      t.Root,
		Parent:    append([]int(nil), t.Parent...),
		LinkDelay: append([]float64(nil), t.LinkDelay...),
		Children:  make([][]int, len(t.Children)),
	}
	for i, c := range t.Children {
		out.Children[i] = append([]int(nil), c...)
	}
	return out
}

// EdgeFlows computes, for every node v ≠ root, the data rate (bps)
// flowing over the overlay link parent(v)→v when data is disseminated
// from the root to subscribers: the sum of subscriber rates in v's
// subtree. rates[u] is u's own consumption rate.
func (t *Tree) EdgeFlows(rates []float64) []float64 {
	n := t.NumNodes()
	flow := make([]float64, n)
	// Post-order accumulation without recursion.
	order := make([]int, 0, n)
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		stack = append(stack, t.Children[v]...)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		f := rates[v]
		for _, c := range t.Children[v] {
			f += flow[c]
		}
		flow[v] = f
	}
	flow[t.Root] = 0 // no uplink
	return flow
}

// CostFunc scores one overlay link carrying a flow; the reorganiser
// minimises the sum over links plus per-node load penalties. This is the
// "configurable cost function" of §3.2.
type CostFunc func(linkDelayMs, flowBps float64) float64

// DelayBpsCost is the default cost: delay-weighted traffic volume.
func DelayBpsCost(linkDelayMs, flowBps float64) float64 {
	return linkDelayMs * flowBps
}

// TotalCost evaluates the tree under a cost function and subscriber
// rates, adding a quadratic penalty for node degrees above maxDegree
// (server workload term; 0 disables).
func (t *Tree) TotalCost(cost CostFunc, rates []float64, maxDegree int, penalty float64) float64 {
	flows := t.EdgeFlows(rates)
	total := 0.0
	for v := 0; v < t.NumNodes(); v++ {
		if v != t.Root {
			total += cost(t.LinkDelay[v], flows[v])
		}
		if maxDegree > 0 {
			if over := t.Degree(v) - maxDegree; over > 0 {
				total += penalty * float64(over*over)
			}
		}
	}
	return total
}
