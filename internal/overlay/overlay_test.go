package overlay

import (
	"math"
	"math/rand"
	"testing"

	"cosmos/internal/topology"
)

func graph(t *testing.T, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.GeneratePowerLaw(n, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDijkstraSmall(t *testing.T) {
	g := graph(t, 50, 1)
	dist, prev := Dijkstra(g, 0)
	if dist[0] != 0 || prev[0] != -1 {
		t.Fatal("source distance must be 0")
	}
	for v := 1; v < g.NumNodes(); v++ {
		if math.IsInf(dist[v], 1) {
			t.Fatalf("node %d unreachable in connected graph", v)
		}
		// Triangle property along the predecessor edge.
		p := prev[v]
		d, ok := g.DelayBetween(p, v)
		if !ok {
			t.Fatalf("prev edge %d-%d missing", p, v)
		}
		if math.Abs(dist[p]+d-dist[v]) > 1e-9 {
			t.Fatalf("dist[%d] inconsistent", v)
		}
	}
}

func TestDijkstraOptimality(t *testing.T) {
	// No edge may offer a shortcut (relaxation fixpoint).
	g := graph(t, 200, 3)
	dist, _ := Dijkstra(g, 5)
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Adj[v] {
			if dist[v]+e.Delay < dist[e.To]-1e-9 {
				t.Fatalf("edge %d->%d relaxable", v, e.To)
			}
		}
	}
}

func TestMSTSpansAndIsMinimal(t *testing.T) {
	g := graph(t, 300, 2)
	tree, err := MST(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// MST weight must not exceed SPT weight (sum of link delays).
	spt, err := SPT(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	mstW, sptW := 0.0, 0.0
	for v := 0; v < g.NumNodes(); v++ {
		mstW += tree.LinkDelay[v]
		sptW += spt.LinkDelay[v]
	}
	if mstW > sptW+1e-9 {
		t.Errorf("MST weight %f exceeds SPT weight %f", mstW, sptW)
	}
}

// TestMSTCutProperty: for a random cut, the lightest crossing edge must
// be in the MST (classic MST characterisation, spot-checked).
func TestMSTCutProperty(t *testing.T) {
	g := graph(t, 60, 9)
	tree, err := MST(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	inMST := func(a, b int) bool {
		return tree.Parent[a] == b || tree.Parent[b] == a
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		// Random bipartition.
		side := make([]bool, g.NumNodes())
		for i := range side {
			side[i] = r.Intn(2) == 0
		}
		bestA, bestB, bestD := -1, -1, math.Inf(1)
		unique := true
		for a := 0; a < g.NumNodes(); a++ {
			for _, e := range g.Adj[a] {
				if a < e.To && side[a] != side[e.To] {
					switch {
					case e.Delay < bestD-1e-12:
						bestA, bestB, bestD = a, e.To, e.Delay
						unique = true
					case math.Abs(e.Delay-bestD) <= 1e-12:
						unique = false
					}
				}
			}
		}
		if bestA < 0 || !unique {
			continue
		}
		if !inMST(bestA, bestB) {
			t.Fatalf("lightest cut edge %d-%d not in MST", bestA, bestB)
		}
	}
}

func TestTreePathsAndDescendants(t *testing.T) {
	g := graph(t, 100, 5)
	tree, err := MST(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		path := tree.PathToRoot(v)
		if path[len(path)-1] != 7 {
			t.Fatalf("path from %d does not end at root", v)
		}
		if tree.Depth(v) != len(path)-1 {
			t.Fatalf("depth mismatch at %d", v)
		}
		if !tree.IsDescendant(7, v) {
			t.Fatalf("everything descends from the root")
		}
	}
	// Subtree nodes of root = all nodes.
	if len(tree.SubtreeNodes(7)) != g.NumNodes() {
		t.Error("root subtree must span the tree")
	}
}

func TestEdgeFlows(t *testing.T) {
	// Tiny handmade tree: 0 root, children 1,2; 2 has child 3.
	tree := &Tree{
		Root:      0,
		Parent:    []int{-1, 0, 0, 2},
		Children:  [][]int{{1, 2}, {}, {3}, {}},
		LinkDelay: []float64{0, 10, 5, 2},
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	rates := []float64{0, 100, 50, 25}
	flows := tree.EdgeFlows(rates)
	if flows[1] != 100 {
		t.Errorf("flow[1] = %f", flows[1])
	}
	if flows[3] != 25 {
		t.Errorf("flow[3] = %f", flows[3])
	}
	if flows[2] != 75 { // 50 own + 25 child
		t.Errorf("flow[2] = %f", flows[2])
	}
	if flows[0] != 0 {
		t.Errorf("root has no uplink, flow = %f", flows[0])
	}
	// Cost: 10*100 + 5*75 + 2*25 = 1425.
	if c := tree.TotalCost(DelayBpsCost, rates, 0, 0); c != 1425 {
		t.Errorf("cost = %f", c)
	}
}

func TestTotalCostDegreePenalty(t *testing.T) {
	tree := &Tree{
		Root:      0,
		Parent:    []int{-1, 0, 0, 0},
		Children:  [][]int{{1, 2, 3}, {}, {}, {}},
		LinkDelay: []float64{0, 1, 1, 1},
	}
	rates := []float64{0, 1, 1, 1}
	base := tree.TotalCost(DelayBpsCost, rates, 0, 0)
	// Root degree 3; with maxDegree 1 the penalty is (3-1)²·p = 4p.
	withPenalty := tree.TotalCost(DelayBpsCost, rates, 1, 10)
	if withPenalty <= base {
		t.Error("degree penalty not applied")
	}
	if math.Abs(withPenalty-base-40) > 1e-9 {
		t.Errorf("penalty = %f, want 40", withPenalty-base)
	}
}

func TestReorganizerImprovesStar(t *testing.T) {
	g := graph(t, 120, 8)
	star, err := Star(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	delays := AllPairsDelays(g)
	rates := make([]float64, g.NumNodes())
	r := rand.New(rand.NewSource(2))
	for i := range rates {
		rates[i] = 10 + 90*r.Float64()
	}
	before := star.TotalCost(DelayBpsCost, rates, 8, 1e6)
	reorg := NewReorganizer(star, ReorgOptions{
		DelayFn:       func(a, b int) float64 { return delays[a][b] },
		MaxDegree:     8,
		DegreePenalty: 1e6,
		MaxRounds:     30,
	})
	moves := reorg.Run(rates)
	if moves == 0 {
		t.Fatal("reorganizer should find moves from a star")
	}
	if err := star.Validate(); err != nil {
		t.Fatalf("tree broken after reorg: %v", err)
	}
	after := star.TotalCost(DelayBpsCost, rates, 8, 1e6)
	if after >= before {
		t.Errorf("cost did not improve: %f -> %f", before, after)
	}
	// The huge penalty must pull the root's degree down to the cap.
	if star.Degree(0) > 8 {
		t.Errorf("root degree still %d", star.Degree(0))
	}
}

func TestReorganizerFixpointOnGoodTree(t *testing.T) {
	// An MST under a pure-delay cost with no rates should be close to a
	// local optimum: few or no moves.
	g := graph(t, 100, 11)
	tree, err := MST(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	delays := AllPairsDelays(g)
	rates := make([]float64, g.NumNodes())
	for i := range rates {
		rates[i] = 1
	}
	reorg := NewReorganizer(tree, ReorgOptions{
		DelayFn: func(a, b int) float64 { return delays[a][b] },
	})
	first := reorg.Run(rates)
	// Whatever the first pass did, a second pass must find nothing.
	second := reorg.Run(rates)
	if second != 0 {
		t.Errorf("reorganizer not at fixpoint: %d then %d moves", first, second)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStarAndSPTErrors(t *testing.T) {
	g := graph(t, 20, 1)
	if _, err := MST(g, -1); err == nil {
		t.Error("bad root should fail")
	}
	if _, err := SPT(g, 99); err == nil {
		t.Error("bad root should fail")
	}
	if _, err := Star(g, 20); err == nil {
		t.Error("bad root should fail")
	}
}

func TestTreeClone(t *testing.T) {
	g := graph(t, 30, 1)
	tree, _ := MST(g, 0)
	cp := tree.Clone()
	cp.Parent[5] = 0
	if tree.Parent[5] == 0 && cp.Parent[5] == tree.Parent[5] {
		t.Skip("coincidental equality")
	}
	if &tree.Parent[0] == &cp.Parent[0] {
		t.Error("clone shares backing arrays")
	}
}
