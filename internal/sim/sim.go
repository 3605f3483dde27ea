// Package sim runs the paper's evaluation (§5) on the system itself:
// random continuous queries over 63 sensor streams, the incremental
// greedy merging optimiser, and the CBN over a BRITE-style power-law
// topology of 1000 nodes with a minimum-spanning-tree dissemination tree.
// It reports the two metrics of Figure 4:
//
//	benefit ratio  — the fraction of (delay-weighted) communication cost
//	                 that query merging removes, per Figure 4(a);
//	grouping ratio — #groups / #queries, per Figure 4(b).
//
// Measurement. A Runner builds two synchronous core.Systems over the same
// tree, one merging and one with merging disabled, and submits the same
// querygen queries at the same user nodes to both. All 63 sensor streams
// are registered at the processor's node, as in Figure 3, so every byte
// a link carries is result delivery. At each checkpoint both systems are
// fed ReadingsPerCheckpoint readings per stream and a link is charged
// what its counters grew by: Σ DataBytes × DelayMs (bytes × ms). The
// grouping ratio is the merging processor's own statistic, and every
// query must have received the same number of results under both
// strategies.
//
// Cost. Set-up, not publishing, dominates, and a Submit costs more the
// more queries stand. With merging, a join that moves its group's
// representative re-plans the group and rebinds every member; a join
// the representative already contains, most joins on the skewed
// workloads, binds only the newcomer. On the 1000-node topology a
// Submit takes 2–3 ms below 250 queries; between 1000 and 1500 it takes
// 2–7 ms merged (the more skewed the workload, the cheaper) and 5–6 ms
// unmerged (FIGURES.json). cmd/figures' defaults are sized to that.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"cosmos/internal/cbn"
	"cosmos/internal/core"
	"cosmos/internal/merge"
	"cosmos/internal/overlay"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

// ReadingsPerCheckpoint is how many readings each sensor stream
// publishes at a checkpoint; the benefit ratio is charged over them.
const ReadingsPerCheckpoint = 100

// Config parameterises one Figure 4 instance.
type Config struct {
	// Nodes is the topology size (paper: 1000).
	Nodes int
	// EdgesPerNode is the Barabási–Albert attachment parameter.
	EdgesPerNode int
	// Dist is the workload skew (uniform / zipf…).
	Dist querygen.Distribution
	// Seed drives every random choice: the topology (Seed), the
	// processor and user nodes (Seed+1) and the queries (Seed+2).
	Seed int64
	// Mode selects representative-predicate composition.
	Mode merge.Mode
}

// withDefaults fills zero fields with the paper's settings.
func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1000
	}
	if c.EdgesPerNode == 0 {
		c.EdgesPerNode = 2
	}
	return c
}

// Result is the outcome at one checkpoint.
type Result struct {
	Queries       int
	Groups        int
	GroupingRatio float64
	// UnmergedCost and MergedCost are the checkpoint's readings' link
	// traffic, Σ DataBytes × DelayMs, without and with merging.
	UnmergedCost float64
	MergedCost   float64
	// BenefitRatio is 1 − MergedCost/UnmergedCost (Figure 4a).
	BenefitRatio float64
	// Results is the number of results the queries received at this
	// checkpoint, the same under both strategies.
	Results int
	// SetupMerged and SetupUnmerged are the wall time every Submit so
	// far took, with and without merging.
	SetupMerged, SetupUnmerged time.Duration
}

// strategy is one of the two systems a Runner drives.
type strategy struct {
	sys   *core.System
	ports []*core.SourcePort
	gens  []*sensordata.Generator
	// results counts each query's deliveries, by submission order.
	results []int
	setup   time.Duration
	// links holds the counters at the previous checkpoint.
	links []*cbn.LinkStats
}

// Runner holds the two running systems so checkpoints can be measured
// as queries stream in.
type Runner struct {
	nodes    int
	gen      *querygen.Generator
	rng      *rand.Rand
	merged   *strategy
	unmerged *strategy
}

// NewRunner builds the instance: topology, an MST rooted at the
// processor, and both systems with every sensor stream registered at the
// processor's node.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	g, err := topology.GeneratePowerLaw(cfg.Nodes, cfg.EdgesPerNode, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	processor := rng.Intn(cfg.Nodes)
	tree, err := overlay.MST(g, processor)
	if err != nil {
		return nil, err
	}
	// One draw per stream goes unused: FIGURES.json's estimates placed a
	// source there, and the user nodes must stay those of the estimated
	// instances.
	for s := 0; s < sensordata.NumStations; s++ {
		rng.Intn(cfg.Nodes)
	}
	gen, err := querygen.New(querygen.Config{Dist: cfg.Dist, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	r := &Runner{nodes: cfg.Nodes, gen: gen, rng: rng}
	if r.merged, err = newStrategy(cfg, tree, processor, false); err != nil {
		return nil, err
	}
	if r.unmerged, err = newStrategy(cfg, tree, processor, true); err != nil {
		return nil, err
	}
	return r, nil
}

func newStrategy(cfg Config, tree *overlay.Tree, processor int, disableMerging bool) (*strategy, error) {
	sys, err := core.NewSystem(core.Options{
		Tree:           tree,
		Seed:           cfg.Seed,
		ProcessorNodes: []int{processor},
		Mode:           cfg.Mode,
		DisableMerging: disableMerging,
	})
	if err != nil {
		return nil, err
	}
	st := &strategy{sys: sys}
	for s := 0; s < sensordata.NumStations; s++ {
		port, err := sys.RegisterStream(sensordata.Info(s), processor)
		if err != nil {
			return nil, err
		}
		st.ports = append(st.ports, port)
		st.gens = append(st.gens, sensordata.NewGenerator(s, cfg.Seed))
	}
	st.links = sys.NetStats()
	return st, nil
}

// submit registers one query and times it.
func (st *strategy) submit(text string, user int) error {
	i := len(st.results)
	st.results = append(st.results, 0)
	start := time.Now()
	_, err := st.sys.Submit(text, user, func(stream.Tuple) { st.results[i]++ })
	st.setup += time.Since(start)
	return err
}

// publish feeds n readings per stream, round robin, and returns the
// links' delay-weighted traffic since the previous call.
func (st *strategy) publish(n int) (float64, error) {
	for i := 0; i < n; i++ {
		for s, port := range st.ports {
			if err := port.Publish(st.gens[s].Next()); err != nil {
				return 0, err
			}
		}
	}
	links := st.sys.NetStats()
	cost := 0.0
	for i, l := range links {
		cost += float64(l.DataBytes-st.links[i].DataBytes) * l.DelayMs
	}
	st.links = links
	return cost, nil
}

// Insert submits n more queries to both systems, each at a random user
// node.
func (r *Runner) Insert(n int) error {
	for i := 0; i < n; i++ {
		text := r.gen.Next()
		user := r.rng.Intn(r.nodes)
		if err := r.merged.submit(text, user); err != nil {
			return fmt.Errorf("sim: generated query rejected: %w", err)
		}
		if err := r.unmerged.submit(text, user); err != nil {
			return fmt.Errorf("sim: generated query rejected: %w", err)
		}
	}
	return nil
}

// Measure publishes ReadingsPerCheckpoint readings per stream to both
// systems and reads the Figure 4 metrics off them. It fails when a query
// received a different number of results with merging than without.
func (r *Runner) Measure() (*Result, error) {
	before := sum(r.merged.results)
	merged, err := r.merged.publish(ReadingsPerCheckpoint)
	if err != nil {
		return nil, err
	}
	unmerged, err := r.unmerged.publish(ReadingsPerCheckpoint)
	if err != nil {
		return nil, err
	}
	for i, n := range r.merged.results {
		if n != r.unmerged.results[i] {
			return nil, fmt.Errorf("sim: query %d received %d results merged, %d unmerged",
				i, n, r.unmerged.results[i])
		}
	}
	st := r.merged.sys.Processors()[0].Stats()
	res := &Result{
		Queries:       st.Queries,
		Groups:        st.Groups,
		GroupingRatio: st.GroupingRatio(),
		UnmergedCost:  unmerged,
		MergedCost:    merged,
		Results:       sum(r.merged.results) - before,
		SetupMerged:   r.merged.setup,
		SetupUnmerged: r.unmerged.setup,
	}
	if unmerged > 0 {
		res.BenefitRatio = 1 - merged/unmerged
	}
	return res, nil
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Sweep runs the full Figure 4 protocol: insert queries up to each
// checkpoint and measure there.
func Sweep(cfg Config, checkpoints []int) ([]*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	var out []*Result
	inserted := 0
	for _, cp := range checkpoints {
		if cp < inserted {
			return nil, fmt.Errorf("sim: checkpoints must be non-decreasing")
		}
		if err := r.Insert(cp - inserted); err != nil {
			return nil, err
		}
		inserted = cp
		res, err := r.Measure()
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// PaperCheckpoints are the x-axis points of Figure 4.
func PaperCheckpoints() []int { return []int{2000, 4000, 6000, 8000, 10000} }

// AverageResults averages metric-wise across repetitions (the paper
// repeats every experiment 20 times and reports means).
func AverageResults(runs [][]*Result) []*Result {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	out := make([]*Result, n)
	for i := 0; i < n; i++ {
		acc := &Result{Queries: runs[0][i].Queries}
		for _, run := range runs {
			acc.Groups += run[i].Groups
			acc.GroupingRatio += run[i].GroupingRatio
			acc.UnmergedCost += run[i].UnmergedCost
			acc.MergedCost += run[i].MergedCost
			acc.BenefitRatio += run[i].BenefitRatio
			acc.Results += run[i].Results
			acc.SetupMerged += run[i].SetupMerged
			acc.SetupUnmerged += run[i].SetupUnmerged
		}
		k := float64(len(runs))
		acc.Groups /= len(runs)
		acc.GroupingRatio /= k
		acc.UnmergedCost /= k
		acc.MergedCost /= k
		acc.BenefitRatio /= k
		acc.Results /= len(runs)
		acc.SetupMerged /= time.Duration(len(runs))
		acc.SetupUnmerged /= time.Duration(len(runs))
		out[i] = acc
	}
	return out
}
