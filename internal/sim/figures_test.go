package sim

import (
	"encoding/json"
	"os"
	"testing"

	"cosmos/internal/merge"
	"cosmos/internal/querygen"
)

// figuresFile is FIGURES.json at the repository root: Figure 4 measured
// by Sweep, beside the rate model's estimate for the same instances.
type figuresFile struct {
	Config struct {
		Nodes                 int    `json:"nodes"`
		EdgesPerNode          int    `json:"edges_per_node"`
		Mode                  string `json:"mode"`
		ReadingsPerCheckpoint int    `json:"readings_per_checkpoint"`
		Checkpoints           []int  `json:"checkpoints"`
	} `json:"config"`
	Runs []struct {
		Dist        string `json:"dist"`
		Seed        int64  `json:"seed"`
		Checkpoints []struct {
			Queries        int     `json:"queries"`
			Groups         int     `json:"groups"`
			GroupingRatio  float64 `json:"grouping_ratio"`
			BenefitRatio   float64 `json:"benefit_ratio"`
			MergedCost     float64 `json:"merged_cost"`
			UnmergedCost   float64 `json:"unmerged_cost"`
			Results        int     `json:"results"`
			SetupMergedS   float64 `json:"setup_merged_s"`
			SetupUnmergedS float64 `json:"setup_unmerged_s"`
			Estimate       struct {
				Groups        int     `json:"groups"`
				GroupingRatio float64 `json:"grouping_ratio"`
				BenefitRatio  float64 `json:"benefit_ratio"`
			} `json:"estimate"`
		} `json:"checkpoints"`
	} `json:"runs"`
}

// TestFiguresJSONSmallestCheckpoint re-derives FIGURES.json's smallest
// checkpoint of every run bit for bit, with per-query result counts
// identical with merging on and off (Measure fails otherwise), and checks
// that the file's grouping ratios are the estimate's throughout: the
// rate model and the running system group the same instance alike.
func TestFiguresJSONSmallestCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("../../FIGURES.json")
	if err != nil {
		t.Fatal(err)
	}
	var f figuresFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Config.ReadingsPerCheckpoint != ReadingsPerCheckpoint || f.Config.Mode != merge.ExactUnion.String() {
		t.Fatalf("FIGURES.json config %+v", f.Config)
	}
	dists := map[string]querygen.Distribution{}
	for _, d := range querygen.PaperDistributions() {
		dists[d.Name] = d
	}
	if len(f.Runs) != len(dists) {
		t.Fatalf("%d runs, want one per distribution", len(f.Runs))
	}
	for _, run := range f.Runs {
		for _, cp := range run.Checkpoints {
			if cp.Groups != cp.Estimate.Groups || cp.GroupingRatio != cp.Estimate.GroupingRatio {
				t.Errorf("%s at %d: %d groups measured, %d estimated", run.Dist, cp.Queries, cp.Groups, cp.Estimate.Groups)
			}
		}
		want := run.Checkpoints[0]
		got, err := Sweep(Config{
			Nodes:        f.Config.Nodes,
			EdgesPerNode: f.Config.EdgesPerNode,
			Dist:         dists[run.Dist],
			Seed:         run.Seed,
		}, []int{want.Queries})
		if err != nil {
			t.Fatalf("%s: %v", run.Dist, err)
		}
		r := got[0]
		if r.Groups != want.Groups || r.GroupingRatio != want.GroupingRatio ||
			r.BenefitRatio != want.BenefitRatio || r.MergedCost != want.MergedCost ||
			r.UnmergedCost != want.UnmergedCost || r.Results != want.Results {
			t.Errorf("%s at %d queries: measured %+v, FIGURES.json %+v", run.Dist, want.Queries, *r, want)
		}
	}
}
