package sim

import (
	"testing"

	"cosmos/internal/merge"
	"cosmos/internal/querygen"
)

// smallCfg keeps unit-test runs fast; FIGURES.json's runs use 1000 nodes.
func smallCfg(dist querygen.Distribution, seed int64) Config {
	return Config{
		Nodes:        200,
		EdgesPerNode: 2,
		Dist:         dist,
		Seed:         seed,
		Mode:         merge.ExactUnion,
	}
}

func TestRunnerBasics(t *testing.T) {
	r, err := NewRunner(smallCfg(querygen.Zipf15, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(150); err != nil {
		t.Fatal(err)
	}
	res, err := r.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 150 {
		t.Fatalf("queries = %d", res.Queries)
	}
	if res.Groups <= 0 || res.Groups > 150 {
		t.Fatalf("groups = %d", res.Groups)
	}
	if res.GroupingRatio <= 0 || res.GroupingRatio > 1 {
		t.Fatalf("grouping ratio = %f", res.GroupingRatio)
	}
	if res.BenefitRatio <= 0 || res.BenefitRatio >= 1 {
		t.Fatalf("benefit ratio = %f", res.BenefitRatio)
	}
	if res.MergedCost > res.UnmergedCost {
		t.Fatalf("merged cost %f exceeds unmerged %f", res.MergedCost, res.UnmergedCost)
	}
	if res.Results == 0 {
		t.Fatal("no query received a result")
	}
	if res.SetupMerged <= 0 || res.SetupUnmerged <= 0 {
		t.Fatalf("set-up times %v / %v", res.SetupMerged, res.SetupUnmerged)
	}
}

func TestSkewIncreasesBenefit(t *testing.T) {
	// The paper's headline: zipf workloads merge better than uniform,
	// and benefit grows with the skew parameter.
	benefit := func(dist querygen.Distribution) float64 {
		total := 0.0
		for seed := int64(0); seed < 3; seed++ {
			res, err := Sweep(smallCfg(dist, seed), []int{200})
			if err != nil {
				t.Fatal(err)
			}
			total += res[0].BenefitRatio
		}
		return total / 3
	}
	u := benefit(querygen.Uniform)
	z1 := benefit(querygen.Zipf10)
	z2 := benefit(querygen.Zipf20)
	if !(u < z1 && z1 < z2) {
		t.Errorf("benefit ordering violated: uniform=%f zipf1=%f zipf2=%f", u, z1, z2)
	}
}

func TestBenefitGrowsWithQueries(t *testing.T) {
	// Figure 4(a): more queries → more sharing opportunities.
	results, err := Sweep(smallCfg(querygen.Zipf15, 4), []int{50, 150, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if !(results[0].BenefitRatio < results[2].BenefitRatio) {
		t.Errorf("benefit did not grow: %f -> %f",
			results[0].BenefitRatio, results[2].BenefitRatio)
	}
}

func TestGroupingRatioFallsWithQueriesAndSkew(t *testing.T) {
	// Figure 4(b): grouping ratio falls as queries accumulate, and skew
	// lowers it further.
	res, err := Sweep(smallCfg(querygen.Zipf15, 5), []int{50, 300})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].GroupingRatio >= res[0].GroupingRatio {
		t.Errorf("grouping ratio did not fall: %f -> %f",
			res[0].GroupingRatio, res[1].GroupingRatio)
	}
	uni, err := Sweep(smallCfg(querygen.Uniform, 5), []int{300})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].GroupingRatio >= uni[0].GroupingRatio {
		t.Errorf("skew should lower grouping ratio: zipf=%f uniform=%f",
			res[1].GroupingRatio, uni[0].GroupingRatio)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Sweep(smallCfg(querygen.Zipf10, 9), []int{150})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(smallCfg(querygen.Zipf10, 9), []int{150})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].MergedCost != b[0].MergedCost || a[0].UnmergedCost != b[0].UnmergedCost ||
		a[0].Groups != b[0].Groups || a[0].Results != b[0].Results {
		t.Error("same seed must reproduce identical results")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(smallCfg(querygen.Uniform, 1), []int{20, 10}); err == nil {
		t.Error("decreasing checkpoints must fail")
	}
}

func TestAverageResults(t *testing.T) {
	a := []*Result{{Queries: 10, Groups: 4, GroupingRatio: 0.4, BenefitRatio: 0.2, UnmergedCost: 100, MergedCost: 80}}
	b := []*Result{{Queries: 10, Groups: 6, GroupingRatio: 0.6, BenefitRatio: 0.4, UnmergedCost: 200, MergedCost: 120}}
	avg := AverageResults([][]*Result{a, b})
	approx := func(x, y float64) bool { return x-y < 1e-9 && y-x < 1e-9 }
	if avg[0].Groups != 5 || !approx(avg[0].GroupingRatio, 0.5) || !approx(avg[0].BenefitRatio, 0.3) {
		t.Errorf("avg = %+v", avg[0])
	}
	if AverageResults(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestPaperCheckpoints(t *testing.T) {
	cps := PaperCheckpoints()
	if len(cps) != 5 || cps[0] != 2000 || cps[4] != 10000 {
		t.Errorf("checkpoints = %v", cps)
	}
}

func TestHullModeRuns(t *testing.T) {
	// Hull representatives are looser than the union, and the delivery
	// proxies re-tighten them: every query still receives exactly its
	// unmerged results (Measure fails otherwise).
	cfg := smallCfg(querygen.Zipf15, 7)
	cfg.Mode = merge.ConvexHull
	res, err := Sweep(cfg, []int{150})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].BenefitRatio < 0 {
		t.Errorf("hull benefit = %f", res[0].BenefitRatio)
	}
}

// TestHullVsUnionSameRegime: hull and union representative composition
// land in the same benefit regime. Hull loosens predicates, so a hull
// representative carries more than the union of its members; but where
// members overlap the two differ little.
func TestHullVsUnionSameRegime(t *testing.T) {
	var union, hull float64
	for seed := int64(0); seed < 3; seed++ {
		cfg := smallCfg(querygen.Zipf15, seed)
		u, err := Sweep(cfg, []int{200})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mode = merge.ConvexHull
		h, err := Sweep(cfg, []int{200})
		if err != nil {
			t.Fatal(err)
		}
		union += u[0].BenefitRatio
		hull += h[0].BenefitRatio
	}
	union /= 3
	hull /= 3
	if hull < union*0.5 || hull > union*1.5 {
		t.Errorf("hull benefit %f out of regime vs union %f", hull, union)
	}
}
