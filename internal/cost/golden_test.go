package cost_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"cosmos/internal/cost"
	"cosmos/internal/cql"
	"cosmos/internal/merge"
	"cosmos/internal/predicate"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
)

// goldenFile pins the predicate algebra and the selectivity estimator on
// a fixed corpus: querygen filters of all four distributions (and of a
// self-join workload), the auction q1/q2 selections with their
// result-splitting member profiles, and random mixed-kind conjunctions.
// Brokers compare filters structurally, so Simplify and Hull are pinned
// in constraint order, not only canonically.
const goldenFile = "testdata/golden.txt"

// TestGoldenCorpus checks that the corpus renders exactly as recorded.
func TestGoldenCorpus(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t)
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s line %d:\n got  %s\n want %s", goldenFile, i+1, g, w)
		}
	}
}

// goldenGroup is one list of disjuncts over one stream, with the stream's
// statistics (nil when the terms are qualified or synthetic).
type goldenGroup struct {
	name string
	info *stream.Info
	d    predicate.DNF
}

func renderGolden(t *testing.T) string {
	var b strings.Builder
	for _, g := range goldenCorpus(t) {
		renderGroup(&b, g)
	}
	return b.String()
}

func renderGroup(b *strings.Builder, g goldenGroup) {
	var e cost.Estimator
	d := g.d
	fmt.Fprintf(b, "group %s n=%d\n", g.name, len(d))
	for i, cj := range d {
		fmt.Fprintf(b, "  %d %s sat=%v sel=%x/%x\n", i, inOrder(cj), cj.Satisfiable(),
			math.Float64bits(e.SelectivityDNF(g.info, predicate.DNF{cj})),
			math.Float64bits(e.SelectivityDNF(nil, predicate.DNF{cj})))
	}
	fmt.Fprintf(b, "  simplify %s\n", dnfInOrder(d.Simplify()))
	fmt.Fprintf(b, "  seldnf %x/%x\n", math.Float64bits(e.SelectivityDNF(g.info, d)),
		math.Float64bits(e.SelectivityDNF(nil, d)))
	half := len(d) / 2
	fmt.Fprintf(b, "  impliesdnf %v %v\n", predicate.ImpliesDNF(d[:half], d[half:]),
		predicate.ImpliesDNF(d[half:], d[:half]))
	for i := 0; i+1 < len(d); i++ {
		and := d[i].And(d[i+1])
		fmt.Fprintf(b, "  pair %d hull=%s and.sat=%v and.sel=%x\n", i,
			hullRendering(predicate.Hull(d[i], d[i+1])), and.Satisfiable(),
			math.Float64bits(e.SelectivityConj(g.info, and)))
	}
	n := len(d)
	if n > 16 {
		n = 16
	}
	b.WriteString("  implies ")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if predicate.Implies(d[i], d[j]) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte(' ')
	}
	b.WriteByte('\n')
	// A sample of the non-adjacent pairs.
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if (i+j)%5 == 0 {
				fmt.Fprintf(b, "  hull %d %d %s\n", i, j, hullRendering(predicate.Hull(d[i], d[j])))
			}
		}
	}
}

// inOrder renders a conjunction in constraint order.
func inOrder(cj predicate.Conj) string {
	if len(cj) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(cj))
	for i, c := range cj {
		parts[i] = c.String()
	}
	return strings.Join(parts, " & ")
}

func dnfInOrder(d predicate.DNF) string {
	parts := make([]string, len(d))
	for i, cj := range d {
		parts[i] = "(" + inOrder(cj) + ")"
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

// hullRendering renders a hull in constraint order, except when it keeps
// two numeric exclusions on one term: their relative order is not part
// of Hull's contract, so that hull is rendered canonically.
func hullRendering(cj predicate.Conj) string {
	for i, c := range cj {
		if c.Op != predicate.NE || c.Const.Kind() == stream.KindString {
			continue
		}
		for _, o := range cj[i+1:] {
			if o.Op == predicate.NE && o.Term == c.Term && o.Const.Kind() != stream.KindString {
				return "~" + cj.String()
			}
		}
	}
	return inOrder(cj)
}

func goldenCorpus(t *testing.T) []goldenGroup {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	var out []goldenGroup
	type genCase struct {
		dist querygen.Distribution
		join float64
	}
	var cases []genCase
	for _, dist := range querygen.PaperDistributions() {
		cases = append(cases, genCase{dist: dist})
	}
	cases = append(cases, genCase{dist: querygen.Zipf10, join: 0.5})
	for _, gc := range cases {
		g, err := querygen.New(querygen.Config{Dist: gc.dist, Streams: 4, Seed: 1,
			PredicateTemplates: 5, JoinFraction: gc.join})
		if err != nil {
			t.Fatal(err)
		}
		bound, err := g.BindBatch(96, reg)
		if err != nil {
			t.Fatal(err)
		}
		// Every selection on a stream, in submission order: the disjuncts
		// a broker's demand union over that stream would see.
		perStream := map[string]predicate.DNF{}
		var names []string
		for _, q := range bound {
			for _, ref := range q.From {
				if _, ok := perStream[ref.Stream]; !ok {
					names = append(names, ref.Stream)
				}
				perStream[ref.Stream] = append(perStream[ref.Stream], q.Sel[ref.Alias]...)
			}
			if len(q.Residual) > 0 && !q.Residual.IsTrue() {
				out = append(out, goldenGroup{name: gc.dist.Name + "/residual", d: q.Residual})
			}
		}
		for _, name := range names {
			info, _ := reg.Lookup(name)
			out = append(out, goldenGroup{
				name: fmt.Sprintf("%s/join%.1f/%s", gc.dist.Name, gc.join, name),
				info: info,
				d:    perStream[name],
			})
		}
	}
	out = append(out, auctionCorpus(t)...)
	return append(out, randomCorpus()...)
}

// auctionCorpus binds the auction q1/q2 pairs (the benchmark's four
// column lists and the example's pair, plus pairs with selections) and
// records their selections, residuals and member-profile filters.
func auctionCorpus(t *testing.T) []goldenGroup {
	reg := stream.NewRegistry()
	open := &stream.Info{Schema: stream.MustSchema("OpenAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "sellerID", Kind: stream.KindInt},
		stream.Field{Name: "start_price", Kind: stream.KindFloat},
		stream.Field{Name: "timestamp", Kind: stream.KindTime},
	), Rate: 50, Stats: map[string]stream.AttrStats{
		"itemID":      {Min: 0, Max: 1e6, Distinct: 1000000},
		"start_price": {Min: 0, Max: 500, Distinct: 5000},
	}}
	closed := &stream.Info{Schema: stream.MustSchema("ClosedAuction",
		stream.Field{Name: "itemID", Kind: stream.KindInt},
		stream.Field{Name: "buyerID", Kind: stream.KindInt},
		stream.Field{Name: "timestamp", Kind: stream.KindTime},
	), Rate: 30, Stats: map[string]stream.AttrStats{
		"itemID":  {Min: 0, Max: 1e6, Distinct: 1000000},
		"buyerID": {Min: 0, Max: 1e4, Distinct: 10000},
	}}
	for _, in := range []*stream.Info{open, closed} {
		if err := reg.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	join := func(cols string, hours int, where string) string {
		return fmt.Sprintf("SELECT %s FROM OpenAuction [Range %d Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID%s",
			cols, hours, where)
	}
	type pair struct{ q1, q2 string }
	pairs := []pair{{
		"SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
		"SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
	}}
	for _, cols := range []string{
		"O.itemID, C.buyerID",
		"O.itemID, O.sellerID, C.buyerID",
		"O.itemID, C.timestamp",
		"O.itemID, O.start_price, C.timestamp",
	} {
		pairs = append(pairs, pair{join(cols, 3, ""), join(cols, 5, "")})
	}
	pairs = append(pairs,
		pair{join("O.itemID, C.buyerID", 3, " AND O.start_price >= 10 AND O.start_price < 100"),
			join("O.itemID, C.buyerID", 5, " AND O.start_price >= 50 AND C.buyerID != 7")},
		pair{join("O.itemID, C.buyerID", 3, " AND O.start_price > 100 AND O.start_price <= 20"),
			join("O.itemID, C.buyerID", 5, " AND C.buyerID >= 10 AND C.buyerID <= 10 AND C.buyerID != 10")},
		pair{join("O.itemID, C.buyerID", 3, " AND O.sellerID = 4 AND O.sellerID = 5"),
			join("O.itemID, C.buyerID", 5, " AND O.start_price != 3.5 AND O.start_price != 4")})
	var out []goldenGroup
	for i, p := range pairs {
		q1, err := cql.AnalyzeString(p.q1, reg)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := cql.AnalyzeString(p.q2, reg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range q1.From {
			info, _ := reg.Lookup(ref.Stream)
			d := append(append(predicate.DNF{}, q1.Sel[ref.Alias]...), q2.Sel[ref.Alias]...)
			out = append(out, goldenGroup{name: fmt.Sprintf("auction%d/sel/%s", i, ref.Alias), info: info, d: d})
		}
		res := append(append(predicate.DNF{}, q1.Residual...), q2.Residual...)
		out = append(out, goldenGroup{name: fmt.Sprintf("auction%d/residual", i), d: res})
		rep, err := merge.Queries(q1, q2, merge.ExactUnion)
		if err != nil {
			t.Fatal(err)
		}
		var members predicate.DNF
		for _, q := range []*cql.Bound{q1, q2} {
			prof, err := merge.BuildMemberProfile(q, rep, "r")
			if err != nil {
				t.Fatal(err)
			}
			members = append(members, prof.FilterFor("r")...)
		}
		out = append(out, goldenGroup{name: fmt.Sprintf("auction%d/members", i), d: members})
		for _, ref := range rep.From {
			info, _ := reg.Lookup(ref.Stream)
			out = append(out, goldenGroup{name: fmt.Sprintf("auction%d/rep/%s", i, ref.Alias), info: info, d: rep.Sel[ref.Alias]})
		}
	}
	return out
}

// randomCorpus draws conjunctions mixing every constraint form the
// algebra distinguishes: numeric ranges, points and exclusions, string
// equality, exclusion and range comparisons, and attribute differences.
func randomCorpus() []goldenGroup {
	info := &stream.Info{Schema: stream.MustSchema("R",
		stream.Field{Name: "x", Kind: stream.KindInt},
		stream.Field{Name: "y", Kind: stream.KindFloat},
		stream.Field{Name: "s", Kind: stream.KindString},
	), Rate: 10, Stats: map[string]stream.AttrStats{
		"x": {Min: 0, Max: 10, Distinct: 11},
		"y": {Min: -5, Max: 5, Distinct: 100},
	}}
	rng := rand.New(rand.NewSource(7))
	ops := []predicate.Op{predicate.EQ, predicate.NE, predicate.LT, predicate.LE, predicate.GT, predicate.GE}
	strs := []string{"a", "b", "c"}
	draw := func() predicate.Constraint {
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(6) {
		case 0, 1:
			return predicate.C("x", op, stream.Int(int64(rng.Intn(8))))
		case 2:
			return predicate.C("y", op, stream.Float(float64(rng.Intn(9)-4)/2))
		case 3:
			if rng.Intn(4) == 0 {
				return predicate.C("s", op, stream.String_(strs[rng.Intn(len(strs))]))
			}
			return predicate.C("s", ops[rng.Intn(2)], stream.String_(strs[rng.Intn(len(strs))]))
		case 4:
			return predicate.Constraint{Term: predicate.Diff("a.ts", "b.ts"), Op: op, Const: stream.Int(int64(rng.Intn(5)))}
		default:
			return predicate.C("x", predicate.NE, stream.Int(int64(rng.Intn(8))))
		}
	}
	var out []goldenGroup
	for g := 0; g < 12; g++ {
		d := make(predicate.DNF, 6+rng.Intn(14))
		for i := range d {
			cj := make(predicate.Conj, rng.Intn(6))
			for k := range cj {
				cj[k] = draw()
			}
			d[i] = cj
		}
		out = append(out, goldenGroup{name: fmt.Sprintf("random%d", g), info: info, d: d})
	}
	return out
}
