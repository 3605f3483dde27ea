package cql_test

import (
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/profile"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
)

// fuzzCatalog is the sensor catalog plus the paper's auction streams,
// the latter widened with a string and a bool attribute so comparisons
// over every kind are reachable.
func fuzzCatalog(tb testing.TB) *stream.Registry {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		tb.Fatal(err)
	}
	for _, s := range []*stream.Schema{
		stream.MustSchema("OpenAuction",
			stream.Field{Name: "itemID", Kind: stream.KindInt},
			stream.Field{Name: "sellerID", Kind: stream.KindInt},
			stream.Field{Name: "start_price", Kind: stream.KindFloat},
			stream.Field{Name: "category", Kind: stream.KindString},
			stream.Field{Name: "reserve", Kind: stream.KindBool},
			stream.Field{Name: "timestamp", Kind: stream.KindTime},
		),
		stream.MustSchema("ClosedAuction",
			stream.Field{Name: "itemID", Kind: stream.KindInt},
			stream.Field{Name: "buyerID", Kind: stream.KindInt},
			stream.Field{Name: "timestamp", Kind: stream.KindTime},
		),
	} {
		if err := reg.Register(&stream.Info{Schema: s, Rate: 10}); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// FuzzAnalyze pins "Submit is where bad queries die": over arbitrary
// query text, parsing and analysis return errors and never panic, and
// every query analysis accepts also compiles into a plan (spe.Compile)
// and into routable source profiles (Profile.CompileFor) — so no layer
// below analysis ever needs to evaluate a predicate it could not
// compile.
func FuzzAnalyze(f *testing.F) {
	reg := fuzzCatalog(f)
	gen, err := querygen.New(querygen.Config{
		Dist: querygen.Zipf10, Seed: 5, Streams: 8, AggFraction: 0.3, JoinFraction: 0.3,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range gen.Batch(40) {
		f.Add(q)
	}
	for _, q := range []string{
		"SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
		"SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
		"SELECT station, temperature, humidity FROM Sensor07 [Now] WHERE temperature >= 10 AND humidity <= 40",
		"SELECT category, COUNT(*) AS n FROM OpenAuction [Range 1 Minute] GROUP BY category",
		"SELECT itemID FROM OpenAuction [Unbounded] WHERE category = 'art' OR start_price > 900",
		"SELECT itemID FROM OpenAuction [Now] WHERE reserve = true AND sellerID != 3",
		"SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID AND C.timestamp - O.timestamp <= 60000",
		"SELECT a.itemID FROM OpenAuction [Range 1 Hour] a, OpenAuction [Now] b WHERE a.sellerID = b.sellerID AND a.start_price >= b.start_price",
		"SELECT MAX(start_price), MIN(timestamp) FROM OpenAuction [Range 10 Second]",
		// Must be refused, not run.
		"SELECT itemID FROM OpenAuction [Now] WHERE category > 5",
		"SELECT itemID FROM OpenAuction [Now] WHERE category - itemID > 5",
		"SELECT O.itemID FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.category = C.itemID",
		"SELECT COUNT(*) FROM OpenAuction [Now] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, text string) {
		b, err := cql.AnalyzeString(text, reg)
		if err != nil {
			return
		}
		if _, err := spe.Compile("fuzz", b, "fuzz-result"); err != nil {
			t.Fatalf("analysis accepted %q but the plan does not compile: %v", text, err)
		}
		prof := profile.FromQuery(b)
		for _, ref := range b.From {
			if cs, err := prof.CompileFor(b.Schemas[ref.Alias]); err != nil || cs == nil {
				t.Fatalf("analysis accepted %q but the source profile of %s does not compile: %v (view %v)",
					text, ref.Stream, err, cs)
			}
		}
	})
}
