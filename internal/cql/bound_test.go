package cql

import (
	"fmt"
	"strings"
	"testing"

	"cosmos/internal/predicate"
	"cosmos/internal/stream"
)

func TestBoundCloneIndependence(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString(q1Text, cat)
	if err != nil {
		t.Fatal(err)
	}
	c := b.Clone()
	// Mutate the clone's predicate structures and windows.
	c.Sel["OpenAuction"] = predicate.DNF{
		{predicate.C("start_price", predicate.GT, stream.Float(1))},
	}
	c.Windows["OpenAuction"] = stream.Now
	c.From[0].Window = stream.Now
	c.SelectCols = c.SelectCols[:1]
	if b.Sel["OpenAuction"].String() == c.Sel["OpenAuction"].String() {
		t.Error("clone shares Sel")
	}
	if b.Windows["OpenAuction"] != 3*stream.Hour {
		t.Error("clone mutation leaked into Windows")
	}
	if b.From[0].Window != 3*stream.Hour {
		t.Error("clone mutation leaked into From")
	}
	if len(b.SelectCols) == 1 {
		t.Error("clone shares SelectCols backing array semantics")
	}
}

func TestSynthesizeCQLStringsAndBools(t *testing.T) {
	cat := stream.NewRegistry()
	if err := cat.Register(&stream.Info{Schema: stream.MustSchema("Log",
		stream.Field{Name: "level", Kind: stream.KindString},
		stream.Field{Name: "ok", Kind: stream.KindBool},
		stream.Field{Name: "latency", Kind: stream.KindFloat},
	), Rate: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeString(
		"SELECT latency FROM Log [Range 1 Minute] WHERE level = 'err''or' AND ok = FALSE AND latency >= 1.5", cat)
	if err != nil {
		t.Fatal(err)
	}
	text := b.SynthesizeCQL()
	for _, want := range []string{"'err''or'", "FALSE", "1.5"} {
		if !strings.Contains(text, want) {
			t.Errorf("synthesized %q lacks %q", text, want)
		}
	}
	// The synthesized text must reparse and re-bind.
	if _, err := AnalyzeString(text, cat); err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
}

func TestSynthesizeCQLAggregates(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString(
		"SELECT sellerID, COUNT(*), AVG(start_price) AS ap FROM OpenAuction [Range 1 Hour] GROUP BY sellerID", cat)
	if err != nil {
		t.Fatal(err)
	}
	text := b.SynthesizeCQL()
	if !strings.Contains(text, "COUNT(*)") || !strings.Contains(text, "AS ap") {
		t.Errorf("synthesized = %s", text)
	}
	if !strings.Contains(text, "GROUP BY OpenAuction.sellerID") {
		t.Errorf("group by missing: %s", text)
	}
	if _, err := AnalyzeString(text, cat); err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
}

func TestInputTsAttr(t *testing.T) {
	if InputTsAttr("O") != "O.__ts" {
		t.Errorf("InputTsAttr = %s", InputTsAttr("O"))
	}
}

// TestDerivedOnce: the group signature and the needed attributes are
// computed with the Bound, so reading them allocates nothing, and they
// answer what computing them afresh does — after analysis, and after
// Rebuild on a clone whose clauses changed.
func TestDerivedOnce(t *testing.T) {
	cat := paperCatalog()
	b, err := AnalyzeString(q1Text, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.GroupSignature() }); n != 0 {
		t.Errorf("GroupSignature allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.NeededAttrs() }); n != 0 {
		t.Errorf("NeededAttrs allocates %v times", n)
	}
	fresh := func(b *Bound) {
		t.Helper()
		if got, want := b.GroupSignature(), b.groupSignature(); got != want {
			t.Errorf("GroupSignature = %q, computed afresh %q", got, want)
		}
		if got, want := fmt.Sprint(b.NeededAttrs()), fmt.Sprint(b.neededAttrs()); got != want {
			t.Errorf("NeededAttrs = %s, computed afresh %s", got, want)
		}
	}
	fresh(b)
	c := b.Clone()
	c.SelectCols, c.OutNames = c.SelectCols[:1], c.OutNames[:1]
	c.Sel["OpenAuction"] = predicate.DNF{{predicate.C("sellerID", predicate.GT, stream.Int(1))}}
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	fresh(c)
	if fmt.Sprint(c.NeededAttrs()) == fmt.Sprint(b.NeededAttrs()) {
		t.Errorf("Rebuild kept the needed attributes of the unchanged clauses: %v", c.NeededAttrs())
	}
}
