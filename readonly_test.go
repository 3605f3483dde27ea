package cosmos_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cosmos"
)

// TestResultsReadOnlyAcrossBackends: a delivered result's Values are
// shared with the routed tuple and every other subscriber, so each
// backend must hand every subscriber values that later traffic never
// changes. Subscribers reading the whole stream, a run of it and a
// gapped subset keep every result they receive, append to each (an
// uncapped share would write the columns after its run under the other
// readers) and write to a Clone of each. A [Now] aggregate's rows are
// cut from its plan's slab, a gapped member's from its receiver's (or,
// over TCP, the client's), and a second source published interleaved
// with the first makes each TCP publish frame one tuple, cut from the
// server session's slab. Once the sources have published the rest,
// every kept result must still carry its source's values under the
// query's column names, and every subscriber must have received each
// tuple it selects exactly once.
func TestResultsReadOnlyAcrossBackends(t *testing.T) {
	schema := cosmos.MustSchema("Load",
		cosmos.Field{Name: "seq", Kind: cosmos.KindInt},
		cosmos.Field{Name: "pubns", Kind: cosmos.KindInt},
		cosmos.Field{Name: "v0", Kind: cosmos.KindFloat},
		cosmos.Field{Name: "v1", Kind: cosmos.KindFloat},
		cosmos.Field{Name: "v2", Kind: cosmos.KindFloat},
	)
	value := func(seq int64, col string) cosmos.Value {
		switch col {
		case "seq":
			return cosmos.Int(seq)
		case "pubns":
			return cosmos.Int(seq * 1000)
		case "v0":
			return cosmos.Float(float64(seq % 100))
		case "v1":
			return cosmos.Float(float64(seq) + 0.25)
		default:
			return cosmos.Float(float64(seq) + 0.5)
		}
	}
	aux := cosmos.MustSchema("Aux",
		cosmos.Field{Name: "seq", Kind: cosmos.KindInt},
		cosmos.Field{Name: "pubns", Kind: cosmos.KindInt},
		cosmos.Field{Name: "v2", Kind: cosmos.KindFloat},
	)
	queries := []struct {
		text  string
		node  int
		every int // the query selects the seqs with seq%100 >= every
	}{
		{"SELECT seq, pubns, v0, v1, v2 FROM Load [Now]", 3, 0},
		{"SELECT seq, pubns FROM Load [Now]", 5, 0},
		{"SELECT pubns, v0 FROM Load [Now] WHERE v1 >= 0", 6, 0},
		{"SELECT v2, seq FROM Load [Now] WHERE v0 >= 50", 7, 50},
		{"SELECT pubns, SUM(v1) AS v1 FROM Load [Now] GROUP BY pubns", 4, 0},
		{"SELECT v2, seq FROM Aux [Now]", 2, 0},
	}
	const n = 1000
	eachBackend(t, func(t *testing.T, c cosmos.Client) {
		src, err := c.RegisterStream(&cosmos.StreamInfo{Schema: schema, Rate: 1000}, 1)
		if err != nil {
			t.Fatal(err)
		}
		auxSrc, err := c.RegisterStream(&cosmos.StreamInfo{Schema: aux, Rate: 1000}, 1)
		if err != nil {
			t.Fatal(err)
		}
		subs := make([]*cosmos.Subscription, len(queries))
		kept := make([][]cosmos.Tuple, len(queries))
		drained := make([]chan struct{}, len(queries))
		for i, q := range queries {
			if subs[i], err = c.Submit(context.Background(), q.text, q.node); err != nil {
				t.Fatalf("submit %q: %v", q.text, err)
			}
			drained[i] = make(chan struct{})
			go func() {
				defer close(drained[i])
				for r := range subs[i].Results() {
					_ = append(r.Values, cosmos.Int(-1))
					r.Clone().Values[0] = cosmos.Int(-2)
					kept[i] = append(kept[i], r)
				}
			}()
		}
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		publish := func(src cosmos.Source, s *cosmos.Schema, seq int64) {
			vals := make([]cosmos.Value, s.Arity())
			for k, f := range s.Fields {
				vals[k] = value(seq, f.Name)
			}
			if err := src.Publish(cosmos.MustTuple(s, cosmos.Timestamp(seq), vals...)); err != nil {
				t.Fatal(err)
			}
		}
		for seq := int64(0); seq < n; seq++ {
			publish(src, schema, seq)
			publish(auxSrc, aux, seq)
		}
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		for i, sub := range subs {
			if err := sub.Cancel(); err != nil {
				t.Fatalf("cancel %s: %v", sub.Tag(), err)
			}
			<-drained[i]
			if err := sub.Err(); err != nil {
				t.Fatalf("%s ended abnormally: %v", queries[i].text, err)
			}
		}
		for i, q := range queries {
			seen := map[int64]int{}
			for _, r := range kept[i] {
				seq := int64(r.Ts)
				seen[seq]++
				for k, f := range r.Schema.Fields {
					col := f.Name[strings.LastIndexByte(f.Name, '.')+1:]
					if !r.Values[k].Equal(value(seq, col)) {
						t.Fatalf("%s: result %s reads %v as %s, want %v", q.text, r, r.Values[k], col, value(seq, col))
					}
				}
			}
			var wrong []string
			for seq := int64(0); seq < n; seq++ {
				want := 0
				if int(seq%100) >= q.every {
					want = 1
				}
				if seen[seq] != want {
					wrong = append(wrong, fmt.Sprintf("seq %d ×%d", seq, seen[seq]))
				}
			}
			if len(wrong) > 0 {
				t.Errorf("%s: %d results, want each selected seq once; off: %s", q.text, len(kept[i]), strings.Join(wrong[:min(len(wrong), 5)], ", "))
			}
		}
	})
}
