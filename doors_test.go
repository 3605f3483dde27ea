package cosmos_test

import (
	"context"
	"strings"
	"testing"

	"cosmos"
	"cosmos/internal/core"
)

// eachBackend runs fn against a fresh deployment behind each Client
// backend: synchronous embedded, live embedded, and TCP.
func eachBackend(t *testing.T, fn func(t *testing.T, c cosmos.Client)) {
	eachBackendWith(t, diffOptions(), fn)
}

// eachBackendWith is eachBackend for a deployment of the given options;
// the live and TCP ones run two execution workers per processor.
func eachBackendWith(t *testing.T, opts core.Options, fn func(t *testing.T, c cosmos.Client)) {
	t.Run("sim", func(t *testing.T) {
		sys, err := core.NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, cosmos.Embed(sys))
	})
	live := opts
	live.ExecWorkers = 2
	t.Run("live", func(t *testing.T) {
		ls, err := core.NewLiveSystem(live)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ls.Close)
		fn(t, cosmos.EmbedLive(ls))
	})
	t.Run("remote", func(t *testing.T) {
		c, err := cosmos.Dial(startServerWith(t, live))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		fn(t, c)
	})
}

func tradesInfo() *cosmos.StreamInfo {
	return &cosmos.StreamInfo{Schema: cosmos.MustSchema("Trades",
		cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
		cosmos.Field{Name: "bid", Kind: cosmos.KindFloat},
		cosmos.Field{Name: "ask", Kind: cosmos.KindFloat},
	), Rate: 10}
}

// TestPublishRefusesOffCatalogLayout drives the publish door through
// every backend: a tuple carrying another layout under a registered
// stream name — other kinds, or the same kinds reordered — is refused by
// Publish instead of being routed by attribute name; the registered
// pointer and a layout-equal copy are accepted, and only their results
// arrive.
func TestPublishRefusesOffCatalogLayout(t *testing.T) {
	eachBackend(t, func(t *testing.T, c cosmos.Client) {
		info := tradesInfo()
		src, err := c.RegisterStream(info, 1)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Submit(context.Background(), "SELECT symbol, bid FROM Trades [Now] WHERE bid > 10", 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}

		if err := src.Publish(cosmos.MustTuple(info.Schema, 1,
			cosmos.String("a"), cosmos.Float(20), cosmos.Float(21))); err != nil {
			t.Fatalf("registered schema refused: %v", err)
		}
		layoutEqual := cosmos.MustSchema("Trades", info.Schema.Fields...)
		if err := src.Publish(cosmos.MustTuple(layoutEqual, 2,
			cosmos.String("b"), cosmos.Float(30), cosmos.Float(31))); err != nil {
			t.Fatalf("layout-equal schema under a new pointer refused: %v", err)
		}
		otherKinds := cosmos.MustSchema("Trades",
			cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
			cosmos.Field{Name: "bid", Kind: cosmos.KindString},
			cosmos.Field{Name: "ask", Kind: cosmos.KindFloat},
		)
		if err := src.Publish(cosmos.MustTuple(otherKinds, 3,
			cosmos.String("c"), cosmos.String("40"), cosmos.Float(41))); err == nil {
			t.Error("a tuple whose bid is a string was accepted under the registered name")
		}
		reordered := cosmos.MustSchema("Trades",
			cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
			cosmos.Field{Name: "ask", Kind: cosmos.KindFloat},
			cosmos.Field{Name: "bid", Kind: cosmos.KindFloat},
		)
		err = src.Publish(cosmos.MustTuple(reordered, 4,
			cosmos.String("d"), cosmos.Float(51), cosmos.Float(50)))
		if err == nil {
			t.Error("a tuple with bid and ask reordered was accepted under the registered name")
		} else if !strings.Contains(err.Error(), "registered schema") {
			t.Errorf("refusal should name the registered schema, got: %v", err)
		}

		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if err := sub.Cancel(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for tp := range sub.Results() {
			got = append(got, tp.Values[0].AsString())
		}
		if strings.Join(got, ",") != "a,b" {
			t.Errorf("results for symbols %v, want exactly the two accepted tuples [a b]", got)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != 2 {
			t.Errorf("%d tuples ingested, want 2 (refused tuples must not enter the data path)", st.Ingested)
		}
		for proc, n := range st.PlanErrsPerProc {
			if n != 0 {
				t.Errorf("processor %d counted %d plan errors, want 0", proc, n)
			}
		}
	})
}

// TestSubmitRefusesUnprovablePredicate drives the submit door through
// every backend: a predicate the compiler cannot prove error-free (a
// string attribute compared with a number) fails Submit with the same
// analysis error everywhere and leaves no query, plan, group, result
// stream or subscription behind.
func TestSubmitRefusesUnprovablePredicate(t *testing.T) {
	var messages []string
	eachBackend(t, func(t *testing.T, c cosmos.Client) {
		if _, err := c.RegisterStream(tradesInfo(), 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		before, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}

		_, err = c.Submit(context.Background(), "SELECT bid FROM Trades [Now] WHERE symbol > 5", 5)
		if err == nil {
			t.Fatal("a string attribute compared with a number was accepted")
		}
		msg := err.Error()
		if i := strings.Index(msg, "cql:"); i >= 0 {
			msg = msg[i:] // the remote backend prefixes the transport
		}
		messages = append(messages, msg)

		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		after, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if after.Queries != 0 || len(after.Plans) != 0 {
			t.Errorf("refused submit left %d queries and %d plans", after.Queries, len(after.Plans))
		}
		for proc := range after.GroupsPerProc {
			if after.GroupsPerProc[proc] != 0 || after.LoadPerProc[proc] != 0 {
				t.Errorf("processor %d: %d groups, load %d after a refused submit",
					proc, after.GroupsPerProc[proc], after.LoadPerProc[proc])
			}
		}
		ctrl := func(st cosmos.SystemStats) (n int64) {
			for _, l := range st.Links {
				n += l.CtrlMsgs
			}
			return n
		}
		if ctrl(after) != ctrl(before) {
			t.Errorf("control messages went from %d to %d: a profile or advert propagated", ctrl(before), ctrl(after))
		}
		infos, err := c.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].Schema.Stream != "Trades" {
			t.Errorf("catalog holds %d streams after a refused submit, want Trades alone", len(infos))
		}
	})
	if len(messages) == 3 {
		if !strings.HasPrefix(messages[0], "cql:") || !strings.Contains(messages[0], "symbol") {
			t.Errorf("refusal %q should be an analysis error naming the attribute", messages[0])
		}
		if messages[1] != messages[0] || messages[2] != messages[0] {
			t.Errorf("refusal differs across backends:\nsim:    %s\nlive:   %s\nremote: %s",
				messages[0], messages[1], messages[2])
		}
	}
}
