package cosmos_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosmos"
	"cosmos/internal/core"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/transport"
)

// The three-way differential workload: a fixed set of sensor streams and
// a seeded random querygen batch, driven identically through every
// Client backend.
const (
	diffStreams = 6
	diffQueries = 12
	diffRounds  = 100
	diffSeed    = 11
)

// diffTuple synthesises round r's reading for one station: deterministic
// values sweeping each attribute's full domain (co-prime strides), so
// every querygen predicate band gets hits regardless of the draw.
func diffTuple(station, r int) cosmos.Tuple {
	k := r + 17*station
	return cosmos.MustTuple(sensordata.Schema(station),
		cosmos.Timestamp(r)*cosmos.Timestamp(30*cosmos.Second),
		cosmos.Int(int64(station)),
		cosmos.Float(sensordata.TempMin+float64(k*7%65)),
		cosmos.Float(float64(k*13%100)),
		cosmos.Float(float64(k*131%1200)),
		cosmos.Float(float64(k*5%35)),
	)
}

func diffWorkloadQueries(t *testing.T) []string {
	t.Helper()
	gen, err := querygen.New(querygen.Config{
		Dist:    querygen.Uniform,
		Streams: diffStreams,
		Seed:    diffSeed,
		// Few, wide predicate templates keep the workload selective but
		// not starved against the sensor generator's value ranges.
		PredicateTemplates: 8,
		AggFraction:        0.35,
		JoinFraction:       0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The batch shares a delivery proxy only by chance; diffPair does by
	// construction. Round-robin placement alternates over diffOptions'
	// two processors, so the batch's last query goes between the pair's
	// members to put both on one processor, and so in one group.
	batch := gen.Batch(diffQueries)
	return append(batch[:diffPairAt[0]:diffPairAt[0]], diffPair[0], batch[diffPairAt[0]], diffPair[1])
}

// diffPair is diffWorkloadQueries' explicit pair of queries that share a
// delivery proxy: one stream, [Now], one user node, and filters that make
// a result one member's, the other's, or both. Their results cross a Dial
// connection as one body.
var diffPair = [2]string{
	"SELECT station, temperature FROM Sensor02 [Now] WHERE temperature > 10",
	"SELECT station, humidity FROM Sensor02 [Now] WHERE humidity < 50",
}

// diffPairAt is where diffWorkloadQueries puts diffPair's members.
var diffPairAt = [2]int{diffQueries - 1, diffQueries + 1}

// diffNode is the user node of diffWorkloadQueries' i-th query: the
// queries spread over nodes 3..10, and the pair's second member sits with
// its first.
func diffNode(i int) int {
	if i == diffPairAt[1] {
		i = diffPairAt[0]
	}
	return 3 + i%8
}

// driveClient runs the differential workload through one Client: it
// registers the streams (all at one node, so publish order reaches the
// processors identically on every transport), submits the queries,
// settles the control plane, publishes round-robin from one goroutine,
// quiesces, and collects each subscription's full result sequence.
func driveClient(t *testing.T, client cosmos.Client, queries []string) [][]string {
	t.Helper()
	sources := make([]cosmos.Source, diffStreams)
	for i := 0; i < diffStreams; i++ {
		src, err := client.RegisterStream(sensordata.Info(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = src
	}
	subs := make([]*cosmos.Subscription, len(queries))
	for i, q := range queries {
		sub, err := client.Submit(context.Background(), q, diffNode(i))
		if err != nil {
			t.Fatalf("submit %q: %v", q, err)
		}
		subs[i] = sub
	}
	// Subscription propagation is asynchronous on the concurrent
	// transports; settle it before traffic starts.
	if err := client.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < diffRounds; round++ {
		for i, src := range sources {
			if err := src.Publish(diffTuple(i, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := client.Quiesce(); err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(subs))
	for i, sub := range subs {
		if err := sub.Cancel(); err != nil {
			t.Fatalf("cancel %s: %v", sub.Tag(), err)
		}
		for tp := range sub.Results() {
			out[i] = append(out[i], tp.String())
		}
		if err := sub.Err(); err != nil {
			t.Fatalf("subscription %d ended abnormally: %v", i, err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func compareBackendSequences(t *testing.T, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d queries delivered, want %d", len(got), len(want))
	}
	for q := range want {
		if len(got[q]) != len(want[q]) {
			t.Fatalf("query %d: %d results, want %d", q, len(got[q]), len(want[q]))
		}
		for i := range want[q] {
			if got[q][i] != want[q][i] {
				t.Fatalf("query %d result %d differs:\ngot:  %s\nwant: %s",
					q, i, got[q][i], want[q][i])
			}
		}
	}
}

func diffOptions() core.Options {
	return core.Options{
		Nodes: 16, Seed: 3,
		ProcessorNodes: []int{4, 9},
		Placement:      core.RoundRobin,
	}
}

// startDiffServer hosts a LiveSystem behind a transport.Server on an
// ephemeral port — the cosmosd assembly — and returns its address.
func startDiffServer(t *testing.T, workers int) string {
	t.Helper()
	opts := diffOptions()
	opts.ExecWorkers = workers
	return startServerWith(t, opts)
}

// startServerWith is startDiffServer for arbitrary system options.
func startServerWith(t *testing.T, opts core.Options) string {
	t.Helper()
	ls, err := core.NewLiveSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(ls.System, transport.WithSystemClose(ls.Close))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	return ln.Addr().String()
}

// TestClientThreeWayDifferential is the keystone of the unified session
// API: the same seeded querygen workload, driven through the
// sync-embedded, live-embedded, and TCP-remote Client backends, must
// yield identical per-query result sequences — at workers 1, 2 and 4 on
// both live paths, race-clean.
func TestClientThreeWayDifferential(t *testing.T) {
	queries := diffWorkloadQueries(t)

	// Reference: the deterministic synchronous system.
	sys, err := core.NewSystem(diffOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := driveClient(t, cosmos.Embed(sys), queries)
	nonEmpty := 0
	for _, seq := range want {
		if len(seq) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("only %d of %d queries produced results; workload too weak", nonEmpty, len(want))
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("live-workers%d", workers), func(t *testing.T) {
			opts := diffOptions()
			opts.ExecWorkers = workers
			ls, err := core.NewLiveSystem(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ls.Close)
			got := driveClient(t, cosmos.EmbedLive(ls), queries)
			compareBackendSequences(t, got, want)
		})
		t.Run(fmt.Sprintf("remote-workers%d", workers), func(t *testing.T) {
			addr := startDiffServer(t, workers)
			client, err := cosmos.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			got := driveClient(t, client, queries)
			compareBackendSequences(t, got, want)
		})
	}
}

// TestClientStatsAndCatalogAcrossBackends checks the satellite contract:
// Stats reports the same shape — per-link counters included — on the
// simulated, live, and remote backends, with the link counters
// reconciling against the aggregate, and Catalog lists the registered
// streams everywhere.
func TestClientStatsAndCatalogAcrossBackends(t *testing.T) {
	queries := diffWorkloadQueries(t)
	run := func(t *testing.T, client cosmos.Client) {
		_ = driveClient(t, client, queries[:4])
	}
	check := func(t *testing.T, client cosmos.Client) {
		infos, err := client.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, info := range infos {
			if len(info.Schema.Stream) >= 6 && info.Schema.Stream[:6] == "Sensor" {
				found++
			}
		}
		if found != diffStreams {
			t.Errorf("catalog lists %d sensor streams, want %d", found, diffStreams)
		}
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Processors != 2 || len(st.LoadPerProc) != 2 {
			t.Errorf("stats = %+v", st)
		}
		if len(st.Links) == 0 {
			t.Fatal("no per-link stats reported")
		}
		var linkData int64
		for _, ls := range st.Links {
			linkData += ls.DataBytes
		}
		if linkData == 0 || linkData != st.TotalDataBytes {
			t.Errorf("link data sum %d vs TotalDataBytes %d", linkData, st.TotalDataBytes)
		}
	}
	t.Run("sim", func(t *testing.T) {
		sys, err := core.NewSystem(diffOptions())
		if err != nil {
			t.Fatal(err)
		}
		client := cosmos.Embed(sys)
		run(t, client)
		check(t, cosmos.Embed(sys)) // a fresh session sees the same deployment
	})
	t.Run("live", func(t *testing.T) {
		opts := diffOptions()
		opts.ExecWorkers = 2
		ls, err := core.NewLiveSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ls.Close)
		run(t, cosmos.EmbedLive(ls))
		check(t, cosmos.EmbedLive(ls))
	})
	t.Run("remote", func(t *testing.T) {
		addr := startDiffServer(t, 2)
		client, err := cosmos.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		run(t, client)
		c2, err := cosmos.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		check(t, c2)
	})
}

// TestSubscriptionContextAndCancelSemantics covers the session contract
// on the live backend: context cancellation tears the query down, the
// Results channel drains then closes with a nil Err, Cancel is
// idempotent, and cancelling after the client closed is a clean no-op.
func TestSubscriptionContextAndCancelSemantics(t *testing.T) {
	opts := core.Options{Nodes: 16, Seed: 1, ExecWorkers: 2}
	ls, err := core.NewLiveSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	client := cosmos.EmbedLive(ls)
	schema := cosmos.MustSchema("Trades",
		cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
		cosmos.Field{Name: "price", Kind: cosmos.KindFloat},
	)
	src, err := client.RegisterStream(&cosmos.StreamInfo{Schema: schema, Rate: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := client.Submit(ctx, "SELECT symbol, price FROM Trades [Now] WHERE price > 100", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := src.Publish(cosmos.MustTuple(schema, cosmos.Timestamp(i),
			cosmos.String("ACME"), cosmos.Float(150))); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Quiesce(); err != nil {
		t.Fatal(err)
	}
	cancel() // context teardown
	var got int
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-sub.Results():
			if !ok {
				open = false
				break
			}
			got++
		case <-deadline:
			t.Fatal("Results did not close after context cancellation")
		}
	}
	if got != 10 {
		t.Errorf("drained %d results, want 10 (buffered results must survive cancellation)", got)
	}
	if err := sub.Err(); err != nil {
		t.Errorf("Err after clean context cancel = %v", err)
	}
	if err := sub.Cancel(); err != nil {
		t.Errorf("idempotent Cancel = %v", err)
	}
	// Cancel after client Close is a clean no-op too.
	sub2, err := client.Submit(context.Background(),
		"SELECT symbol FROM Trades [Now]", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	for range sub2.Results() {
	}
	if err := sub2.Cancel(); err != nil {
		t.Errorf("Cancel after client Close = %v", err)
	}
	if ls.Queries() != 0 {
		t.Errorf("%d queries left in the system after teardown", ls.Queries())
	}
}

// TestSubmitFunc exercises the callback adapter over the channel session.
func TestSubmitFunc(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := cosmos.Embed(sys)
	defer client.Close()
	schema := cosmos.MustSchema("Trades",
		cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
		cosmos.Field{Name: "price", Kind: cosmos.KindFloat},
	)
	src, err := client.RegisterStream(&cosmos.StreamInfo{Schema: schema, Rate: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	sub, err := cosmos.SubmitFunc(context.Background(), client,
		"SELECT symbol FROM Trades [Now] WHERE price > 100", 7,
		func(cosmos.Tuple) { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := src.Publish(cosmos.MustTuple(schema, cosmos.Timestamp(i),
			cosmos.String("ACME"), cosmos.Float(150))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Load() != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Load() != 5 {
		t.Errorf("callback saw %d results, want 5", n.Load())
	}
}

// TestEmbedSyncConcurrentUse: the synchronous backend serialises session
// operations, so context-driven teardown firing mid-publish must not
// race the single-threaded routing cascade (run with -race in CI).
func TestEmbedSyncConcurrentUse(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Nodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := cosmos.Embed(sys)
	defer client.Close()
	schema := cosmos.MustSchema("Trades",
		cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
		cosmos.Field{Name: "price", Kind: cosmos.KindFloat},
	)
	src, err := client.RegisterStream(&cosmos.StreamInfo{Schema: schema, Rate: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	subs := make([]*cosmos.Subscription, 4)
	for i := range subs {
		if subs[i], err = client.Submit(ctx, "SELECT symbol FROM Trades [Now] WHERE price > 50", 3+i); err != nil {
			t.Fatal(err)
		}
	}
	go func() { // fire the teardown while the publish loop runs
		time.Sleep(time.Millisecond)
		cancel()
	}()
	for i := 0; i < 5000; i++ {
		if err := src.Publish(cosmos.MustTuple(schema, cosmos.Timestamp(i),
			cosmos.String("ACME"), cosmos.Float(float64(i%100)))); err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range subs {
		for range sub.Results() {
		}
		if err := sub.Err(); err != nil {
			t.Errorf("subscription ended with %v", err)
		}
	}
	if sys.Queries() != 0 {
		t.Errorf("%d queries left after context teardown", sys.Queries())
	}
}

// TestRegisterRefusesNonFiniteCatalogNumbers: a NaN, infinite or
// negative rate, or a NaN or infinite statistics bound, is refused by
// name on the embedded backends and over TCP alike — the catalog's one
// rule — and leaves no stream behind.
func TestRegisterRefusesNonFiniteCatalogNumbers(t *testing.T) {
	schema := cosmos.MustSchema("Bad", cosmos.Field{Name: "v", Kind: cosmos.KindFloat})
	bad := []*cosmos.StreamInfo{
		{Schema: schema, Rate: math.NaN()},
		{Schema: schema, Rate: math.Inf(1)},
		{Schema: schema, Rate: -1},
		{Schema: schema, Rate: 1, Stats: map[string]cosmos.AttrStats{"v": {Min: math.NaN(), Max: 1}}},
		{Schema: schema, Rate: 1, Stats: map[string]cosmos.AttrStats{"v": {Min: 0, Max: math.Inf(-1)}}},
	}
	check := func(t *testing.T, client cosmos.Client) {
		for _, info := range bad {
			if _, err := client.RegisterStream(info, 1); err == nil || !strings.Contains(err.Error(), `stream "Bad"`) {
				t.Errorf("rate %v, stats %v: register err %v, want a refusal naming the stream", info.Rate, info.Stats, err)
			}
		}
		infos, err := client.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			if info.Schema.Stream == "Bad" {
				t.Errorf("a refused registration left %s in the catalog", info.Schema)
			}
		}
	}
	t.Run("sim", func(t *testing.T) {
		sys, err := core.NewSystem(diffOptions())
		if err != nil {
			t.Fatal(err)
		}
		check(t, cosmos.Embed(sys))
	})
	t.Run("remote", func(t *testing.T) {
		client, err := cosmos.Dial(startDiffServer(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		check(t, client)
	})
}
