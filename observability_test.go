// Integration tests of the end-to-end observability layer: full
// instrumentation must never change what the system computes, and the
// three exposure surfaces — stage counters, sampled histograms, tuple
// traces — must agree with each other and with ground truth counted at
// the client.
package cosmos_test

import (
	"context"
	"testing"
	"time"

	"cosmos"
	"cosmos/internal/core"
	"cosmos/internal/obs"
	"cosmos/internal/sensordata"
)

// fullObs samples every event and traces every 4th tuple — the heaviest
// instrumentation the system offers.
func fullObs() cosmos.ObsOptions {
	return cosmos.ObsOptions{SampleEvery: 1, TraceEvery: 4}
}

// TestObservabilityDifferential re-runs the backend differential with
// full instrumentation on: per-event latency sampling plus 1-in-4 tuple
// tracing on the sync, live and TCP backends must still yield result
// sequences identical to the uninstrumented synchronous reference.
func TestObservabilityDifferential(t *testing.T) {
	queries := diffWorkloadQueries(t)

	// Uninstrumented reference (default counters-only observability).
	ref, err := core.NewSystem(diffOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := driveClient(t, cosmos.Embed(ref), queries)

	t.Run("sync", func(t *testing.T) {
		opts := diffOptions()
		opts.Obs = fullObs()
		sys, err := core.NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		got := driveClient(t, cosmos.Embed(sys), queries)
		compareBackendSequences(t, got, want)
		if n := sys.Obs().StageCount(obs.StageIngest); n != int64(diffRounds*diffStreams) {
			t.Errorf("ingest count %d, want %d", n, diffRounds*diffStreams)
		}
		if len(sys.Obs().Traces()) == 0 {
			t.Error("no traces retained with TraceEvery=4")
		}
	})
	t.Run("live", func(t *testing.T) {
		opts := diffOptions()
		opts.ExecWorkers = 2
		opts.Obs = fullObs()
		ls, err := core.NewLiveSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ls.Close)
		got := driveClient(t, cosmos.EmbedLive(ls), queries)
		compareBackendSequences(t, got, want)
	})
	t.Run("remote", func(t *testing.T) {
		opts := diffOptions()
		opts.ExecWorkers = 2
		opts.Obs = fullObs()
		addr := startServerWith(t, opts)
		client, err := cosmos.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		got := driveClient(t, client, queries)
		compareBackendSequences(t, got, want)

		// The stats shape must survive the wire: re-dial and read the
		// daemon's counters back through MsgStats.
		probe, err := cosmos.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		st, err := probe.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != int64(diffRounds*diffStreams) {
			t.Errorf("remote stats: Ingested %d, want %d", st.Ingested, diffRounds*diffStreams)
		}
		if st.SampleEvery != 1 {
			t.Errorf("remote stats: SampleEvery %d, want 1", st.SampleEvery)
		}
		if len(st.Stages) != int(obs.NumStages) {
			t.Fatalf("remote stats: %d stages, want %d", len(st.Stages), int(obs.NumStages))
		}
		for _, s := range st.Stages {
			switch s.Stage {
			case "ingest", "route", "exec", "deliver", "wire":
				if s.Count > 0 && s.Lat.Count == 0 {
					t.Errorf("stage %s: %d events but empty histogram at SampleEvery=1", s.Stage, s.Count)
				}
			default:
				t.Errorf("unknown stage %q over the wire", s.Stage)
			}
		}
		if wire := st.Stages[obs.StageWire].Count; wire == 0 {
			t.Error("remote stats: wire stage count is zero after a remote differential")
		}
		if st.Wire == nil || st.Wire.Results == 0 {
			t.Fatalf("remote stats: Wire series missing or empty: %+v", st.Wire)
		}
		// The differential published over TCP: the ingest series counted
		// every tuple, in no more frames than tuples.
		if st.Wire.IngestTuples != int64(diffRounds*diffStreams) {
			t.Errorf("remote stats: IngestTuples %d, want %d", st.Wire.IngestTuples, diffRounds*diffStreams)
		}
		if st.Wire.IngestFrames == 0 || st.Wire.IngestFrames > st.Wire.IngestTuples || st.Wire.IngestBytes == 0 || st.Wire.AckBytes == 0 {
			t.Errorf("remote stats: ingest series did not move with the tuples: %+v", st.Wire)
		}
		// Publishing into a stream nobody reads moves the ingest series and
		// nothing else: Bytes stays the result path's own.
		quiet, err := probe.RegisterStream(tradesInfo(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := quiet.Publish(cosmos.MustTuple(quiet.Schema(), cosmos.Timestamp(i),
				cosmos.String("q"), cosmos.Float(1), cosmos.Float(2))); err != nil {
				t.Fatal(err)
			}
		}
		if err := probe.Quiesce(); err != nil {
			t.Fatal(err)
		}
		after, err := probe.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Wire.IngestTuples - st.Wire.IngestTuples; got != 10 {
			t.Errorf("IngestTuples moved by %d for 10 published tuples", got)
		}
		if after.Wire.IngestBytes <= st.Wire.IngestBytes || after.Wire.IngestFrames <= st.Wire.IngestFrames {
			t.Errorf("ingest bytes/frames did not move: %+v → %+v", st.Wire, after.Wire)
		}
		if after.Wire.Bytes != st.Wire.Bytes || after.Wire.Results != st.Wire.Results {
			t.Errorf("the result series counted ingest: Bytes %d → %d, Results %d → %d",
				st.Wire.Bytes, after.Wire.Bytes, st.Wire.Results, after.Wire.Results)
		}
		if after.Wire.PublishWindow != 0 {
			t.Errorf("PublishWindow %d after the publish barrier, want 0", after.Wire.PublishWindow)
		}
	})
}

// TestTraceHistogramCrossCheck drives a known workload through an
// instrumented live system and cross-checks every surface against
// ground truth: stage counters against tuples published and results
// received, histogram totals against stage counters (SampleEvery=1
// times every event), per-plan counters against the exec stage, the
// systematic trace cohort against its expected size.
func TestTraceHistogramCrossCheck(t *testing.T) {
	const (
		published  = 64
		traceEvery = 4
	)
	opts := core.Options{
		Nodes: 16, Seed: 3, ExecWorkers: 2,
		Obs: cosmos.ObsOptions{SampleEvery: 1, TraceEvery: traceEvery},
	}
	ls, err := core.NewLiveSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	client := cosmos.EmbedLive(ls)

	src, err := client.RegisterStream(sensordata.Info(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.Submit(context.Background(),
		"SELECT station, temperature FROM Sensor00 [Now]", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < published; i++ {
		if err := src.Publish(diffTuple(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Snapshot before Cancel: cancelling the last member query
	// uninstalls the plan, and with it the per-plan series.
	st := ls.System.StatsSnapshot()

	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
	results := 0
	for range sub.Results() {
		results++
	}
	if results == 0 {
		t.Fatal("select-all query delivered no results")
	}

	// Counters vs ground truth.
	if st.Ingested != published {
		t.Errorf("Ingested %d, want %d", st.Ingested, published)
	}
	if st.Delivered != int64(results) {
		t.Errorf("Delivered %d, want %d results the client counted", st.Delivered, results)
	}

	// Histogram totals vs counters: at SampleEvery=1 every event is in
	// the histogram, so snapshot counts must equal stage counts exactly.
	if st.SampleEvery != 1 {
		t.Fatalf("SampleEvery %d, want 1", st.SampleEvery)
	}
	for _, s := range st.Stages {
		if uint64(s.Count) != s.Lat.Count {
			t.Errorf("stage %s: count %d != histogram total %d", s.Stage, s.Count, s.Lat.Count)
		}
		if s.Lat.Count > 0 && s.Lat.Quantile(0.99) <= 0 {
			t.Errorf("stage %s: non-empty histogram reports p99 %d", s.Stage, s.Lat.Quantile(0.99))
		}
	}

	// Per-plan series vs the exec stage: plans partition exec pushes.
	var pushes, emits, tuplesRun int64
	for _, p := range st.Plans {
		pushes += p.Pushes
		emits += p.Emits
		if uint64(p.Pushes) != p.PushLat.Count {
			t.Errorf("plan %s: %d pushes but %d histogram samples", p.Plan, p.Pushes, p.PushLat.Count)
		}
		if len(p.Queries) == 0 {
			t.Errorf("plan %s: no member queries reported", p.Plan)
		}
	}
	if execCount := st.Stages[obs.StageExec].Count; pushes != execCount {
		t.Errorf("plan pushes sum %d != exec stage count %d", pushes, execCount)
	}
	if emits != int64(results) {
		t.Errorf("plan emits sum %d != %d delivered results", emits, results)
	}
	for _, w := range st.Workers {
		tuplesRun += w.Tuples
	}
	if tuplesRun != pushes {
		t.Errorf("worker tuple sum %d != plan pushes %d", tuplesRun, pushes)
	}

	// The systematic trace cohort: every traceEvery-th publish, so
	// exactly published/traceEvery traces, each marked through route,
	// exec and deliver with monotone offsets.
	traces := ls.System.Obs().Traces()
	if len(traces) != published/traceEvery {
		t.Fatalf("%d traces, want %d", len(traces), published/traceEvery)
	}
	for _, tr := range traces {
		seen := map[string]bool{}
		last := time.Duration(-1)
		for _, span := range tr.Breakdown() {
			seen[span.Stage] = true
			if span.Offset < last {
				t.Errorf("trace %d: stage %s offset %v before previous %v",
					tr.Key, span.Stage, span.Offset, last)
			}
			last = span.Offset
		}
		for _, stage := range []string{"route", "exec", "deliver"} {
			if !seen[stage] {
				t.Errorf("trace %d: no %s mark (events: %v)", tr.Key, stage, tr.Events)
			}
		}
		if tr.End() <= 0 {
			t.Errorf("trace %d: non-positive end-to-end latency %v", tr.Key, tr.End())
		}
	}

	// The counters `cosmosctl top` turns into rates, selectivities and
	// push quantiles.
	if st.Ingested != published {
		t.Errorf("ingested %d, want %d", st.Ingested, published)
	}
	if len(st.Plans) == 0 {
		t.Error("stats carry no plans")
	}
	for _, p := range st.Plans {
		if p.Pushes <= 0 || p.Emits <= 0 {
			t.Errorf("plan %s: %d pushes, %d emits, want both > 0", p.Plan, p.Pushes, p.Emits)
		}
		if p.PushLat.Quantile(0.99) <= 0 {
			t.Errorf("plan %s: push p99 %d, want > 0", p.Plan, p.PushLat.Quantile(0.99))
		}
	}
}
