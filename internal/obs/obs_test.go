package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestStageCountingAndSampling(t *testing.T) {
	m := New(Options{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 100; i++ {
		start := m.StageStart(StageIngest)
		if start != 0 {
			sampled++
		}
		m.StageEnd(StageIngest, start)
	}
	if got := m.StageCount(StageIngest); got != 100 {
		t.Fatalf("StageCount = %d", got)
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at every=4", sampled)
	}
	if lat := m.StageLatency(StageIngest); lat.Count != 25 {
		t.Fatalf("latency observations = %d, want 25", lat.Count)
	}
	// Batch counting crosses sampling boundaries.
	b := New(Options{SampleEvery: 10})
	timed := 0
	for i := 0; i < 30; i++ {
		if start := b.StageStartN(StageWire, 7); start != 0 {
			timed++
			b.StageEnd(StageWire, start)
		}
	}
	if got := b.StageCount(StageWire); got != 210 {
		t.Fatalf("batch StageCount = %d", got)
	}
	if timed != 21 { // 210/10 boundaries crossed
		t.Fatalf("batch sampled %d, want 21", timed)
	}
}

// Striped counting: distinct hints land on distinct shards, the stage
// count is their exact sum, and each stripe samples 1-in-SampleEvery
// of its own events — so the overall sampled fraction is preserved.
func TestStripedCounting(t *testing.T) {
	m := New(Options{SampleEvery: 4})
	sampled := 0
	for stripe := 0; stripe < 2*NumStripes; stripe++ { // hints wrap modulo NumStripes
		for i := 0; i < 100; i++ {
			if start := m.StageStartAt(StageDeliver, stripe); start != 0 {
				sampled++
				m.StageEnd(StageDeliver, start)
			}
		}
	}
	if got := m.StageCount(StageDeliver); got != 2*NumStripes*100 {
		t.Fatalf("StageCount = %d, want %d", got, 2*NumStripes*100)
	}
	// Two hint rounds fold onto each stripe: 200 events per stripe, 50
	// sampled each.
	if want := 2 * NumStripes * 25; sampled != want {
		t.Fatalf("sampled %d, want %d", sampled, want)
	}
	if lat := m.StageLatency(StageDeliver); int(lat.Count) != 2*NumStripes*25 {
		t.Fatalf("latency observations = %d", lat.Count)
	}
	// Batch variant.
	b := New(Options{SampleEvery: 10})
	timed := 0
	for stripe := 0; stripe < NumStripes; stripe++ {
		for i := 0; i < 30; i++ {
			if start := b.StageStartNAt(StageWire, 7, stripe); start != 0 {
				timed++
				b.StageEnd(StageWire, start)
			}
		}
	}
	if got := b.StageCount(StageWire); got != int64(NumStripes)*210 {
		t.Fatalf("batch StageCount = %d", got)
	}
	if timed != NumStripes*21 {
		t.Fatalf("batch sampled %d, want %d", timed, NumStripes*21)
	}
}

func TestSamplingDisabled(t *testing.T) {
	m := New(Options{SampleEvery: -1})
	for i := 0; i < 1000; i++ {
		if start := m.StageStart(StageExec); start != 0 {
			t.Fatal("sampled with sampling disabled")
		}
	}
	if m.StageCount(StageExec) != 1000 {
		t.Fatal("counters must stay on when sampling is off")
	}
	if New(Options{}).SampleEvery() != DefaultSampleEvery {
		t.Fatal("zero SampleEvery must mean the default")
	}
}

func TestStageSnapshotsOrder(t *testing.T) {
	m := New(Options{})
	m.StageStart(StageRoute)
	ss := m.StageSnapshots()
	if len(ss) != int(NumStages) {
		t.Fatalf("%d stages", len(ss))
	}
	want := []string{"ingest", "route", "exec", "deliver", "wire"}
	for i, s := range ss {
		if s.Stage != want[i] {
			t.Fatalf("stage[%d] = %q, want %q", i, s.Stage, want[i])
		}
	}
	if ss[StageRoute].Count != 1 {
		t.Fatalf("route count = %d", ss[StageRoute].Count)
	}
}

// Tracing is systematic and seedable: every N-th publish is traced,
// and the seed shifts which cohort.
func TestTracerDeterministic(t *testing.T) {
	m := New(Options{TraceEvery: 4})
	for ts := int64(1); ts <= 16; ts++ {
		m.TraceSample(ts, "s")
		m.TraceMark(ts, StageRoute)
		m.TraceMark(ts, StageExec)
	}
	traces := m.Traces()
	if len(traces) != 4 {
		t.Fatalf("%d traces, want 4", len(traces))
	}
	for i, tr := range traces {
		if want := int64(4 * (i + 1)); tr.Key != want {
			t.Fatalf("trace %d key %d, want %d", i, tr.Key, want)
		}
		if len(tr.Events) != 2 || tr.Events[0].Stage != "route" || tr.Events[1].Stage != "exec" {
			t.Fatalf("trace %d events %+v", i, tr.Events)
		}
		bd := tr.Breakdown()
		if len(bd) != 2 || bd[1].Offset < bd[0].Offset {
			t.Fatalf("breakdown %+v", bd)
		}
		if tr.End() <= 0 {
			t.Fatalf("End = %v", tr.End())
		}
	}
	// A different seed traces a shifted cohort.
	m2 := New(Options{TraceEvery: 4, TraceSeed: 1})
	for ts := int64(1); ts <= 16; ts++ {
		m2.TraceSample(ts, "s")
	}
	tr2 := m2.Traces()
	if len(tr2) != 4 || tr2[0].Key == traces[0].Key {
		t.Fatalf("seeded cohort not shifted: %+v", tr2)
	}
}

func TestTracerCapEviction(t *testing.T) {
	m := New(Options{TraceEvery: 1, TraceCap: 3})
	for ts := int64(1); ts <= 10; ts++ {
		m.TraceSample(ts, "s")
	}
	traces := m.Traces()
	if len(traces) != 3 {
		t.Fatalf("%d retained, want 3", len(traces))
	}
	if traces[0].Key != 8 || traces[2].Key != 10 {
		t.Fatalf("FIFO eviction kept %d..%d", traces[0].Key, traces[2].Key)
	}
}

// TestTraceMarksInTimeOrder: concurrent marks on one key — a broker
// routing a result while the processor that emitted it marks exec —
// land in the trace in time order.
func TestTraceMarksInTimeOrder(t *testing.T) {
	m := New(Options{TraceEvery: 1})
	m.TraceSample(7, "s")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(s Stage) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.TraceMark(7, s)
			}
		}(StageRoute + Stage(g%2))
	}
	wg.Wait()
	events := m.Traces()[0].Events
	if len(events) != 8*500 {
		t.Fatalf("%d events, want %d", len(events), 8*500)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("event %d (%s) at %d precedes event %d (%s) at %d",
				i, events[i].Stage, events[i].At, i-1, events[i-1].Stage, events[i-1].At)
		}
	}
}

func TestTracerOffIsInert(t *testing.T) {
	m := New(Options{})
	m.TraceSample(1, "s")
	m.TraceMark(1, StageExec)
	if m.TraceOn() || m.Traces() != nil {
		t.Fatal("tracing must be off by default")
	}
	var nilM *Metrics
	nilM.TraceSample(1, "s")
	nilM.TraceMark(1, StageExec)
	if nilM.Traces() != nil || nilM.TraceOn() {
		t.Fatal("nil Metrics must be inert")
	}
}

func TestHandler(t *testing.T) {
	m := New(Options{SampleEvery: 1})
	m.StageEnd(StageIngest, m.StageStart(StageIngest))
	h := Handler(map[string]func() any{
		"stages": func() any { return m.StageSnapshots() },
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	var out map[string][]StageStats
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out["stages"][StageIngest].Count != 1 {
		t.Fatalf("stages JSON: %+v", out["stages"])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/stages", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ingest"`) {
		t.Fatalf("/metrics/stages: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof cmdline: %d", rec.Code)
	}
}
