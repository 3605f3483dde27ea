package load

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
)

// TestScenarioChurn is a WAN sensor fleet under control-plane motion:
// fleet streams over a 48-node seeded overlay with three processors,
// pass-through subscriptions churning (submit/cancel with the
// merge/churn_test.go seed-77 add bias) between bursts of held-rate
// traffic, a new source stream joining a third of the way in, and one
// processor leaving at 60% through the ft checkpoint/failover machinery.
//
// Every control-plane op happens at a quiesced boundary, with the
// pacer's schedule Shift-ed across it so the pause is an announced
// amendment, not hidden lag. The boundaries are not cosmetic: a live
// group-membership change renames the group's versioned result stream
// and the old version stops carrying data the instant the plan is
// replaced (internal/core/processor.go), so an op issued against
// in-flight traffic drops a co-member's tuple — the ledgers caught
// exactly that. Until group handover is hitless (ROADMAP) the test
// drains before each op; the ledgers stay armed across every boundary,
// so a replayed or swallowed tuple still fails it.
func TestScenarioChurn(t *testing.T) {
	const (
		nodes   = 48
		rate    = 2000
		maxSubs = 8
		fleet   = 4
		seed    = 77  // the merge/churn_test.go seed
		addBias = 0.7 // p(submit) per churn op, as in merge/churn_test.go
	)
	ls, err := core.NewLiveSystem(core.Options{
		Nodes:           nodes,
		Seed:            seed,
		ProcessorNodes:  []int{2, 11, 19},
		Placement:       core.RoundRobin,
		ExecWorkers:     2,
		IngestBatch:     1,
		CheckpointEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	sys := ls.System

	// One fleet source: its port and the next sequence number in its own
	// accounting space.
	type source struct {
		schema *stream.Schema
		port   *core.SourcePort
		next   int64
	}
	var sources []*source
	addSource := func(name string, node int) {
		info := ledgerInfo(name, rate/fleet)
		port, err := sys.RegisterStream(info, node)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, &source{schema: info.Schema, port: port})
	}
	for i := 0; i < fleet; i++ {
		addSource(fmt.Sprintf("Fleet%02d", i), (5+7*i)%nodes)
	}

	rng := rand.New(rand.NewSource(seed))
	rec := NewRecorder(time.Now())
	type sub struct {
		handle *core.QueryHandle
		track  *Track
		source *source
	}
	var subs []*sub
	// submit installs one pass-through subscription. The caller settles
	// it behind a quiesced boundary before the next publish, so the
	// track's first due sequence is exactly the source's next one.
	submit := func(src *source) {
		track := rec.NewTrack(1).Expect(src.next)
		h, err := sys.Submit(ledgerQuery(src.schema.Stream), rng.Intn(nodes),
			func(t stream.Tuple) { observe(rec, track, t) })
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, &sub{handle: h, track: track, source: src})
	}
	live := func() []*sub {
		var out []*sub
		for _, s := range subs {
			if !s.track.Closed() {
				out = append(out, s)
			}
		}
		return out
	}

	// Half the budget subscribes up front, settled before traffic.
	for i := 0; i < maxSubs/2; i++ {
		submit(sources[i%len(sources)])
	}
	sys.Quiesce()

	events := smokeEvents(600)
	joinAt, failAt, churnEvery := events/3, events*3/5, events/(maxSubs+1)
	pacer := NewPacer(rate)
	rec.start = pacer.Start()
	for i := 0; i < events; i++ {
		switch {
		case i == joinAt:
			// A new source joins the fleet mid-run; settling it behind a
			// quiesced boundary gives its subscriptions an exact first due
			// sequence of zero.
			addSource("FleetJoin", 23)
			for j := 0; j < 2; j++ {
				submit(sources[len(sources)-1])
			}
			sys.Quiesce()
			pacer.Shift()
		case i == failAt:
			// Processor leave: drain to a quiesced boundary, crash, let the
			// survivor's adoption settle, resume the schedule.
			sys.Quiesce()
			if err := sys.FailProcessor(1); err != nil {
				t.Fatal(err)
			}
			sys.Quiesce()
			pacer.Shift()
		case i > 0 && i%churnEvery == 0:
			// Membership op at a drained boundary: the pre-op quiesce
			// flushes in-flight results of the group about to be
			// re-versioned, the post-op quiesce settles the replacement
			// advertisement and subscriptions before traffic resumes.
			sys.Quiesce()
			if alive := live(); (rng.Float64() < addBias && len(alive) < maxSubs) || len(alive) <= 1 {
				submit(sources[rng.Intn(len(sources))])
			} else {
				victim := alive[rng.Intn(len(alive))]
				victim.track.Close()
				if err := sys.Cancel(victim.handle); err != nil {
					t.Fatalf("cancel: %v", err)
				}
			}
			sys.Quiesce()
			pacer.Shift()
		}
		intended := pacer.Tick()
		src := sources[i%len(sources)]
		if err := src.port.Publish(ledgerTuple(src.schema, src.next, intended, pacer)); err != nil {
			t.Fatalf("publish %s: %v", src.schema.Stream, err)
		}
		src.next++
	}

	// Quiesce settles deliveries end to end; the poll is a cheap
	// safeguard with the drain deadline as backstop.
	sys.Quiesce()
	waitUntil(func() bool {
		for _, s := range live() {
			if !s.track.Settled(s.source.next - 1) {
				return false
			}
		}
		return true
	})
	for _, s := range subs {
		if final := s.source.next - 1; final >= 0 {
			s.track.AddTailLoss(final)
		}
	}
	checkLedger(t, rec, pacer)
	// The join, the failover and each membership op are announced.
	if pacer.Shifts() < 3 {
		t.Fatalf("%d schedule shifts; the join, failover and churn ops must all be announced", pacer.Shifts())
	}
}
