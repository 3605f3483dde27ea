package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cosmos/internal/cql"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
)

// entries renders the published dispatch table as stream → plan IDs in
// dispatch order, plus each shard's worker index and plan IDs.
func entries(r *Runtime) map[string]string {
	out := map[string]string{}
	for name, e := range r.table.Load().streams {
		var ids []string
		for _, s := range e.slots {
			ids = append(ids, s.id)
		}
		line := fmt.Sprint(ids)
		for _, sh := range e.shards {
			var sids []string
			for _, s := range sh.slots {
				sids = append(sids, s.id)
			}
			line += fmt.Sprintf(" w%d%v", sh.w.idx, sids)
		}
		out[name] = line
	}
	return out
}

// rebuilt derives the dispatch table anew from the slot registry, the
// way a full rebuild would: per stream, every slot reading it in
// plan-ID order, partitioned by worker in worker order.
func rebuilt(r *Runtime) map[string]string {
	ids := make([]string, 0, len(r.slots))
	for id := range r.slots {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	byStream := map[string][]*planSlot{}
	for _, id := range ids {
		s := r.slots[id]
		for _, name := range s.inputs {
			byStream[name] = append(byStream[name], s)
		}
	}
	out := map[string]string{}
	for name, slots := range byStream {
		var all []string
		for _, s := range slots {
			all = append(all, s.id)
		}
		line := fmt.Sprint(all)
		for _, w := range r.workers {
			var sids []string
			for _, s := range slots {
				if s.w == w {
					sids = append(sids, s.id)
				}
			}
			if len(sids) > 0 {
				line += fmt.Sprintf(" w%d%v", w.idx, sids)
			}
		}
		out[name] = line
	}
	return out
}

// TestDispatchUpdatesMatchRebuild: after every Install and Remove of a
// random sequence — new IDs, replacements reading other streams, joins
// reading two — the incrementally updated table equals one rebuilt from
// every slot, in both modes.
func TestDispatchUpdatesMatchRebuild(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	var bounds []*cql.Bound
	for st := 0; st < 4; st++ {
		for _, q := range []string{
			"SELECT station FROM %s [Now]",
			"SELECT A.station FROM %s [Now] A, Sensor05 [Range 1 Minute] B WHERE A.station = B.station",
		} {
			b, err := cql.AnalyzeString(fmt.Sprintf(q, sensordata.StreamName(st)), reg)
			if err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, b)
		}
	}
	for _, workers := range []int{0, 3} {
		rt := New(Config{Workers: workers})
		r := rand.New(rand.NewSource(int64(7 + workers)))
		for step := 0; step < 400; step++ {
			id := fmt.Sprintf("p%02d", r.Intn(12))
			if r.Intn(3) == 0 {
				rt.Remove(id)
			} else if _, err := rt.Install(id, bounds[r.Intn(len(bounds))], "res-"+id); err != nil {
				t.Fatal(err)
			}
			rt.mu.RLock()
			got, want := entries(rt), rebuilt(rt)
			rt.mu.RUnlock()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("workers=%d step %d: table\n %v\nwant\n %v", workers, step, got, want)
			}
		}
		rt.Close()
	}
}

// TestDeadSlotRemoveAndReinstall: a plan that died by panic keeps its
// dispatch entries, which push skips, until its Remove clears them
// though the slot has no plan left; installing the ID again dispatches
// to the new plan.
func TestDeadSlotRemoveAndReinstall(t *testing.T) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	bound, err := cql.AnalyzeString("SELECT station FROM Sensor00 [Now]", reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		var mu sync.Mutex
		counts := map[string]int{}
		rt := New(Config{
			Workers: workers,
			Emit: func(tp stream.Tuple) {
				mu.Lock()
				counts[tp.Schema.Stream]++
				mu.Unlock()
			},
		})
		if _, err := rt.Install("victim", bound, "resV"); err != nil {
			t.Fatal(err)
		}
		gen := sensordata.NewGenerator(0, 9)
		rt.InjectPanic("victim")
		rt.Consume(gen.Next())
		rt.Barrier()
		if _, alive := rt.Plan("victim"); alive {
			t.Fatalf("workers=%d: victim survived its injected panic", workers)
		}
		rt.Remove("victim")
		rt.mu.RLock()
		left, slots := rt.table.Load().streams, len(rt.slots)
		rt.mu.RUnlock()
		if len(left) != 0 || slots != 0 {
			t.Fatalf("workers=%d: after the dead plan's Remove the table holds %v and %d slots, want none", workers, left, slots)
		}

		if _, err := rt.Install("victim", bound, "resV2"); err != nil {
			t.Fatal(err)
		}
		// Dying again and being replaced in place, without a Remove, also
		// revives the slot under the same entries.
		rt.InjectPanic("victim")
		rt.Consume(gen.Next())
		rt.Barrier()
		if _, err := rt.Install("victim", bound, "resV3"); err != nil {
			t.Fatal(err)
		}
		for range 3 {
			rt.Consume(gen.Next())
		}
		rt.Barrier()
		mu.Lock()
		if counts["resV"] != 0 || counts["resV2"] != 0 || counts["resV3"] != 3 {
			t.Errorf("workers=%d: emitted %v, want only resV3: 3", workers, counts)
		}
		mu.Unlock()
		rt.mu.RLock()
		if got, want := fmt.Sprint(entries(rt)), fmt.Sprint(rebuilt(rt)); got != want {
			t.Errorf("workers=%d: revived table %v, want %v", workers, got, want)
		}
		rt.mu.RUnlock()
		rt.Close()
	}
}
