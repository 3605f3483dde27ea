package cbn

import (
	"fmt"
	"math/rand"
	"testing"

	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
)

func TestPruneStreamRemovesState(t *testing.T) {
	net := lineNet(3)
	src := net.AttachClient(0)
	sub := net.AttachClient(2)
	delivered := 0
	sub.OnTuple = func(stream.Tuple) { delivered++ }
	src.Advertise("Sensor1")
	sub.Subscribe(tempProfile(10, nil))
	src.Publish(sensorTuple(1, 1, 20, 0))
	if delivered != 1 {
		t.Fatalf("pre-prune delivery = %d", delivered)
	}

	net.PruneStream("Sensor1")

	// No broker may route or know the stream anymore.
	for i := 0; i < net.NumNodes(); i++ {
		if net.Broker(i).KnowsSource("Sensor1") {
			t.Errorf("broker %d still has a route", i)
		}
	}
	src.Publish(sensorTuple(2, 1, 20, 0))
	if delivered != 1 {
		t.Errorf("delivery after prune = %d", delivered)
	}
}

func TestPruneStreamKeepsOtherStreams(t *testing.T) {
	// A profile spanning two streams must keep the surviving stream's
	// interest after the other is pruned.
	b := NewBroker(0)
	b.AttachIface(0)
	b.AttachIface(1)
	b.HandleAdvertise("A", 0)
	b.HandleAdvertise("B", 0)
	p := profile.New()
	p.AddStream("A", nil, nil)
	p.AddStream("B", nil, predicate.DNF{
		{predicate.C("x", predicate.GT, stream.Int(5))},
	})
	b.HandleSubscribe(p, 1)
	b.PruneStream("A")

	schemaB := stream.MustSchema("B", stream.Field{Name: "x", Kind: stream.KindInt})
	d, err := b.RouteTuple(stream.MustTuple(schemaB, 1, stream.Int(9)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Errorf("B interest lost after pruning A: %d deliveries", len(d))
	}
	schemaA := stream.MustSchema("A", stream.Field{Name: "y", Kind: stream.KindInt})
	d, _ = b.RouteTuple(stream.MustTuple(schemaA, 1, stream.Int(1)), 0)
	if len(d) != 0 {
		t.Errorf("pruned stream still routed: %d", len(d))
	}
}

// TestGroupChurnDoesNotAccumulateBrokerState drives repeated group
// version bumps through a broker and checks its subscription tables stay
// bounded — the purpose of result-stream pruning.
func TestGroupChurnDoesNotAccumulateBrokerState(t *testing.T) {
	b := NewBroker(0)
	b.AttachIface(0) // toward processor
	b.AttachIface(1) // toward user
	for v := 0; v < 100; v++ {
		name := streamName(v)
		b.HandleAdvertise(name, 0)
		p := profile.New()
		p.AddStream(name, nil, nil)
		b.HandleSubscribe(p, 1)
		if v > 0 {
			b.PruneStream(streamName(v - 1))
		}
	}
	// Only the latest version's state may remain.
	b.mu.Lock()
	subs := len(b.subs[1])
	adverts := len(b.adverts)
	b.mu.Unlock()
	if subs != 1 {
		t.Errorf("subscriptions accumulated: %d", subs)
	}
	if adverts != 1 {
		t.Errorf("adverts accumulated: %d", adverts)
	}
}

func streamName(v int) string {
	return "res-v" + string(rune('A'+v%26)) + string(rune('a'+(v/26)%26))
}

// TestPruneMatchesRebuiltBroker is the property behind PruneStream's
// aggregate trim: after any sequence of subscribes, unsubscribes and
// prunes, the broker routes every tuple exactly as a fresh broker that
// received only the surviving subscriptions does.
func TestPruneMatchesRebuiltBroker(t *testing.T) {
	const streams, ifaces = 3, 5
	attrs := []string{"station", "temperature", "humidity", "solar", "wind"}
	randProfile := func(rng *rand.Rand) *profile.Profile {
		p := profile.New()
		for s := 0; s < streams; s++ {
			if rng.Intn(2) == 0 && !(s == streams-1 && len(p.Streams) == 0) {
				continue
			}
			var proj []string
			if rng.Intn(3) > 0 {
				for _, a := range attrs {
					if rng.Intn(2) == 0 {
						proj = append(proj, a)
					}
				}
			}
			var f predicate.DNF
			for d := rng.Intn(3); d > 0; d-- {
				op := predicate.GT
				if rng.Intn(2) == 0 {
					op = predicate.LT
				}
				attr := attrs[1+rng.Intn(2)]
				f = append(f, predicate.Conj{predicate.C(attr, op, stream.Float(float64(5+rng.Intn(30))))})
			}
			p.AddStream(sensordata.StreamName(s), proj, f)
		}
		return p
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroker(0)
		for i := 0; i < ifaces; i++ {
			b.AttachIface(IfaceID(i))
		}
		// live mirrors what the broker should still hold, per interface.
		live := make([][]*profile.Profile, ifaces)
		for op := 0; op < 60; op++ {
			iface := rng.Intn(ifaces)
			switch r := rng.Intn(10); {
			case r < 6:
				p := randProfile(rng)
				b.HandleSubscribe(p, IfaceID(iface))
				live[iface] = append(live[iface], p)
			case r < 8:
				if len(live[iface]) == 0 {
					continue
				}
				gone := normalize(live[iface][rng.Intn(len(live[iface]))])
				b.Unsubscribe(gone, IfaceID(iface))
				kept := live[iface][:0]
				for _, p := range live[iface] {
					if !normalize(p).Equal(gone) {
						kept = append(kept, p)
					}
				}
				live[iface] = kept
			default:
				name := sensordata.StreamName(rng.Intn(streams))
				b.PruneStream(name)
				for i, ps := range live {
					var kept []*profile.Profile
					for _, p := range ps {
						p = p.Clone()
						if !p.RemoveStream(name) {
							kept = append(kept, p)
						}
					}
					live[i] = kept
				}
			}
			rebuilt := NewBroker(0)
			for i := 0; i < ifaces; i++ {
				rebuilt.AttachIface(IfaceID(i))
			}
			for i, ps := range live {
				for _, p := range ps {
					rebuilt.HandleSubscribe(p, IfaceID(i))
				}
			}
			for s := 0; s < streams; s++ {
				for _, tp := range sensordata.NewGenerator(s, seed).Take(8) {
					from := IfaceID(rng.Intn(ifaces))
					got, gerr := b.RouteTuple(tp, from)
					want, werr := rebuilt.RouteTuple(tp, from)
					if gerr != nil || werr != nil {
						t.Fatalf("seed %d op %d: route errors %v / %v", seed, op, gerr, werr)
					}
					sameDeliveries(t, got, want, fmt.Sprintf("seed %d op %d stream %d", seed, op, s))
				}
			}
		}
	}
}
