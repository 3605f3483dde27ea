package cbn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cosmos/internal/overlay"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
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

	src.Unadvertise("Sensor1")

	// No broker may route, know or want the stream anymore.
	for i := 0; i < net.NumNodes(); i++ {
		if net.Broker(i).KnowsSource("Sensor1") {
			t.Errorf("broker %d still has a route", i)
		}
		if d := net.Broker(i).DemandIfaces(); len(d) != 0 {
			t.Errorf("broker %d: interfaces %v still hold demand", i, d)
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
	b.HandleAdvertise("A", 0)
	b.HandleAdvertise("B", 0)
	p := profile.New()
	p.AddStream("A", nil, nil)
	p.AddStream("B", nil, predicate.DNF{
		{predicate.C("x", predicate.GT, stream.Int(5))},
	})
	b.HandleDemand(p, 1)
	b.pruneStream("A")

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
// version bumps through a broker and checks its demand and advert tables
// stay bounded — the purpose of a result stream's unadvertisement.
func TestGroupChurnDoesNotAccumulateBrokerState(t *testing.T) {
	b := NewBroker(0)
	for v := 0; v < 100; v++ {
		name := streamName(v)
		b.HandleAdvertise(name, 0)
		p := profile.New()
		p.AddStream(name, nil, nil)
		addDemand(b, p, 1)
		if v > 0 {
			b.pruneStream(streamName(v - 1))
		}
	}
	// Only the latest version's state may remain.
	b.mu.Lock()
	_, d := b.demandOf(1)
	streams := len(d.Streams)
	sent := len(b.sent[0].Streams)
	adverts := len(b.adverts)
	b.mu.Unlock()
	if streams != 1 || sent != 1 {
		t.Errorf("demand accumulated: %d streams wanted, %d forwarded", streams, sent)
	}
	if adverts != 1 {
		t.Errorf("adverts accumulated: %d", adverts)
	}
}

func streamName(v int) string {
	return "res-v" + string(rune('A'+v%26)) + string(rune('a'+(v/26)%26))
}

// propStreams is how many sensordata streams randProfile draws from.
const propStreams = 3

// randProfile draws a profile over the first propStreams sensordata
// streams: random projections and DNF filters on two attributes.
func randProfile(rng *rand.Rand) *profile.Profile {
	attrs := []string{"station", "temperature", "humidity", "solar", "wind"}
	p := profile.New()
	for s := 0; s < propStreams; s++ {
		if rng.Intn(2) == 0 && !(s == propStreams-1 && len(p.Streams) == 0) {
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

// TestPruneMatchesRebuiltBroker is the property behind the per-interface
// demand state and an unadvertisement's trim: after any sequence of
// additive subscribes, narrowing HandleDemand calls, one-stream
// withdrawals, Close-style withdrawals and unadvertisements, the broker
// routes every tuple exactly as a fresh broker that received only the
// surviving demand does.
func TestPruneMatchesRebuiltBroker(t *testing.T) {
	const ifaces = 5
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroker(0)
		// live mirrors what the broker should still hold, per interface:
		// the profiles its demand is the union of.
		live := make([][]*profile.Profile, ifaces)
		// drop removes a stream from the mirror of the given interfaces.
		drop := func(name string, of ...int) {
			for _, i := range of {
				var kept []*profile.Profile
				for _, p := range live[i] {
					p = p.Clone()
					if !p.RemoveStream(name) {
						kept = append(kept, p)
					}
				}
				live[i] = kept
			}
		}
		for op := 0; op < 60; op++ {
			iface := rng.Intn(ifaces)
			name := sensordata.StreamName(rng.Intn(propStreams))
			switch r := rng.Intn(10); {
			case r < 5:
				p := randProfile(rng)
				addDemand(b, p, IfaceID(iface))
				live[iface] = append(live[iface], p)
			case r < 7:
				// Narrow the interface's demand to one of its profiles.
				if len(live[iface]) == 0 {
					continue
				}
				p := live[iface][rng.Intn(len(live[iface]))]
				b.HandleDemand(p, IfaceID(iface))
				live[iface] = []*profile.Profile{p}
			case r < 8:
				b.HandleDemand(nil, IfaceID(iface), name)
				drop(name, iface)
			case r < 9:
				b.HandleDemand(nil, IfaceID(iface)) // what Close sends
				live[iface] = nil
			default:
				b.pruneStream(name)
				drop(name, 0, 1, 2, 3, 4)
			}
			rebuilt := NewBroker(0)
			for i, ps := range live {
				for _, p := range ps {
					addDemand(rebuilt, p, IfaceID(i))
				}
			}
			for s := 0; s < propStreams; s++ {
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

// TestDemandPropagationMatchesRebuiltNet is the property behind demand
// propagation: over a random tree, after any sequence of additive
// Subscribe, narrowing SetDemand and Close calls, publishing moves
// exactly the link bytes and deliveries of a fresh network that received
// only the surviving demand. Narrowing and withdrawals therefore reach
// every broker on the way to the sources.
func TestDemandPropagationMatchesRebuiltNet(t *testing.T) {
	const subs = 4
	g, err := topology.GeneratePowerLaw(12, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := overlay.MST(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srcNodes, subNodes := rng.Perm(12)[:propStreams], rng.Perm(12)[:subs]
		// attach builds a network with the sources advertised and one
		// client per subscriber node, whose deliveries land in got.
		attach := func(got [][]string) (*SimNet, []*SimClient, []*SimClient) {
			net := NewSimNetFromTree(tree)
			var srcs, clients []*SimClient
			for s, node := range srcNodes {
				c := net.AttachClient(node)
				c.Advertise(sensordata.StreamName(s))
				srcs = append(srcs, c)
			}
			for i, node := range subNodes {
				c := net.AttachClient(node)
				c.OnTuple = func(tp stream.Tuple) { got[i] = append(got[i], tp.String()) }
				clients = append(clients, c)
			}
			return net, srcs, clients
		}
		publish := func(net *SimNet, srcs []*SimClient, op int) int64 {
			before := net.TotalDataBytes()
			for s, c := range srcs {
				for _, tp := range sensordata.NewGenerator(s, seed+int64(op)).Take(6) {
					if err := c.Publish(tp); err != nil {
						t.Fatal(err)
					}
				}
			}
			return net.TotalDataBytes() - before
		}
		got := make([][]string, subs)
		net, srcs, clients := attach(got)
		// live mirrors each subscriber's surviving demand.
		live := make([][]*profile.Profile, subs)
		for op := 0; op < 30; op++ {
			i := rng.Intn(subs)
			switch r := rng.Intn(10); {
			case r < 5:
				p := randProfile(rng)
				clients[i].Subscribe(p)
				live[i] = append(live[i], p)
			case r < 8:
				if len(live[i]) == 0 {
					continue
				}
				p := live[i][rng.Intn(len(live[i]))]
				clients[i].SetDemand(p)
				live[i] = []*profile.Profile{p}
			default:
				clients[i].Close()
				clients[i] = net.AttachClient(subNodes[i])
				clients[i].OnTuple = func(tp stream.Tuple) { got[i] = append(got[i], tp.String()) }
				live[i] = nil
			}
			want := make([][]string, subs)
			ref, refSrcs, refClients := attach(want)
			for j, ps := range live {
				for _, p := range ps {
					refClients[j].Subscribe(p)
				}
			}
			for j := range got {
				got[j] = got[j][:0]
			}
			if gb, wb := publish(net, srcs, op), publish(ref, refSrcs, op); gb != wb {
				t.Fatalf("seed %d op %d: %d link data bytes, a rebuilt network moves %d", seed, op, gb, wb)
			}
			for j := range got {
				if !slices.Equal(got[j], want[j]) {
					t.Fatalf("seed %d op %d subscriber %d: got %v, want %v", seed, op, j, got[j], want[j])
				}
			}
		}
	}
}
