package cbn

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cosmos/internal/overlay"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

var sensorSchema = stream.MustSchema("Sensor1",
	stream.Field{Name: "station", Kind: stream.KindInt},
	stream.Field{Name: "temp", Kind: stream.KindFloat},
	stream.Field{Name: "humidity", Kind: stream.KindFloat},
)

func sensorTuple(ts stream.Timestamp, station int64, temp, hum float64) stream.Tuple {
	return stream.MustTuple(sensorSchema, ts,
		stream.Int(station), stream.Float(temp), stream.Float(hum))
}

func tempProfile(minTemp float64, attrs []string) *profile.Profile {
	p := profile.New()
	p.AddStream("Sensor1", attrs, predicate.DNF{
		{predicate.C("temp", predicate.GT, stream.Float(minTemp))},
	})
	return p
}

// lineNet builds brokers 0—1—2—…—(n-1).
// addDemand adds p to the demand arriving on iface, as a client's
// Subscribe does: HandleDemand of the interface's demand ∪ p.
func addDemand(b *Broker, p *profile.Profile, iface IfaceID) []Forward {
	next := b.DemandOn(iface)
	if next == nil {
		next = profile.New()
	}
	next.Merge(p)
	return b.HandleDemand(next, iface)
}

func lineNet(n int) *SimNet {
	net := NewSimNet(n)
	for i := 0; i+1 < n; i++ {
		net.AddLink(i, i+1, 10)
	}
	return net
}

func TestSimNetDeliveryAndFiltering(t *testing.T) {
	net := lineNet(3)
	src := net.AttachClient(0)
	var got []stream.Tuple
	subscriber := net.AttachClient(2)
	subscriber.OnTuple = func(tp stream.Tuple) { got = append(got, tp) }

	src.Advertise("Sensor1")
	subscriber.Subscribe(tempProfile(20, nil))

	if err := src.Publish(sensorTuple(1, 7, 25, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := src.Publish(sensorTuple(2, 7, 15, 0.5)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if got[0].MustGet("temp").AsFloat() != 25 {
		t.Errorf("wrong tuple delivered: %v", got[0])
	}
	// The cold tuple must not have crossed any link.
	stats := net.Stats()
	for _, ls := range stats {
		if ls.DataMsgs != 1 {
			t.Errorf("link %d-%d carried %d data msgs, want 1", ls.A, ls.B, ls.DataMsgs)
		}
	}
}

func TestSimNetEarlyProjection(t *testing.T) {
	full := lineNet(3)
	src := full.AttachClient(0)
	sub := full.AttachClient(2)
	sub.OnTuple = func(stream.Tuple) {}
	src.Advertise("Sensor1")
	sub.Subscribe(tempProfile(-100, nil)) // all attrs
	src.Publish(sensorTuple(1, 7, 25, 0.5))
	fullBytes := full.TotalDataBytes()

	proj := lineNet(3)
	src2 := proj.AttachClient(0)
	var got stream.Tuple
	sub2 := proj.AttachClient(2)
	sub2.OnTuple = func(tp stream.Tuple) { got = tp }
	src2.Advertise("Sensor1")
	sub2.Subscribe(tempProfile(-100, []string{"temp"}))
	src2.Publish(sensorTuple(1, 7, 25, 0.5))
	projBytes := proj.TotalDataBytes()

	if projBytes >= fullBytes {
		t.Errorf("early projection did not save bytes: %d vs %d", projBytes, fullBytes)
	}
	if got.Schema.Arity() != 1 || !got.Schema.Has("temp") {
		t.Errorf("delivered tuple not projected: %v", got)
	}
}

func TestSimNetSharedLinkMulticast(t *testing.T) {
	// Topology: 0 — 1, with two subscribers hanging off node 1 via a
	// further hop each: 1—2 and 1—3. Identical interests must traverse
	// the shared 0—1 link ONCE.
	net := NewSimNet(4)
	net.AddLink(0, 1, 10)
	net.AddLink(1, 2, 10)
	net.AddLink(1, 3, 10)
	src := net.AttachClient(0)
	n2 := net.AttachClient(2)
	n3 := net.AttachClient(3)
	count2, count3 := 0, 0
	n2.OnTuple = func(stream.Tuple) { count2++ }
	n3.OnTuple = func(stream.Tuple) { count3++ }
	src.Advertise("Sensor1")
	n2.Subscribe(tempProfile(20, nil))
	n3.Subscribe(tempProfile(20, nil))
	src.Publish(sensorTuple(1, 7, 25, 0.5))
	if count2 != 1 || count3 != 1 {
		t.Fatalf("deliveries = %d, %d", count2, count3)
	}
	for _, ls := range net.Stats() {
		if ls.DataMsgs != 1 {
			t.Errorf("link %d-%d carried %d data msgs, want 1 (shared dissemination)",
				ls.A, ls.B, ls.DataMsgs)
		}
	}
}

func TestSimNetProjectionIsUnionOfDownstreamNeeds(t *testing.T) {
	// Subscriber A wants temp only, subscriber B wants humidity only;
	// the shared link must carry the union {temp, humidity}, and each
	// final hop only the requested attribute.
	net := NewSimNet(4)
	net.AddLink(0, 1, 10)
	net.AddLink(1, 2, 10)
	net.AddLink(1, 3, 10)
	src := net.AttachClient(0)
	a := net.AttachClient(2)
	b := net.AttachClient(3)
	var gotA, gotB stream.Tuple
	a.OnTuple = func(tp stream.Tuple) { gotA = tp }
	b.OnTuple = func(tp stream.Tuple) { gotB = tp }
	src.Advertise("Sensor1")
	// Filterless profiles: projection sets stay exactly as requested
	// (with filters, the network would widen them to keep filter attrs).
	pa := profile.New()
	pa.AddStream("Sensor1", []string{"temp"}, nil)
	pb := profile.New()
	pb.AddStream("Sensor1", []string{"humidity"}, nil)
	a.Subscribe(pa)
	b.Subscribe(pb)
	src.Publish(sensorTuple(1, 7, 25, 0.5))

	if !gotA.Schema.Has("temp") || gotA.Schema.Has("humidity") {
		t.Errorf("A received %v", gotA)
	}
	if !gotB.Schema.Has("humidity") || gotB.Schema.Has("temp") {
		t.Errorf("B received %v", gotB)
	}
	// The shared 0—1 link carried the union of needs: verify by byte
	// accounting — union (2 floats) is larger than each final hop (1).
	var shared, hopA *LinkStats
	for _, ls := range net.Stats() {
		switch {
		case ls.A == 0 && ls.B == 1:
			shared = ls
		case ls.A == 1 && ls.B == 2:
			hopA = ls
		}
	}
	if shared == nil || hopA == nil {
		t.Fatal("missing link stats")
	}
	if shared.DataBytes <= hopA.DataBytes {
		t.Errorf("shared link should carry the attr union: %d vs %d",
			shared.DataBytes, hopA.DataBytes)
	}
}

func TestBrokerCoveringSuppression(t *testing.T) {
	// Two subscriptions where the second is covered by the first must
	// not propagate twice.
	net := lineNet(3)
	src := net.AttachClient(0)
	sub := net.AttachClient(2)
	sub.OnTuple = func(stream.Tuple) {}
	src.Advertise("Sensor1")
	sub.Subscribe(tempProfile(10, nil))
	ctrlAfterFirst := totalCtrlMsgs(net)
	sub.Subscribe(tempProfile(20, nil)) // covered: temp>20 implies temp>10
	ctrlAfterSecond := totalCtrlMsgs(net)
	if ctrlAfterSecond != ctrlAfterFirst {
		t.Errorf("covered subscription propagated: %d -> %d control msgs",
			ctrlAfterFirst, ctrlAfterSecond)
	}
	// A widening subscription must propagate.
	sub.Subscribe(tempProfile(0, nil))
	if totalCtrlMsgs(net) == ctrlAfterSecond {
		t.Error("widening subscription suppressed")
	}
}

func totalCtrlMsgs(net *SimNet) int64 {
	var total int64
	for _, ls := range net.Stats() {
		total += ls.CtrlMsgs
	}
	return total
}

func TestSubscribeBeforeAdvertise(t *testing.T) {
	// A subscription issued before the source advertises must still take
	// effect once the advert arrives.
	net := lineNet(3)
	src := net.AttachClient(0)
	var got []stream.Tuple
	sub := net.AttachClient(2)
	sub.OnTuple = func(tp stream.Tuple) { got = append(got, tp) }

	sub.Subscribe(tempProfile(20, nil))
	src.Advertise("Sensor1")
	src.Publish(sensorTuple(1, 7, 25, 0.5))
	if len(got) != 1 {
		t.Fatalf("late advert: deliveries = %d, want 1", len(got))
	}
}

func TestNormalizeKeepsFilterAttrs(t *testing.T) {
	// A profile projecting only station but filtering on temp must keep
	// temp across intermediate hops so the filter stays evaluable.
	net := lineNet(4)
	src := net.AttachClient(0)
	var got stream.Tuple
	sub := net.AttachClient(3)
	sub.OnTuple = func(tp stream.Tuple) { got = tp }
	src.Advertise("Sensor1")
	sub.Subscribe(tempProfile(20, []string{"station"}))
	src.Publish(sensorTuple(1, 9, 25, 0.5))
	if got.Schema == nil {
		t.Fatal("no delivery")
	}
	// Delivered tuple carries station (+ temp, since the network widens
	// the projection with filter attributes).
	if !got.Schema.Has("station") {
		t.Errorf("delivered = %v", got)
	}
	src.Publish(sensorTuple(2, 9, 5, 0.5))
	if got.Ts != 1 {
		t.Error("cold tuple should have been filtered at the first hop")
	}
}

func TestRouteTupleErrorOnBadFilter(t *testing.T) {
	b := NewBroker(0)
	bad := profile.New()
	bad.AddStream("Sensor1", nil, predicate.DNF{
		{predicate.C("no_such_attr", predicate.GT, stream.Float(0))},
	})
	b.HandleDemand(bad, 1)
	if _, err := b.RouteTuple(sensorTuple(1, 1, 1, 1), 0); err == nil {
		t.Error("filter referencing a missing attribute should error")
	}
}

// TestWithdrawnDemandStopsDelivery: a narrowed demand reaches the
// source's broker, and a closed client's demand is withdrawn at every
// broker, so nothing it no longer wants crosses a link.
func TestWithdrawnDemandStopsDelivery(t *testing.T) {
	net := lineNet(3)
	src := net.AttachClient(0)
	sub := net.AttachClient(2)
	delivered := 0
	sub.OnTuple = func(stream.Tuple) { delivered++ }
	src.Advertise("Sensor1")
	sub.SetDemand(tempProfile(10, nil))
	sub.SetDemand(tempProfile(20, nil)) // narrows: replaces temp > 10
	toward := func() *profile.Profile {
		return net.Broker(0).DemandOn(0) // the link toward the subscriber
	}
	if got := toward(); got == nil || got.String() != tempProfile(20, nil).String() {
		t.Fatalf("source broker's demand = %v, want temp > 20", got)
	}
	src.Publish(sensorTuple(1, 1, 15, 0))
	if delivered != 0 || net.TotalDataBytes() != 0 {
		t.Fatalf("narrowed demand still pulled temp 15: %d deliveries, %d link bytes", delivered, net.TotalDataBytes())
	}
	src.Publish(sensorTuple(2, 1, 25, 0))
	if delivered != 1 {
		t.Fatalf("deliveries = %d, want 1", delivered)
	}
	bytes := net.TotalDataBytes()
	sub.Close()
	for i := 0; i < net.NumNodes(); i++ {
		for _, iface := range net.Broker(i).DemandIfaces() {
			if d := net.Broker(i).DemandOn(iface); d != nil {
				t.Errorf("broker %d iface %d still wants %v after Close", i, iface, d)
			}
		}
	}
	src.Publish(sensorTuple(3, 1, 25, 0))
	if delivered != 1 || net.TotalDataBytes() != bytes {
		t.Errorf("after Close: %d deliveries, link bytes %d -> %d", delivered, bytes, net.TotalDataBytes())
	}
}

// TestSimNetCompletenessProperty: over a random tree, a subscriber
// receives exactly the tuples its profile covers.
func TestSimNetCompletenessProperty(t *testing.T) {
	g, err := topology.GeneratePowerLaw(30, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := overlay.MST(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		net := NewSimNetFromTree(tree)
		src := net.AttachClient(r.Intn(30))
		subNode := r.Intn(30)
		threshold := -10 + 40*r.Float64()
		var got []stream.Tuple
		sub := net.AttachClient(subNode)
		sub.OnTuple = func(tp stream.Tuple) { got = append(got, tp) }
		src.Advertise("Sensor1")
		sub.Subscribe(tempProfile(threshold, nil))

		var want int
		for i := 0; i < 50; i++ {
			temp := -20 + 60*r.Float64()
			if err := src.Publish(sensorTuple(stream.Timestamp(i), int64(i%7), temp, 0)); err != nil {
				t.Fatal(err)
			}
			if temp > threshold {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: got %d deliveries, want %d", trial, len(got), want)
		}
	}
}

func TestLiveNetEndToEnd(t *testing.T) {
	net := NewLiveNet(3)
	if err := net.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	src, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := net.AttachClient(2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []stream.Tuple
	sub.SetOnTuple(func(tp stream.Tuple) {
		mu.Lock()
		got = append(got, tp)
		mu.Unlock()
	})
	net.Start()
	defer net.Stop()

	src.Advertise("Sensor1")
	net.Quiesce()
	sub.Subscribe(tempProfile(20, nil))
	net.Quiesce()
	for i := 0; i < 10; i++ {
		src.Publish(sensorTuple(stream.Timestamp(i), 1, float64(10+2*i), 0))
	}
	net.Quiesce()

	mu.Lock()
	defer mu.Unlock()
	// temps 10,12,…,28: those > 20 are 22,24,26,28 → 4 deliveries.
	if len(got) != 4 {
		t.Fatalf("live deliveries = %d, want 4", len(got))
	}
	if net.TotalDataBytes() == 0 {
		t.Error("no data bytes accounted")
	}
}

func TestLiveNetConfigAfterStart(t *testing.T) {
	net := NewLiveNet(2)
	if err := net.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	net.Start()
	defer net.Stop()
	if err := net.AddLink(0, 1); err == nil {
		t.Error("AddLink after Start must fail")
	}
	// Clients, by contrast, attach at any time: LiveSystem attaches one
	// per source, processor and query proxy as they appear.
	src, err := net.AttachClient(0)
	if err != nil {
		t.Fatalf("AttachClient after Start: %v", err)
	}
	sub, err := net.AttachClient(1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delivered := 0
	sub.SetOnTuple(func(stream.Tuple) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	src.Advertise("Sensor1")
	net.Quiesce()
	sub.Subscribe(tempProfile(0, nil))
	net.Quiesce()
	for i := 0; i < 5; i++ {
		if err := src.Publish(sensorTuple(stream.Timestamp(i), 1, 30, 0)); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if delivered != 5 {
		t.Fatalf("post-start clients delivered %d tuples, want 5", delivered)
	}
}

func TestLiveClientClose(t *testing.T) {
	net := NewLiveNet(2)
	if err := net.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	net.Start()
	defer net.Stop()
	src, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := net.AttachClient(1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delivered := 0
	sub.SetOnTuple(func(stream.Tuple) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	src.Advertise("Sensor1")
	net.Quiesce()
	sub.Subscribe(tempProfile(0, nil))
	net.Quiesce()
	if err := src.Publish(sensorTuple(1, 1, 30, 0)); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	mu.Lock()
	before := delivered
	mu.Unlock()
	if before != 1 {
		t.Fatalf("pre-close deliveries = %d, want 1", before)
	}
	sub.Close()
	sub.Close() // idempotent
	// The detached endpoint no longer receives; Quiesce still settles.
	if err := src.Publish(sensorTuple(2, 1, 30, 0)); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if delivered != before {
		t.Fatalf("closed client received %d more deliveries", delivered-before)
	}
}

func TestAdvertiseDuplicateSuppressed(t *testing.T) {
	net := lineNet(3)
	src := net.AttachClient(0)
	src.Advertise("Sensor1")
	base := totalCtrlMsgs(net)
	src.Advertise("Sensor1") // duplicate flood must be suppressed
	if totalCtrlMsgs(net) != base {
		t.Error("duplicate advertisement flooded again")
	}
}

// TestSetDemandKeepsNoCallerProfile: a broker keeps copies of the parts
// of a demand it is handed, never the caller's profile, whether the
// profile is normalized as it stands or must widen: mutating the
// profile after SetDemand changes neither the demand the broker holds
// nor what it forwarded.
func TestSetDemandKeepsNoCallerProfile(t *testing.T) {
	for _, attrs := range [][]string{{"station", "temp"}, {"station"}, nil} {
		net := lineNet(3)
		src := net.AttachClient(0)
		sub := net.AttachClient(2)
		src.Advertise("Sensor1")
		p := tempProfile(20, attrs)
		sub.SetDemand(p)
		held := netDemand(net)

		p.AddStream("Sensor1", []string{"humidity"}, predicate.DNF{{predicate.C("humidity", predicate.LT, stream.Float(1))}})
		p.Merge(tempProfile(-5, []string{"temp"}))
		p.AddStream("Sensor2", nil, nil)
		if a := p.Attrs["Sensor1"]; len(a) > 0 {
			a[0] = "bogus"
		}
		if got := netDemand(net); got != held {
			t.Errorf("attrs %v: demand changed with the caller's profile:\n%s\nwas\n%s", attrs, got, held)
		}
	}
}

// netDemand renders every interface's demand on every broker.
func netDemand(net *SimNet) string {
	var b strings.Builder
	for node := 0; node < net.NumNodes(); node++ {
		for _, iface := range net.Broker(node).DemandIfaces() {
			fmt.Fprintf(&b, "%d/%d %s\n", node, iface, net.Broker(node).DemandOn(iface))
		}
	}
	return b.String()
}
