package cbn

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cosmos/internal/overlay"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

// TestLiveNetOverGeneratedTree runs the concurrent network over a real
// MST dissemination tree with several publishers and subscribers, and
// cross-checks delivery counts against the SimNet on the same scenario.
func TestLiveNetOverGeneratedTree(t *testing.T) {
	g, err := topology.GeneratePowerLaw(24, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := overlay.MST(g, 0)
	if err != nil {
		t.Fatal(err)
	}

	type scenario struct {
		srcNode  int
		subNodes []int
		minTemp  float64
	}
	sc := scenario{srcNode: 3, subNodes: []int{7, 15, 22}, minTemp: 20}

	runLive := func() []int64 {
		net := NewLiveNet(tree.NumNodes())
		for v := 0; v < tree.NumNodes(); v++ {
			if v != tree.Root {
				if err := net.AddLink(v, tree.Parent[v]); err != nil {
					t.Fatal(err)
				}
			}
		}
		src, err := net.AttachClient(sc.srcNode)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]atomic.Int64, len(sc.subNodes))
		var wg sync.WaitGroup
		subs := make([]*LiveClient, len(sc.subNodes))
		for i, node := range sc.subNodes {
			c, err := net.AttachClient(node)
			if err != nil {
				t.Fatal(err)
			}
			i := i
			c.SetOnTuple(func(stream.Tuple) { counts[i].Add(1) })
			subs[i] = c
		}
		net.Start()
		defer net.Stop()
		src.Advertise("Sensor1")
		net.Quiesce()
		for _, c := range subs {
			c.Subscribe(tempProfile(sc.minTemp, nil))
		}
		net.Quiesce()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src.Publish(sensorTuple(stream.Timestamp(i), int64(i%5), float64(i%40), 0.5))
			}
		}()
		wg.Wait()
		net.Quiesce()
		out := make([]int64, len(counts))
		for i := range counts {
			out[i] = counts[i].Load()
		}
		return out
	}

	runSim := func() []int64 {
		net := NewSimNetFromTree(tree)
		src := net.AttachClient(sc.srcNode)
		counts := make([]int64, len(sc.subNodes))
		for i, node := range sc.subNodes {
			c := net.AttachClient(node)
			i := i
			c.OnTuple = func(stream.Tuple) { counts[i]++ }
			src.Advertise("Sensor1")
			c.Subscribe(tempProfile(sc.minTemp, nil))
		}
		for i := 0; i < 100; i++ {
			if err := src.Publish(sensorTuple(stream.Timestamp(i), int64(i%5), float64(i%40), 0.5)); err != nil {
				t.Fatal(err)
			}
		}
		return counts
	}

	live := runLive()
	sim := runSim()
	for i := range live {
		if live[i] != sim[i] {
			t.Errorf("subscriber %d: live=%d sim=%d", i, live[i], sim[i])
		}
		if live[i] == 0 {
			t.Errorf("subscriber %d received nothing", i)
		}
	}
}

func TestBrokerDemandAndKnowsSource(t *testing.T) {
	b := NewBroker(0)
	if b.KnowsSource("Sensor1") {
		t.Error("no advert yet")
	}
	b.HandleAdvertise("Sensor1", 0)
	if !b.KnowsSource("Sensor1") {
		t.Error("advert not recorded")
	}
	if b.DemandOn(1) != nil {
		t.Error("no demand yet")
	}
	p := profile.New()
	p.AddStream("Sensor1", []string{"temp"}, predicate.DNF{
		{predicate.C("temp", predicate.GT, stream.Float(5))},
	})
	forwards := b.HandleDemand(p, 1)
	// The subscription must route toward the advertiser on iface 0.
	if len(forwards) != 1 || forwards[0].Iface != 0 {
		t.Fatalf("forwards = %v", forwards)
	}
	demand := b.DemandOn(1)
	if demand == nil || demand.FilterFor("Sensor1").IsTrue() {
		t.Errorf("demand = %v", demand)
	}
}

// TestLiveNetSharedProjections routes one source's tuples over a chain
// of three brokers to six clients while the source keeps publishing.
// Only links project: a client receives the tuple as its broker routed
// it and binds its columns by name. Node 1's union is gapped in the
// source's layout, so the link toward it copies; node 2's is a run of
// node 1's, so the link toward it shares a capped run of that copy.
// Every client checks each tuple's layout and values, and appends to
// them: a run a broker shares must be capped, or the append would write
// the columns past it under the other clients (which -race reports).
func TestLiveNetSharedProjections(t *testing.T) {
	schema := stream.MustSchema("Shared",
		stream.Field{Name: "station", Kind: stream.KindInt},
		stream.Field{Name: "temperature", Kind: stream.KindFloat},
		stream.Field{Name: "humidity", Kind: stream.KindFloat},
		stream.Field{Name: "solar", Kind: stream.KindFloat},
		stream.Field{Name: "wind", Kind: stream.KindFloat},
	)
	value := func(ts stream.Timestamp, col int) stream.Value {
		if col == 0 {
			return stream.Int(int64(ts))
		}
		return stream.Float(float64(ts) + float64(col)/10)
	}
	net := NewLiveNet(3)
	for _, l := range [][2]int{{0, 1}, {1, 2}} {
		if err := net.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	src, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 wants station, temperature, humidity and wind (node 2's
	// demand included); node 2 wants temperature and humidity.
	layout := map[int][]string{
		0: schema.AttrNames(),
		1: {"station", "temperature", "humidity", "wind"},
		2: {"temperature", "humidity"},
	}
	subs := []struct {
		node  int
		attrs []string
	}{
		{0, nil},
		{0, []string{"wind", "humidity", "solar"}},
		{0, []string{"wind", "temperature"}},
		{1, []string{"humidity", "station"}},
		{1, []string{"wind", "station"}},
		{2, []string{"humidity", "temperature"}},
	}
	const n = 2000
	counts := make([]atomic.Int64, len(subs))
	var bad atomic.Value
	clients := make([]*LiveClient, len(subs))
	for i, sub := range subs {
		c, err := net.AttachClient(sub.node)
		if err != nil {
			t.Fatal(err)
		}
		i, want := i, layout[sub.node]
		c.SetOnTuple(func(tp stream.Tuple) {
			ok := len(tp.Values) == len(want) && slices.Equal(tp.Schema.AttrNames(), want)
			for _, name := range sub.attrs {
				ok = ok && tp.Schema.ColIndex(name) >= 0
			}
			for k := 0; ok && k < len(want); k++ {
				ok = tp.Values[k].Equal(value(tp.Ts, schema.ColIndex(want[k])))
			}
			if !ok {
				bad.CompareAndSwap(nil, fmt.Sprintf("client %d got %s, want columns %v", i, tp, want))
			}
			_ = append(tp.Values, stream.Int(-1))
			counts[i].Add(1)
		})
		clients[i] = c
	}
	net.Start()
	defer net.Stop()
	src.Advertise("Shared")
	net.Quiesce()
	for i, sub := range subs {
		p := profile.New()
		p.AddStream("Shared", sub.attrs, nil)
		clients[i].Subscribe(p)
	}
	net.Quiesce()
	for ts := stream.Timestamp(0); ts < n; ts++ {
		vals := make([]stream.Value, schema.Arity())
		for col := range vals {
			vals[col] = value(ts, col)
		}
		if err := src.Publish(stream.MustTuple(schema, ts, vals...)); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	for i := range counts {
		if got := counts[i].Load(); got != n {
			t.Errorf("client %d received %d tuples, want %d", i, got, n)
		}
	}
}
