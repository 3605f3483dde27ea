package cbn

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// churnCycles is how many clients attach to and leave one node in the
// churn tests: a long-running deployment's query proxies.
const churnCycles = 1000

// advertAllocs measures the allocations of one advertisement of a fresh
// stream flooding the network, averaged and truncated as by
// testing.AllocsPerRun. Each stream is retired again, outside the count,
// so every advertisement meets the same broker state.
func advertAllocs(advertise func(name string), prune func(name string)) float64 {
	const runs = 200
	var ms runtime.MemStats
	var total uint64
	for i := 0; i <= runs; i++ { // the first run warms up
		name := fmt.Sprintf("Fresh%03d", i)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		advertise(name)
		runtime.ReadMemStats(&ms)
		if i > 0 {
			total += ms.Mallocs - before
		}
		prune(name)
	}
	return float64(total / runs)
}

// TestAdvertiseUndemandedAllocations: a broker reached by the
// advertisement of a stream no interface demands records the advertiser
// and forwards nothing; it builds no empty demand to learn so. Four
// interfaces hold demand for other streams.
func TestAdvertiseUndemandedAllocations(t *testing.T) {
	b := NewBroker(0)
	for i := 1; i <= 4; i++ {
		p := profile.New()
		p.AddStream(fmt.Sprintf("Sensor%d", i), nil, nil)
		b.HandleDemand(p, IfaceID(i))
	}
	allocs := advertAllocs(func(name string) {
		if fresh, demand := b.HandleAdvertise(name, 0); !fresh || demand != nil {
			t.Fatalf("advert of %s: fresh %v, demand %v; want fresh, none", name, fresh, demand)
		}
	}, func(name string) { b.pruneStream(name) })
	// All it may allocate is the stream's set of advertising interfaces.
	entry := testing.AllocsPerRun(200, func() {
		m := map[IfaceID]bool{}
		m[0] = true
		advertSink = m
	})
	if allocs > entry {
		t.Errorf("advertisement of an undemanded stream allocates %.1f/op, want at most %.1f", allocs, entry)
	}
}

// advertSink keeps TestAdvertiseUndemandedAllocations' reference map on
// the heap, as the broker's is.
var advertSink map[IfaceID]bool

// TestSimNetAttachChurn: clients that attached to a node and left
// leave nothing behind that a later advertisement pays for.
func TestSimNetAttachChurn(t *testing.T) {
	net := lineNet(3)
	src := net.AttachClient(0)
	src.Advertise("Sensor1")
	measure := func() float64 { return advertAllocs(src.Advertise, src.Unadvertise) }
	before := measure()
	for i := 0; i < churnCycles; i++ {
		c := net.AttachClient(1)
		c.SetOnTuple(func(stream.Tuple) {})
		c.SetDemand(tempProfile(float64(i), nil))
		c.Close()
	}
	if after := measure(); after > before {
		t.Errorf("after %d attach/Close cycles an advertisement allocates %.1f/op, %.1f before", churnCycles, after, before)
	}
	for node := 0; node < net.NumNodes(); node++ {
		if d := net.Broker(node).DemandIfaces(); len(d) != 0 {
			t.Errorf("broker %d: interfaces %v still hold demand", node, d)
		}
	}
}

// TestLiveNetAttachChurn is TestSimNetAttachChurn on LiveNet, each
// churned client with a running delivery pump. Then Stop must wait for
// every pump, a closed client's included: with closed clients' delivery
// callbacks held, Stop does not return until they are released.
func TestLiveNetAttachChurn(t *testing.T) {
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
	net.Start()
	stopped := false
	defer func() {
		if !stopped {
			net.Stop()
		}
	}()
	src.Advertise("Sensor1")
	net.Quiesce()
	measure := func() float64 {
		return advertAllocs(func(name string) {
			src.Advertise(name)
			net.Quiesce()
		}, func(name string) {
			src.Unadvertise(name)
			net.Quiesce()
		})
	}
	before := measure()
	var delivered atomic.Int64
	for i := 0; i < churnCycles; i++ {
		c, err := net.AttachClient(1)
		if err != nil {
			t.Fatal(err)
		}
		c.SetOnTuple(func(stream.Tuple) { delivered.Add(1) })
		c.SetDemand(tempProfile(0, nil))
		net.Quiesce()
		if err := src.Publish(sensorTuple(stream.Timestamp(i), 1, 25, 0)); err != nil {
			t.Fatal(err)
		}
		net.Quiesce()
		c.Close()
	}
	net.Quiesce()
	if got := delivered.Load(); got != churnCycles {
		t.Fatalf("churned clients received %d tuples, want %d", got, churnCycles)
	}
	if after := measure(); after > before {
		t.Errorf("after %d attach/Close cycles an advertisement allocates %.1f/op, %.1f before", churnCycles, after, before)
	}

	// Hold three clients' pumps in their callbacks, close the clients,
	// then stop the network.
	const held = 3
	gate := make(chan struct{})
	var entered, returned atomic.Int64
	var holders []*LiveClient
	for i := 0; i < held; i++ {
		c, err := net.AttachClient(1)
		if err != nil {
			t.Fatal(err)
		}
		c.SetOnTuple(func(stream.Tuple) {
			entered.Add(1)
			<-gate
			returned.Add(1)
		})
		c.SetDemand(tempProfile(0, nil))
		holders = append(holders, c)
	}
	net.Quiesce()
	if err := src.Publish(sensorTuple(churnCycles, 1, 25, 0)); err != nil {
		t.Fatal(err)
	}
	for entered.Load() != held {
		time.Sleep(time.Millisecond)
	}
	for _, c := range holders {
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		net.Stop()
		close(done)
	}()
	stopped = true
	select {
	case <-done:
		t.Fatal("Stop returned while closed clients' delivery callbacks were still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return once the callbacks were released")
	}
	if got := returned.Load(); got != held {
		t.Errorf("Stop returned with %d of %d held callbacks finished", got, held)
	}
}

// TestLiveNetPruneUnroutedStream: retiring a stream no broker ever
// routed leaves every broker's compiled route table as it is, so an
// advertisement plus unadvertisement of such a stream costs no more once
// the brokers have routed a tuple of another stream than before.
func TestLiveNetPruneUnroutedStream(t *testing.T) {
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
	sink, err := net.AttachClient(2)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	sink.SetOnTuple(func(stream.Tuple) { delivered.Add(1) })
	net.Start()
	defer net.Stop()
	src.Advertise("Sensor1")
	sink.SetDemand(tempProfile(0, nil))
	net.Quiesce()
	measure := func() float64 {
		return advertAllocs(func(name string) {
			src.Advertise(name)
			net.Quiesce()
			src.Unadvertise(name)
			net.Quiesce()
		}, func(string) {})
	}
	before := measure()
	if err := src.Publish(sensorTuple(1, 1, 25, 0)); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	if got := delivered.Load(); got != 1 {
		t.Fatalf("sink received %d tuples, want 1", got)
	}
	if after := measure(); after > before {
		t.Errorf("once a tuple was routed, an advertisement plus unadvertisement allocates %.1f/op, %.1f before", after, before)
	}
}
