package cbn

import (
	"sync/atomic"
	"testing"
	"time"

	"cosmos/internal/stream"
)

// TestLiveNetBrokerPanicContainment kills one broker with a poisoned
// tuple and checks the failure stays inside that node: other
// brokers keep routing, traffic toward the dead node is black-holed
// with its accounting settled (Quiesce still converges, publishers are
// not starved of credits), and Stop tears the network down cleanly.
func TestLiveNetBrokerPanicContainment(t *testing.T) {
	net := NewLiveNet(2, WithInboxCap(4))
	if err := net.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	src, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	sub0, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := net.AttachClient(1)
	if err != nil {
		t.Fatal(err)
	}
	poison, err := net.AttachClient(1)
	if err != nil {
		t.Fatal(err)
	}
	var got0, got1 atomic.Int64
	sub0.SetOnTuple(func(stream.Tuple) { got0.Add(1) })
	sub1.SetOnTuple(func(stream.Tuple) { got1.Add(1) })
	net.Start()
	defer net.Stop()

	src.Advertise("Sensor1")
	net.Quiesce()
	sub0.Subscribe(tempProfile(0, nil))
	sub1.Subscribe(tempProfile(0, nil))
	net.Quiesce()
	for i := 0; i < 10; i++ {
		if err := src.Publish(sensorTuple(stream.Timestamp(i), 1, 25, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	if got0.Load() != 10 || got1.Load() != 10 {
		t.Fatalf("before fault: sub0=%d sub1=%d, want 10/10", got0.Load(), got1.Load())
	}

	// A tuple without the values its schema declares panics the broker
	// that routes it: sub1's compiled filter reads past them. Only node 1
	// must die.
	if err := poison.Publish(stream.Tuple{Schema: sensorSchema, Ts: 10}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()

	for i := 10; i < 20; i++ {
		if err := src.Publish(sensorTuple(stream.Timestamp(i), 1, 25, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	if got0.Load() != 20 {
		t.Errorf("sub0 after fault = %d, want 20 (broker 0 must keep routing)", got0.Load())
	}
	if got1.Load() != 10 {
		t.Errorf("sub1 after fault = %d, want 10 (node 1 traffic black-holed)", got1.Load())
	}

	// Publishing into the dead node must neither block on exhausted
	// credits (cap is 4) nor break quiescence accounting.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := poison.Publish(sensorTuple(stream.Timestamp(i), 1, 25, 0.5)); err != nil {
				t.Errorf("publish into dead node: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish into dead node blocked (credit leak)")
	}
	net.Quiesce()
}

// TestLiveNetClientPanicContainment panics one subscriber's delivery
// callback and checks only that client fails: the other subscriber
// keeps receiving every tuple, quiescence converges and Stop is clean.
func TestLiveNetClientPanicContainment(t *testing.T) {
	net := NewLiveNet(1)
	src, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := net.AttachClient(0)
	if err != nil {
		t.Fatal(err)
	}
	var badGot, goodGot atomic.Int64
	bad.SetOnTuple(func(stream.Tuple) {
		if badGot.Add(1) == 3 {
			panic("cbn test: consumer fault")
		}
	})
	good.SetOnTuple(func(stream.Tuple) { goodGot.Add(1) })
	net.Start()
	defer net.Stop()

	src.Advertise("Sensor1")
	net.Quiesce()
	bad.Subscribe(tempProfile(0, nil))
	good.Subscribe(tempProfile(0, nil))
	net.Quiesce()
	for i := 0; i < 50; i++ {
		if err := src.Publish(sensorTuple(stream.Timestamp(i), 1, 25, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	if goodGot.Load() != 50 {
		t.Errorf("good subscriber got %d, want 50 (unaffected by peer panic)", goodGot.Load())
	}
	if badGot.Load() != 3 {
		t.Errorf("bad subscriber got %d deliveries, want exactly 3 (fails at the panic)", badGot.Load())
	}
}
