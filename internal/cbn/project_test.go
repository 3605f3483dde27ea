package cbn

import (
	"slices"
	"sync"
	"testing"

	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// testClient is what SimClient and LiveClient share for these tests.
type testClient interface {
	SetOnTuple(func(stream.Tuple))
	SetDemand(*profile.Profile)
	Advertise(string)
	Unadvertise(string)
	Publish(stream.Tuple) error
}

// TestOnlyLinksProject pins where a broker projects: on links only. Over
// a link 0—1, a client at node 0 whose demand leaves a gap in the
// stream's layout receives each routed tuple itself, sharing its values;
// the link toward a client at node 1 with another gapped demand carries
// the projection and is charged its projected size; and routing toward
// gapped client demand alone allocates nothing.
func TestOnlyLinksProject(t *testing.T) {
	schema := stream.MustSchema("Gapped",
		stream.Field{Name: "station", Kind: stream.KindInt},
		stream.Field{Name: "temperature", Kind: stream.KindFloat},
		stream.Field{Name: "humidity", Kind: stream.KindFloat},
		stream.Field{Name: "solar", Kind: stream.KindFloat},
		stream.Field{Name: "wind", Kind: stream.KindFloat},
	)
	demand := func(attrs ...string) *profile.Profile {
		p := profile.New()
		p.AddStream("Gapped", attrs, predicate.DNF{{predicate.C("station", predicate.GE, stream.Int(0))}})
		return p
	}
	const n = 50
	pub := make([]stream.Tuple, n)
	for i := range pub {
		f := float64(i)
		pub[i] = stream.MustTuple(schema, stream.Timestamp(i),
			stream.Int(int64(i)), stream.Float(f+0.1), stream.Float(f+0.2), stream.Float(f+0.3), stream.Float(f+0.4))
	}
	for _, tc := range []struct {
		name string
		// build returns a two-node network linked 0—1, a client attacher,
		// and a function that waits until the network is quiet.
		build func(t *testing.T) (*Fabric, func(node int) testClient, func())
	}{
		{"SimNet", func(t *testing.T) (*Fabric, func(int) testClient, func()) {
			net := NewSimNet(2)
			net.AddLink(0, 1, 10)
			return &net.Fabric, func(node int) testClient { return net.AttachClient(node) }, func() {}
		}},
		{"LiveNet", func(t *testing.T) (*Fabric, func(int) testClient, func()) {
			net := NewLiveNet(2)
			if err := net.AddLink(0, 1); err != nil {
				t.Fatal(err)
			}
			net.Start()
			t.Cleanup(net.Stop)
			return &net.Fabric, func(node int) testClient {
				c, err := net.AttachClient(node)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}, net.Quiesce
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, attach, quiesce := tc.build(t)
			var mu sync.Mutex
			var local, remote []stream.Tuple
			src := attach(0)
			near, far := attach(0), attach(1)
			near.SetOnTuple(func(tp stream.Tuple) { mu.Lock(); local = append(local, tp); mu.Unlock() })
			far.SetOnTuple(func(tp stream.Tuple) { mu.Lock(); remote = append(remote, tp); mu.Unlock() })
			src.Advertise("Gapped")
			quiesce()
			near.SetDemand(demand("station", "humidity"))
			far.SetDemand(demand("station", "solar"))
			quiesce()
			for _, tp := range pub {
				if err := src.Publish(tp); err != nil {
					t.Fatal(err)
				}
			}
			quiesce()
			mu.Lock()
			defer mu.Unlock()
			if len(local) != n || len(remote) != n {
				t.Fatalf("delivered %d near and %d far, want %d each", len(local), len(remote), n)
			}
			var wire int64
			for i := range n {
				tp, want := local[i], pub[local[i].Ts]
				if tp.Schema != schema || &tp.Values[0] != &want.Values[0] {
					t.Fatalf("the near client got %s, not the routed tuple %s", tp, want)
				}
				tp = remote[i]
				if !slices.Equal(tp.Schema.AttrNames(), []string{"station", "solar"}) ||
					!tp.Values[1].Equal(pub[tp.Ts].Values[3]) {
					t.Fatalf("the far client got %s, want the link's projection to station, solar", tp)
				}
				wire += int64(tp.WireSize() + DataHeaderBytes)
			}
			if ls := f.Stats()[0]; ls.DataMsgs != n || ls.DataBytes != wire {
				t.Errorf("the link carried %d tuples in %d bytes, want %d in %d (projected)", ls.DataMsgs, ls.DataBytes, n, wire)
			}
			// Node 1 routing a whole tuple, as if it came over its link
			// (interface 0, attached before any client), has only the far
			// client's gapped demand to serve.
			b := f.Broker(1)
			scratch, err := b.RouteTupleInto(pub[0], 0, nil)
			if err != nil || len(scratch) != 1 || &scratch[0].Tuple.Values[0] != &pub[0].Values[0] {
				t.Fatalf("node 1 routed %v, %v; want the tuple itself once", scratch, err)
			}
			if allocs := testing.AllocsPerRun(1000, func() {
				scratch, _ = b.RouteTupleInto(pub[1], 0, scratch)
			}); allocs != 0 {
				t.Errorf("routing toward gapped client demand allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
