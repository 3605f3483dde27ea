package cbn

import (
	"testing"

	"cosmos/internal/overlay"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/stream"
)

// checkForgotten reports what broker b still holds of a stream: an advertised
// route, demand on an interface, demand forwarded, a compiled route
// entry or an interned projection.
func checkForgotten(t *testing.T, b *Broker, name string) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.adverts[name] != nil {
		t.Errorf("broker %d still has advertisement routes %v for %s", b.ID, b.adverts[name], name)
	}
	for _, d := range b.agg {
		if d.prof.HasStream(name) {
			t.Errorf("broker %d iface %d still wants %s", b.ID, d.iface, name)
		}
	}
	for iface, p := range b.sent {
		if p.HasStream(name) {
			t.Errorf("broker %d still records demand for %s forwarded on iface %d", b.ID, name, iface)
		}
	}
	if tbl := b.table.Load(); tbl != nil && tbl.streams[name] != nil {
		t.Errorf("broker %d still has a route-table entry for %s", b.ID, name)
	}
	for key := range b.projCache {
		if len(key) > len(name) && key[:len(name)+1] == name+"|" {
			t.Errorf("broker %d still interns projection %s", b.ID, key)
		}
	}
}

// TestUnadvertiseFollowsAdvertise: a stream's unadvertisement follows
// its advertisement over the same links, and a broker forgets the
// stream when it arrives. Over a six-node tree, on SimNet and LiveNet:
//   - an unadvertisement is one control message on every link;
//   - a source advertises, publishes and unadvertises back to back, with
//     no quiesce between, while clients at two leaves demand the stream
//     already, so each leaf's demand update toward the source crosses
//     the unadvertisement. Once the network is quiet, no broker knows,
//     wants or routes the stream.
func TestUnadvertiseFollowsAdvertise(t *testing.T) {
	tree := &overlay.Tree{
		Root:      0,
		Parent:    []int{-1, 0, 1, 1, 3, 3},
		Children:  [][]int{{1}, {2, 3}, {}, {4, 5}, {}, {}},
		LinkDelay: []float64{0, 10, 10, 10, 10, 10},
	}
	schema := stream.MustSchema("Retired",
		stream.Field{Name: "station", Kind: stream.KindInt},
		stream.Field{Name: "temp", Kind: stream.KindFloat},
		stream.Field{Name: "wind", Kind: stream.KindFloat},
	)
	demand := func(attrs ...string) *profile.Profile {
		p := profile.New()
		p.AddStream("Retired", attrs, predicate.DNF{{predicate.C("temp", predicate.GT, stream.Float(0))}})
		return p
	}
	for _, tc := range []struct {
		name string
		// build returns the network, a client attacher, a function that
		// waits until the network is quiet, and burst, which advertises
		// name from c, publishes tp and unadvertises name with nothing
		// processed between.
		build func(t *testing.T) (f *Fabric, attach func(node int) testClient, quiesce func(), burst func(c testClient, name string, tp stream.Tuple))
	}{
		{"SimNet", func(t *testing.T) (*Fabric, func(int) testClient, func(), func(testClient, string, stream.Tuple)) {
			net := NewSimNetFromTree(tree)
			// Queued, not drained: the unadvertisement's own cascade takes
			// the advertisement and the tuple first, in FIFO order.
			burst := func(c testClient, name string, tp stream.Tuple) {
				sc := c.(*SimClient)
				net.forward(sc.Node, message{from: sc.iface, kind: msgAdvertise, name: name})
				net.forward(sc.Node, message{from: sc.iface, kind: msgData, tuple: tp})
				sc.Unadvertise(name)
			}
			return &net.Fabric, func(node int) testClient { return net.AttachClient(node) }, func() {}, burst
		}},
		{"LiveNet", func(t *testing.T) (*Fabric, func(int) testClient, func(), func(testClient, string, stream.Tuple)) {
			net := NewLiveNetFromTree(tree)
			net.Start()
			t.Cleanup(net.Stop)
			attach := func(node int) testClient {
				c, err := net.AttachClient(node)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			burst := func(c testClient, name string, tp stream.Tuple) {
				c.Advertise(name)
				if err := c.Publish(tp); err != nil {
					t.Fatal(err)
				}
				c.Unadvertise(name)
			}
			return &net.Fabric, attach, net.Quiesce, burst
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, attach, quiesce, burst := tc.build(t)
			ctrl := func() []int64 {
				var out []int64
				for _, ls := range f.Stats() {
					out = append(out, ls.CtrlMsgs)
				}
				return out
			}
			src := attach(0)

			// An unadvertisement is charged as control on every link.
			src.Advertise("Quiet")
			quiesce()
			before := ctrl()
			src.Unadvertise("Quiet")
			quiesce()
			for i, n := range ctrl() {
				if ls := f.Stats()[i]; n-before[i] != 1 {
					t.Errorf("link %d-%d carried %d control messages for the unadvertisement, want 1", ls.A, ls.B, n-before[i])
				}
			}
			for node := range f.NumNodes() {
				checkForgotten(t, f.Broker(node), "Quiet")
			}

			// Two leaves demand the stream before it is advertised.
			for _, node := range []int{2, 5} {
				attach(node).SetDemand(demand("station", "wind"))
			}
			quiesce()
			before = ctrl()
			burst(src, "Retired", stream.MustTuple(schema, 1, stream.Int(1), stream.Float(20), stream.Float(3)))
			quiesce()
			after := ctrl()
			// Each leaf's broker took the advertisement before the
			// unadvertisement and sent its demand toward the source.
			for i, ls := range f.Stats() {
				leaf := ls.B == 2 || ls.B == 5
				if d := after[i] - before[i]; d < 2 || leaf && d < 3 {
					t.Errorf("link %d-%d carried %d control messages, want the advertisement, the unadvertisement and, toward a leaf, its demand", ls.A, ls.B, d)
				}
			}
			for node := range f.NumNodes() {
				b := f.Broker(node)
				if b.KnowsSource("Retired") {
					t.Errorf("broker %d still knows the retired stream's source", node)
				}
				if d := b.DemandIfaces(); len(d) != 0 {
					t.Errorf("broker %d: interfaces %v still hold demand", node, d)
				}
				checkForgotten(t, b, "Retired")
			}
		})
	}
}
