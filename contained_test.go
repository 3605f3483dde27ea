package cosmos_test

import (
	"context"
	"fmt"
	"testing"

	"cosmos"
	"cosmos/internal/core"
)

// TestContainedJoinAcrossBackends is internal/core's
// TestContainedJoinKeepsCoMembersState on every backend: q1 [Range 5
// Hour] and q2 [Range 4 Hour] share a join group, ten opens enter its
// window, a third user submits the contained [Range 3 Hour] variant (and,
// in the second case, cancels it), and ten matching closes follow. The
// newcomer changes nothing the group's plan holds, so q1 and q2 each get
// all ten results. One processor, so the three queries meet in one group.
func TestContainedJoinAcrossBackends(t *testing.T) {
	open := cosmos.MustSchema("OpenAuction",
		cosmos.Field{Name: "itemID", Kind: cosmos.KindInt},
		cosmos.Field{Name: "sellerID", Kind: cosmos.KindInt},
		cosmos.Field{Name: "start_price", Kind: cosmos.KindFloat},
		cosmos.Field{Name: "timestamp", Kind: cosmos.KindTime},
	)
	closed := cosmos.MustSchema("ClosedAuction",
		cosmos.Field{Name: "itemID", Kind: cosmos.KindInt},
		cosmos.Field{Name: "buyerID", Kind: cosmos.KindInt},
		cosmos.Field{Name: "timestamp", Kind: cosmos.KindTime},
	)
	const join = "SELECT O.itemID, C.buyerID FROM OpenAuction [Range %d Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID"
	for _, cancel := range []bool{false, true} {
		t.Run(fmt.Sprintf("cancel=%v", cancel), func(t *testing.T) {
			eachBackendWith(t, core.Options{Nodes: 16, Seed: 3}, func(t *testing.T, c cosmos.Client) {
				openSrc, err := c.RegisterStream(&cosmos.StreamInfo{Schema: open, Rate: 50}, 1)
				if err != nil {
					t.Fatal(err)
				}
				closedSrc, err := c.RegisterStream(&cosmos.StreamInfo{Schema: closed, Rate: 30}, 2)
				if err != nil {
					t.Fatal(err)
				}
				var subs [2]*cosmos.Subscription
				var got [2]int
				var drained [2]chan struct{}
				for i, hours := range []int{5, 4} {
					if subs[i], err = c.Submit(context.Background(), fmt.Sprintf(join, hours), 5+i); err != nil {
						t.Fatal(err)
					}
					drained[i] = make(chan struct{})
					go func() {
						defer close(drained[i])
						for range subs[i].Results() {
							got[i]++
						}
					}()
				}
				if err := c.Quiesce(); err != nil {
					t.Fatal(err)
				}
				publish := func(src cosmos.Source, s *cosmos.Schema, ts int64, vals ...cosmos.Value) {
					t.Helper()
					if err := src.Publish(cosmos.MustTuple(s, cosmos.Timestamp(ts), vals...)); err != nil {
						t.Fatal(err)
					}
				}
				for i := range int64(10) {
					publish(openSrc, open, i, cosmos.Int(i), cosmos.Int(1), cosmos.Float(10), cosmos.Time(cosmos.Timestamp(i)))
				}
				if err := c.Quiesce(); err != nil {
					t.Fatal(err)
				}
				sub3, err := c.Submit(context.Background(), fmt.Sprintf(join, 3), 9)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					for range sub3.Results() {
					}
				}()
				if cancel {
					if err := sub3.Cancel(); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Quiesce(); err != nil {
					t.Fatal(err)
				}
				for i := range int64(10) {
					publish(closedSrc, closed, 10+i, cosmos.Int(i), cosmos.Int(77), cosmos.Time(cosmos.Timestamp(10+i)))
				}
				if err := c.Quiesce(); err != nil {
					t.Fatal(err)
				}
				for i, sub := range subs {
					if err := sub.Cancel(); err != nil {
						t.Fatal(err)
					}
					<-drained[i]
				}
				if got != [2]int{10, 10} {
					t.Errorf("q1 / q2 got %d / %d results, want 10 / 10", got[0], got[1])
				}
			})
		})
	}
}
