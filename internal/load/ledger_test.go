package load

import (
	"fmt"
	"testing"
	"time"

	"cosmos/internal/stream"
)

// The ledger tests (churn_test.go, clients_test.go) drive a live
// deployment with the Pacer and account for every result with the
// Recorder: zero loss, zero duplication, exact first due sequences.
// Nothing else in the repo asserts what they assert — a 48-node fleet
// through a source join and a processor failover, hundreds of
// concurrent dialers through a cancel/resubmit burst.

// smokeEvents scales a ledger test's event budget down for -short runs
// (the CI load-smoke job runs these under -race).
func smokeEvents(full int) int {
	if testing.Short() {
		return full / 2
	}
	return full
}

// ledgerInfo is the catalog record of a ledger source stream: a
// sequence number for the ledger, the intended publish offset in
// nanoseconds for coordinated-omission-safe latency, and three float
// payload columns (5 columns, like sensordata.Schema).
func ledgerInfo(name string, rate int) *stream.Info {
	return &stream.Info{
		Schema: stream.MustSchema(name,
			stream.Field{Name: "seq", Kind: stream.KindInt},
			stream.Field{Name: "pubns", Kind: stream.KindInt},
			stream.Field{Name: "v0", Kind: stream.KindFloat},
			stream.Field{Name: "v1", Kind: stream.KindFloat},
			stream.Field{Name: "v2", Kind: stream.KindFloat},
		),
		Rate: float64(rate),
		Stats: map[string]stream.AttrStats{
			"seq":   {Min: 0, Max: 1e12, Distinct: 1e9},
			"pubns": {Min: 0, Max: 1e15, Distinct: 1e9},
			"v0":    {Min: 0, Max: 100, Distinct: 1000},
			"v1":    {Min: 0, Max: 100, Distinct: 1000},
			"v2":    {Min: 0, Max: 100, Distinct: 1000},
		},
	}
}

// ledgerTuple builds one source tuple: Ts carries the actual publish
// offset (the service-latency stamp), pubns the intended one.
func ledgerTuple(s *stream.Schema, seq int64, pub time.Duration, p *Pacer) stream.Tuple {
	return stream.MustTuple(s, stream.Timestamp(time.Since(p.Start())),
		stream.Int(seq), stream.Int(int64(pub)),
		stream.Float(float64(seq%100)), stream.Float(50), stream.Float(25))
}

// ledgerQuery is the pass-through query over a ledger stream; its
// results carry exactly the accounting columns, in this order.
func ledgerQuery(streamName string) string {
	return fmt.Sprintf("SELECT seq, pubns FROM %s [Now]", streamName)
}

// observe records one ledgerQuery result on tr. A result whose columns
// are not (seq, pubns) shows up as loss, not as a silent pass.
func observe(rec *Recorder, tr *Track, t stream.Tuple) {
	rec.Observe(tr, t.Values[0].AsInt(), t.Values[1].AsInt(), int64(t.Ts))
}

// waitUntil polls cond until it holds or two minutes pass; undelivered
// results at the deadline are then charged as tail loss.
func waitUntil(cond func() bool) {
	for deadline := time.Now().Add(2 * time.Minute); !cond() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
}

// checkLedger asserts the ledger contract once tail loss is charged:
// every due result arrived exactly once, and each was measured.
func checkLedger(t *testing.T, rec *Recorder, p *Pacer) {
	t.Helper()
	lost, dups := rec.Totals()
	lat, svc := rec.LatencySnapshot(), rec.SvcSnapshot()
	t.Logf("delivered %d lost %d dup %d shifts %d; latency p50 %v p99 %v, service p50 %v",
		rec.Delivered(), lost, dups, p.Shifts(), time.Duration(lat.Quantile(0.5)),
		time.Duration(lat.Quantile(0.99)), time.Duration(svc.Quantile(0.5)))
	if lost != 0 || dups != 0 {
		t.Fatalf("ledger: lost %d, duplicated %d; want 0/0", lost, dups)
	}
	if rec.Delivered() <= 0 {
		t.Fatal("no results delivered")
	}
	if int64(lat.Count) != rec.Delivered() || int64(svc.Count) != rec.Delivered() {
		t.Fatalf("%d deliveries but %d latency / %d service samples", rec.Delivered(), lat.Count, svc.Count)
	}
}
