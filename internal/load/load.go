// Package load is the sustained-load harness: it drives a live COSMOS
// deployment — embedded over LiveNet or through the TCP transport — at
// a held offered rate and reports what actually happened as a
// BENCH_<area>.json trajectory point.
//
// # Measurement contract
//
// The driver is open-loop (Pacer): arrival times are fixed when the run
// starts, so a stalling system makes the driver fall behind its
// schedule rather than silently slowing the offered rate. Every tuple
// is stamped with its *intended* publish offset; delivery latency is
// measured against that stamp, and the pacer separately records the
// scheduling lag of every tick. Together these make coordinated
// omission visible instead of flattering: a stalled consumer shows up
// as an achieved-rate shortfall plus lag plus inflated latency tails,
// never as an improved distribution (pacer_test.go pins this).
//
// Latency quantiles come from the same obs log-linear histograms the
// live metrics surface uses (≤1/32 relative bucket error, lock-free on
// the record path); loss and duplication are tracked per subscription
// by carried sequence numbers (Recorder); allocations per result come
// from runtime.MemStats deltas around the run.
//
// # Scenarios
//
// Four scenarios ship as both short race-clean Go tests and full-scale
// cmd/cosmosbench runs:
//
//   - transport: the PR-7 sustained result-path workload — one daemon,
//     one TCP subscriber connection fanning out to N subscriptions —
//     rebased from scripts/bench_transport.sh's bespoke measurement.
//   - auction: the paper's running example scaled up — open/close
//     auction streams through the merging optimiser (q1/q2 share a
//     representative), millions of events at full scale.
//   - churn: a WAN sensor fleet — seeded subscription churn in the
//     style of merge/churn_test.go, a source joining mid-run, and a
//     processor leaving through the ft checkpoint/failover machinery.
//   - clients: hundreds of dialling TCP clients subscribing and
//     cancelling against one daemon.
//
// Every scenario asserts zero lost and zero duplicated results against
// its sequence ledger before reporting.
package load

import (
	"fmt"
	"sort"
	"time"
)

// Config parameterises one load run. Zero fields take scenario
// defaults (Defaults).
type Config struct {
	// Scenario selects the workload: transport, auction, churn, clients.
	Scenario string
	// Rate is the offered event rate (tuples/s across all sources).
	Rate int
	// Duration bounds the publishing phase; Events (exact event count)
	// wins when both are set.
	Duration time.Duration
	Events   int
	// Subs is the subscription count (transport: subscriptions on the
	// one connection; auction: q1/q2 pairs; churn: max live subs).
	Subs int
	// Clients is the dialling-connection count (clients scenario).
	Clients int
	// Streams is the source-stream count (churn, clients).
	Streams int
	// Workers is the per-processor execution worker-pool size.
	Workers int
	// Seed drives topology, placement and churn randomness.
	Seed int64
	// Addr dials an external daemon instead of assembling one
	// in-process (transport and clients scenarios). Loss accounting
	// still works — it rides the carried sequence numbers — but
	// allocs/result and stage quantiles then describe only this
	// process.
	Addr string
	// DrainTimeout bounds the post-publish wait for deliveries to
	// settle (default 2 minutes). Undelivered results at the deadline
	// are charged as lost.
	DrainTimeout time.Duration
	// Out writes the report as BENCH_<area>.json to this path; empty
	// disables writing.
	Out string
}

// scenarios maps scenario name to runner. Each runner owns its
// deployment assembly, workload shape and accounting.
var scenarios = map[string]func(Config) (*Report, error){
	"transport": runTransport,
	"auction":   runAuction,
	"churn":     runChurn,
	"clients":   runClients,
}

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes one scenario and returns its report, writing it to
// cfg.Out when set. The report is returned even when the run's
// accounting found loss or duplication — callers decide how strict to
// be (tests and cosmosbench -strict fail on either).
func Run(cfg Config) (*Report, error) {
	runner, ok := scenarios[cfg.Scenario]
	if !ok {
		return nil, fmt.Errorf("load: unknown scenario %q (have %v)", cfg.Scenario, Scenarios())
	}
	cfg = cfg.withDefaults()
	rep, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	rep.Scenario = cfg.Scenario
	if rep.Area == "" {
		rep.Area = cfg.Scenario
	}
	if cfg.Out != "" {
		if err := WriteReport(cfg.Out, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 5000
	}
	if c.Duration <= 0 && c.Events <= 0 {
		c.Duration = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Minute
	}
	switch c.Scenario {
	case "transport":
		if c.Subs <= 0 {
			c.Subs = 16
		}
		if c.Workers <= 0 {
			c.Workers = 2
		}
		if c.Seed == 0 {
			c.Seed = 3
		}
	case "auction":
		if c.Subs <= 0 {
			c.Subs = 4 // q1/q2 pairs
		}
		if c.Workers <= 0 {
			c.Workers = 2
		}
		if c.Seed == 0 {
			c.Seed = 7
		}
	case "churn":
		if c.Subs <= 0 {
			c.Subs = 24
		}
		if c.Streams <= 0 {
			c.Streams = 8
		}
		if c.Workers <= 0 {
			c.Workers = 2
		}
		if c.Seed == 0 {
			c.Seed = 77 // the merge/churn_test.go seed
		}
	case "clients":
		if c.Clients <= 0 {
			c.Clients = 256
		}
		if c.Streams <= 0 {
			c.Streams = 4
		}
		if c.Workers <= 0 {
			c.Workers = 2
		}
		if c.Seed == 0 {
			c.Seed = 5
		}
	}
	return c
}

// targetEvents resolves the publishing budget: an exact event count
// when set, otherwise rate × duration.
func (c Config) targetEvents() int {
	if c.Events > 0 {
		return c.Events
	}
	n := int(float64(c.Rate) * c.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	return n
}
