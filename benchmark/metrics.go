package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef is one row of a metric table; BENCHMARK.json, written by
// hand, carries the same rows (bench_test.go checks that it does).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // allowed worsening as a share of the parent's median; end-to-end only
	what   string
}

// endToEnd are the gated metrics. Every workload reports all of them,
// from the untraced run. They are the ones whose ten-run spread stays
// inside a tenth on every workload whatever the host is doing; the timed
// metrics a user would name first — throughput, latency, CPU — do not on
// a shared virtual machine, and are diagnostics (below) under the issue's
// rule.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"start of assembly → the expected results of the set-up's fixed priming events all received; median of the set-ups"},
	{"allocs_per_event", "count", "lower", 0.05,
		"heap allocations over a saturation phase ÷ source events; median of the phases"},
	{"net_bytes_per_event", "bytes", "lower", 0.01,
		"(CBN link data bytes + wire result bytes) over a saturation phase ÷ source events; median of the phases"},
	{"heap_mb", "MiB", "lower", 0.10,
		"live heap after two forced GCs at the end of a held-rate phase, deployment up, harness excluded; median of the phases"},
}

// perLayer are the traced run's metrics, one layer (module) each; the
// layer is the name's prefix. None is gated.
var perLayer = []metricDef{
	// Control plane, replayed layer by layer on the workload's queries.
	{"cql.parse_bind_us", "us", "lower", 0, "cql.AnalyzeString per standing query, median"},
	{"containment.check_us", "us", "lower", 0, "containment.Contains per ordered pair of standing queries, median"},
	{"merge.add_us", "us", "lower", 0, "merge.Optimizer.Add per standing query, median"},
	{"merge.remove_us", "us", "lower", 0, "merge.Optimizer.Remove per standing query, median"},
	{"exec.install_us", "us", "lower", 0, "exec.Runtime.Install per representative plan, median"},
	{"cbn.subscribe_us", "us", "lower", 0, "SimNet client Subscribe of a query's source profile across the overlay, median"},
	{"profile.compile_us", "us", "lower", 0, "Profile.CompileFor per (query profile, input schema), median"},
	{"overlay.build_ms", "ms", "lower", 0, "topology generation + MST for the workload's overlay, median of 5"},
	{"core.submit_us", "us", "lower", 0, "EmbedLive Client.Submit per standing query on a scratch deployment, median"},
	// Sharing.
	{"merge.groups", "count", "lower", 0, "query groups installed across processors"},
	{"merge.grouping_ratio", "ratio", "higher", 0, "standing queries ÷ groups"},
	{"exec.pushes_per_event", "count", "lower", 0, "plan pushes ÷ ingested events, traced held-rate phase"},
	// Routing.
	{"predicate.eval_ns", "ns", "lower", 0, "compiled selection predicate evaluation per tuple, replay"},
	{"predicate.match_ratio", "ratio", "lower", 0, "share of replayed predicate evaluations that match"},
	{"cbn.route_ns", "ns", "lower", 0, "Broker.RouteTupleInto per tuple at the source's broker, replay"},
	{"cbn.route_allocs", "count", "lower", 0, "allocations per routed tuple, replay"},
	{"cbn.link_msgs_per_event", "count", "lower", 0, "CBN link data messages ÷ events, traced held-rate phase"},
	{"cbn.link_bytes_per_event", "bytes", "lower", 0, "CBN link data bytes ÷ events, traced held-rate phase"},
	// Operators.
	{"spe.push_select_ns", "ns", "lower", 0, "Plan.Push per tuple, select-project representatives, replay"},
	{"spe.push_join_ns", "ns", "lower", 0, "Plan.Push per tuple, window-join representatives, replay"},
	{"spe.push_agg_ns", "ns", "lower", 0, "Plan.Push per tuple, aggregate representatives, replay"},
	{"spe.push_allocs", "count", "lower", 0, "allocations per Plan.Push, replay"},
	{"spe.emit_ratio", "ratio", "lower", 0, "tuples emitted ÷ tuples pushed, replay"},
	{"spe.state_mb", "MiB", "lower", 0, "heap held by the representatives' windows after the warm-up prefix, replay"},
	// Dispatch and queues.
	{"exec.consume_ns", "ns", "lower", 0, "Runtime.Consume per tuple with workers = 0: dispatch plus the plans' pushes, replay"},
	{"exec.worker_queue_p99", "count", "lower", 0, "deepest exec worker queue, p99 of 10 Hz samples"},
	{"cbn.broker_queue_p99", "count", "lower", 0, "deepest broker mailbox, p99 of 10 Hz samples"},
	// Ingest and delivery.
	{"core.publish_ns", "ns", "lower", 0, "Source.Publish span, median, traced held-rate phase"},
	{"core.publish_blocked_ratio", "ratio", "lower", 0, "share of Publish spans over 100 µs (ingress credits)"},
	{"core.deliver_fanout", "ratio", "lower", 0, "results delivered ÷ events ingested"},
	{"core.sync_oracle_eps", "1/s", "higher", 0, "the oracle replay's own events/s: the single-threaded baseline"},
	// Wire.
	{"transport.result_path_us", "us", "lower", 0, "latency p50 over Dial minus over EmbedLive on the same input"},
	{"transport.wire_bytes_per_result", "bytes", "lower", 0, "wire result bytes ÷ results"},
	{"transport.tuples_per_frame", "count", "higher", 0, "results ÷ data frames"},
	{"transport.publish_rtt_us", "us", "lower", 0, "Source.Publish over TCP, median span"},
	{"transport.submit_rtt_us", "us", "lower", 0, "Client.Submit over TCP, median span"},
	{"transport.ingest_bytes_per_event", "bytes", "lower", 0, "bytes the server read ÷ events, traced held-rate phase"},
	// Where compute time sits (Stats().Stages).
	{"obs.stage_ingest_p50_ns", "ns", "lower", 0, "ingest stage p50"},
	{"obs.stage_route_p50_ns", "ns", "lower", 0, "route stage p50"},
	{"obs.stage_exec_p50_ns", "ns", "lower", 0, "exec stage p50"},
	{"obs.stage_deliver_p50_ns", "ns", "lower", 0, "deliver stage p50"},
	{"obs.stage_wire_p50_ns", "ns", "lower", 0, "wire stage p50"},
	// Diagnostics: reported, never gated. The first five are the issue's
	// timed end-to-end metrics, demoted under the same names; an untraced
	// run measures them too and prints them in its notes.
	{"throughput_eps", "1/s", "higher", 0, "saturation phase: source events/s through the 4096-event in-flight gate; median of the segments"},
	{"latency_p50_us", "us", "lower", 0, "held-rate phase: intended publish → receipt; median over the half-second windows of the per-window p50"},
	{"latency_p99_us", "us", "lower", 0, "held-rate phase: median over the half-second windows of the per-window p99"},
	{"cpu_us_per_event", "us", "lower", 0, "saturation phase: process user+sys CPU ÷ source events; median of the segments"},
	{"submit_p50_ms", "ms", "lower", 0, "Client.Submit wall time on a quiet system; median over the standing submits of the set-ups"},
	{"gen.sched_lag_p50_us", "us", "lower", 0, "how late the generator's ticks ran, median: the poller's wake-up, part of every latency"},
	{"gen.sched_lag_p99_us", "us", "lower", 0, "how late the generator's ticks ran, p99"},
	{"e2e.backlog_end", "count", "lower", 0, "standing results outstanding at the last publish"},
	{"e2e.latency_p999_us", "us", "lower", 0, "whole-phase p99.9 from the global histogram"},
	{"e2e.live_submit_p50_ms", "ms", "lower", 0, "Submit under traffic (churn ops), median"},
	{"e2e.first_result_p50_ms", "ms", "lower", 0, "Submit's return → first result (churn ops), median"},
	{"go.gc_cycles", "count", "lower", 0, "GC cycles over the traced held-rate phase"},
	{"go.gc_pause_ms", "ms", "lower", 0, "GC pause total over the traced held-rate phase"},
	{"go.goroutines", "count", "lower", 0, "goroutines at the end of the traced held-rate phase"},
	{"trace.overhead_pct", "%", "lower", 0, "traced vs untraced latency_p50_us, same run"},
}

// report prints a run: the notes and a table for people — an untraced
// run's with the diagnostics it measured — then, always last, the one
// JSON object the driver reads: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one. quiet prints that line
// only, and adds an untraced run's diagnostics to it (aa.sh summarizes
// them beside the gated metrics).
func report(out io.Writer, cfg config, res *result, quiet bool) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if !quiet {
		fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
		for _, n := range res.notes {
			fmt.Fprintf(out, "  %s\n", n)
		}
		for _, d := range defs {
			fmt.Fprintf(out, "%-34s %16.4f %-6s %s\n", d.name, res.metrics[d.name], d.unit, d.what)
		}
		if !cfg.trace {
			for _, d := range perLayer {
				if v, ok := res.metrics[d.name]; ok {
					fmt.Fprintf(out, "%-34s %16.4f %-6s diagnostic: %s\n", d.name, v, d.unit, d.what)
				}
			}
		}
		fmt.Fprintf(out, "%-34s %16d\n%-34s %16d\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	if quiet && !cfg.trace {
		for _, d := range perLayer {
			if v, ok := res.metrics[d.name]; ok {
				line.Metrics[d.name] = value{v, d.unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
