package core

import (
	"cosmos/internal/cbn"
	"cosmos/internal/exec"
	"cosmos/internal/obs"
)

// SystemStats summarises a running deployment in the transport-
// independent shape the client API reports on every backend: the
// embedded clients fill it from the live System, and cmd/cosmosd ships
// it over the wire verbatim (all fields are plain data).
type SystemStats struct {
	// Queries is the number of live continuous queries.
	Queries int
	// Processors is the number of processor nodes (alive or crashed).
	Processors int
	// GroupsPerProc / LoadPerProc list, per processor, the installed
	// query groups and the assigned-query load.
	GroupsPerProc []int
	LoadPerProc   []int
	// TotalDataBytes sums tuple traffic over all overlay links.
	TotalDataBytes int64
	// Links holds per-link counters, sorted by (A, B). Both transports
	// account them through the one cbn.Fabric's per-link counters.
	Links []cbn.LinkStats

	// Ingested / Delivered count tuples accepted from sources and
	// results handed to subscribers (the ingest and deliver stage
	// counters).
	Ingested  int64
	Delivered int64
	// SampleEvery is the effective latency sampling period (0 =
	// sampling off): stage and plan histograms hold every
	// SampleEvery-th event.
	SampleEvery int64
	// Stages holds one entry per data-path stage (ingest, route, exec,
	// deliver, wire) in pipeline order: total event count plus the
	// sampled latency histogram.
	Stages []obs.StageStats
	// Plans holds one entry per installed plan across all processors,
	// sorted by (Proc, Plan).
	Plans []PlanStats
	// Workers holds one entry per exec worker across all processors
	// (empty for synchronous runtimes).
	Workers []WorkerStats
	// PlanErrsPerProc counts, per processor, plan execution failures.
	PlanErrsPerProc []int64
	// BrokerQueues gauges each broker node's mailbox backlog (live
	// transport only; nil on the simulated one, which has no mailboxes).
	BrokerQueues []int
	// Wire carries the TCP transport's result-path series. Only the
	// daemon-side server fills it; nil on embedded backends.
	Wire *obs.WireStats
}

// PlanStats is one installed plan's execution series plus its
// query-management context: which processor hosts it, which queries it
// serves, and the result stream carrying its output.
type PlanStats struct {
	exec.PlanStats
	Proc         int
	Queries      []string
	ResultStream string
}

// WorkerStats is one exec worker's series, tagged with its processor.
type WorkerStats struct {
	exec.WorkerStats
	Proc int
}

// StatsSnapshot captures the deployment's statistics. On the live
// transport the counters are read atomically but the snapshot is not a
// consistent cut under traffic; Quiesce first for exact readouts.
func (s *System) StatsSnapshot() SystemStats {
	st := SystemStats{
		Queries:        s.Queries(),
		Processors:     len(s.procs),
		TotalDataBytes: s.TotalDataBytes(),
		Ingested:       s.obs.StageCount(obs.StageIngest),
		Delivered:      s.obs.StageCount(obs.StageDeliver),
		SampleEvery:    s.obs.SampleEvery(),
		Stages:         s.obs.StageSnapshots(),
	}
	for _, p := range s.procs {
		st.GroupsPerProc = append(st.GroupsPerProc, p.Groups())
		st.LoadPerProc = append(st.LoadPerProc, p.Load())
		st.PlanErrsPerProc = append(st.PlanErrsPerProc, p.PlanErrors())

		if !p.Alive() {
			continue // its runtime closed with it; the survivor lists what it adopted
		}
		plans, workers := p.rt.StatsSnapshot()
		for _, ps := range plans {
			tags, res := p.planQueries(ps.Plan)
			st.Plans = append(st.Plans, PlanStats{
				PlanStats:    ps,
				Proc:         p.ID,
				Queries:      tags,
				ResultStream: res,
			})
		}
		for _, ws := range workers {
			st.Workers = append(st.Workers, WorkerStats{WorkerStats: ws, Proc: p.ID})
		}
	}
	if s.live != nil {
		st.BrokerQueues = s.live.QueueDepths()
	}
	for _, ls := range s.NetStats() {
		st.Links = append(st.Links, *ls)
	}
	return st
}
