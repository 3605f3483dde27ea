package load

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/obs"
)

// SchemaVersion identifies the BENCH_<area>.json report layout. Bump it
// when fields change meaning; readers keep older reports verbatim in
// the history block, so a file's trajectory survives schema changes.
const SchemaVersion = "cosmos-load/v1"

// Report is one trajectory point of an area's sustained-load behaviour:
// what was offered, what the machine was, what came back, and how late.
// Successive PRs append comparable points by re-running the same
// scenario and letting WriteReport push the previous point into History.
type Report struct {
	Schema    string       `json:"schema"`
	Area      string       `json:"area"`
	Scenario  string       `json:"scenario"`
	Generated string       `json:"generated,omitempty"`
	Machine   Machine      `json:"machine"`
	Config    ReportConfig `json:"config"`
	Results   Results      `json:"results"`
	// Stages is the per-stage view over the run: event-count delta plus
	// the sampled latency quantiles of the system's obs histograms.
	Stages []StageReport `json:"stages,omitempty"`
	// History holds earlier reports for this area, oldest first, each
	// stripped of its own history block. Entries are raw JSON so points
	// written under older schemas (e.g. the pre-harness flat
	// BENCH_transport.json) survive verbatim.
	History []json.RawMessage `json:"history,omitempty"`
}

// Machine records where the numbers were taken — without it a
// trajectory across PRs is meaningless.
type Machine struct {
	Go       string `json:"go"`
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	CPUs     int    `json:"cpus"`
	MaxProcs int    `json:"maxprocs"`
}

// ReportConfig echoes the run's effective configuration.
type ReportConfig struct {
	Backend    string  `json:"backend"`
	RatePerSec int     `json:"rate_per_s"`
	DurationS  float64 `json:"duration_s,omitempty"`
	Events     int     `json:"events,omitempty"`
	Subs       int     `json:"subscribers,omitempty"`
	Clients    int     `json:"clients,omitempty"`
	Streams    int     `json:"streams,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	Seed       int64   `json:"seed"`
	Shifts     int     `json:"schedule_shifts,omitempty"`
}

// Results is the measured outcome of the run.
type Results struct {
	Published  int64 `json:"published"`
	Expected   int64 `json:"expected,omitempty"`
	Delivered  int64 `json:"delivered"`
	Lost       int64 `json:"lost"`
	Duplicated int64 `json:"duplicated"`

	OfferedPerSec   float64 `json:"offered_per_s"`
	AchievedPerSec  float64 `json:"achieved_per_s"`
	DeliveredPerSec float64 `json:"delivered_per_s"`
	ElapsedS        float64 `json:"elapsed_s"`

	NsPerResult     float64 `json:"ns_per_result"`
	AllocsPerResult float64 `json:"allocs_per_result"`

	// LatencyUs is end-to-end delivery latency measured from each
	// tuple's intended (scheduled) publish time — scheduling backlog
	// counts against it, so coordinated omission cannot fake good tails.
	LatencyUs LatencySummary `json:"latency_us"`
	// SvcLatencyUs is delivery latency measured from the tuple's actual
	// publish instant: the service time of the path alone, excluding
	// driver backlog (the pre-harness transport bench's definition).
	// Absent when the scenario cannot stamp actual publish times.
	SvcLatencyUs *LatencySummary `json:"svc_latency_us,omitempty"`
	// SchedLagUs is the pacer's per-tick scheduling lag (0 when a tick
	// fired on time): the run's own evidence the offered rate was held.
	SchedLagUs LatencySummary `json:"sched_lag_us"`
}

// LatencySummary is the standard quantile block, in microseconds.
type LatencySummary struct {
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P9999 float64 `json:"p9999"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// StageReport is one data-path stage's view over the run.
type StageReport struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

// summarize renders a histogram snapshot into the microsecond quantile
// block.
func summarize(h obs.HistSnapshot) LatencySummary {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return LatencySummary{
		P50:   us(h.Quantile(0.50)),
		P99:   us(h.Quantile(0.99)),
		P9999: us(h.Quantile(0.9999)),
		Max:   us(h.Max),
		Mean:  h.Mean() / 1e3,
	}
}

// machineInfo fills the Machine block from the running process.
func machineInfo() Machine {
	return Machine{
		Go:       runtime.Version(),
		OS:       runtime.GOOS,
		Arch:     runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		MaxProcs: runtime.GOMAXPROCS(0),
	}
}

// stageReports distills the stage series bracketing a run into the
// report block: counts are window deltas; quantiles read the end
// snapshot (quantiles of merged histograms cannot be subtracted — on a
// system assembled fresh for the run they are the run's own).
func stageReports(prev, cur core.SystemStats) []StageReport {
	prevCount := map[string]int64{}
	for _, s := range prev.Stages {
		prevCount[s.Stage] = s.Count
	}
	var out []StageReport
	for _, s := range cur.Stages {
		out = append(out, StageReport{
			Stage: s.Stage,
			Count: s.Count - prevCount[s.Stage],
			P50Us: float64(s.Lat.Quantile(0.50)) / 1e3,
			P99Us: float64(s.Lat.Quantile(0.99)) / 1e3,
		})
	}
	return out
}

// WriteReport writes rep to path as indented JSON. When the file
// already holds a report — this schema or an older one — the old
// content is pushed onto the new report's history (oldest first), its
// own history block hoisted, so the file accumulates the area's full
// trajectory across PRs.
func WriteReport(path string, rep *Report) error {
	out := *rep
	out.Schema = SchemaVersion
	if out.Generated == "" {
		out.Generated = time.Now().UTC().Format(time.RFC3339)
	}
	out.Machine = machineInfo()

	if old, err := os.ReadFile(path); err == nil && len(old) > 0 {
		hist, prev, err := splitHistory(old)
		if err != nil {
			return fmt.Errorf("load: cannot migrate existing %s: %w", path, err)
		}
		out.History = append(hist, prev)
	}

	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// splitHistory separates an existing report file into its history
// entries and the report itself (stripped of the history field).
func splitHistory(data []byte) (hist []json.RawMessage, self json.RawMessage, err error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		return nil, nil, err
	}
	if rawHist, ok := obj["history"]; ok {
		if err := json.Unmarshal(rawHist, &hist); err != nil {
			return nil, nil, err
		}
		delete(obj, "history")
	}
	self, err = json.Marshal(obj)
	return hist, self, err
}
