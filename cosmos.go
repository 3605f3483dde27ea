// Package cosmos is a Go implementation of COSMOS — the COoperative and
// Self-tuning Management Of Streaming data system of "Rethinking the
// Design of Distributed Stream Processing Systems" (Zhou, Aberer,
// Salehi, Tan; ICDE 2008).
//
// COSMOS routes high-rate data streams through a content-based network
// (CBN): sources publish named, schema'd streams without knowing their
// consumers; processors and users express data interest as profiles
// ⟨S, P, F⟩ — stream set, projection attributes, and filters — and the
// network filters and projects datagrams as early as possible. On top of
// that substrate, overlapping continuous queries are merged into
// representative queries executed once; the representative's result
// stream is split back into per-user results by re-tightening profiles
// inside the network.
//
// # Quick start
//
// The Client interface is the session surface — the same code drives a
// deployment embedded over the deterministic SimNet (Embed), embedded
// over the concurrent LiveNet (EmbedLive), or remote behind a cosmosd
// daemon (Dial):
//
//	sys, _ := cosmos.NewSystem(cosmos.Options{Nodes: 32, Seed: 1})
//	client := cosmos.Embed(sys) // or cosmos.EmbedLive(ls), cosmos.Dial(addr)
//	schema := cosmos.MustSchema("Trades",
//		cosmos.Field{Name: "symbol", Kind: cosmos.KindString},
//		cosmos.Field{Name: "price", Kind: cosmos.KindFloat},
//	)
//	src, _ := client.RegisterStream(&cosmos.StreamInfo{Schema: schema, Rate: 100}, 0)
//	sub, _ := client.Submit(ctx,
//		"SELECT symbol, price FROM Trades [Range 5 Minute] WHERE price > 100", 7)
//	src.Publish(cosmos.MustTuple(schema, 1,
//		cosmos.String("ACME"), cosmos.Float(101.5)))
//	for t := range sub.Results() { fmt.Println(t) }
//
// Results are read-only: a delivered result's Values share the routed
// tuple's backing array wherever its columns form a run of it, so a
// consumer keeps them as long as it likes but writes only to a
// Tuple.Clone. A fresh row the system builds is cut from a chunk of
// values it shares with other rows, and a result kept keeps its chunk
// alive, at most one (2.5 KiB) per result: Clone what is kept
// long-term. Publish, in turn, takes ownership of a tuple's Values.
//
// The underlying System/LiveSystem callback API (System.Submit) remains
// available for embedded deployments; SubmitFunc adapts the callback
// form onto any Client.
//
// The deeper machinery — the CQL-subset analyzer, continuous-query
// containment (Theorems 1–2 of the paper), the merging optimiser, the
// CBN broker protocol, the overlay optimiser, and the evaluation harness
// reproducing the paper's Figure 4 — lives in the internal packages and
// is exercised by the examples, the cmd tools and the benchmarks.
package cosmos

import (
	"cosmos/internal/core"
	"cosmos/internal/cql"
	"cosmos/internal/merge"
	"cosmos/internal/stream"
)

// System is an in-process COSMOS deployment: an overlay of brokers and
// processors connected by a content-based network. A System from
// NewSystem runs a publish, and the result callbacks and
// Options.OnPlanError it triggers, under its own lock: those callbacks
// must not call back into it (see core.System.Submit).
type System = core.System

// LiveSystem is a System deployed over the concurrent goroutine-per-
// broker network, with processors publishing results directly into it.
type LiveSystem = core.LiveSystem

// Options configures NewSystem.
type Options = core.Options

// QueryHandle identifies a live continuous query and delivers results.
type QueryHandle = core.QueryHandle

// SourcePort publishes one registered source stream.
type SourcePort = core.SourcePort

// Processor is a COSMOS server with a stream processing engine.
type Processor = core.Processor

// Placement policies for the query-distribution (load management)
// service.
const (
	LeastLoaded   = core.LeastLoaded
	NearestToUser = core.NearestToUser
	RoundRobin    = core.RoundRobin
)

// MergeExactUnion and MergeConvexHull select how member predicates
// combine into representative queries.
const (
	MergeExactUnion = merge.ExactUnion
	MergeConvexHull = merge.ConvexHull
)

// Data model re-exports.
type (
	// Tuple is one timestamped element of a stream.
	Tuple = stream.Tuple
	// Schema is the ordered attribute list of a stream.
	Schema = stream.Schema
	// Field is one schema attribute.
	Field = stream.Field
	// Value is a dynamically typed attribute value.
	Value = stream.Value
	// StreamInfo is the catalog record of a stream: schema, rate, stats.
	StreamInfo = stream.Info
	// AttrStats summarises one attribute's value distribution.
	AttrStats = stream.AttrStats
	// Timestamp is an application timestamp in milliseconds.
	Timestamp = stream.Timestamp
	// Duration is a window length in milliseconds.
	Duration = stream.Duration
)

// Attribute kinds.
const (
	KindInt    = stream.KindInt
	KindFloat  = stream.KindFloat
	KindString = stream.KindString
	KindBool   = stream.KindBool
	KindTime   = stream.KindTime
)

// Window duration units and sentinels.
const (
	Millisecond = stream.Millisecond
	Second      = stream.Second
	Minute      = stream.Minute
	Hour        = stream.Hour
	Day         = stream.Day
	Now         = stream.Now
	Unbounded   = stream.Unbounded
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = stream.Int
	// Float builds a float value.
	Float = stream.Float
	// String builds a string value.
	String = stream.String_
	// Bool builds a boolean value.
	Bool = stream.Bool
	// Time builds a timestamp value.
	Time = stream.Time
)

// NewSystem builds an in-process COSMOS deployment: a power-law overlay
// topology, an MST dissemination tree, the CBN, and the processors. The
// network is the deterministic single-threaded simulator (the paper's
// evaluation substrate) and plans run inline, so Options.ExecWorkers > 0
// is refused; see NewLiveSystem for the concurrent transport.
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// NewLiveSystem builds the same deployment over the concurrent
// transport: one goroutine per broker, sharded execution runtimes on
// the processors (Options.ExecWorkers) fed directly by their network
// delivery pumps, and workers publishing results straight into the
// network — results reach subscribers while ingest continues. Per
// query, result sequences match the synchronous System.
// Call Close to release the network and runtime goroutines; Quiesce is
// a stabilisation barrier for tests and readouts, not a data-path step.
func NewLiveSystem(opts Options) (*LiveSystem, error) { return core.NewLiveSystem(opts) }

// NewSchema builds a stream schema, validating field names.
func NewSchema(streamName string, fields ...Field) (*Schema, error) {
	return stream.NewSchema(streamName, fields...)
}

// MustSchema is NewSchema that panics on error.
func MustSchema(streamName string, fields ...Field) *Schema {
	return stream.MustSchema(streamName, fields...)
}

// NewTuple builds a tuple, validating arity and kinds against the schema.
func NewTuple(s *Schema, ts Timestamp, values ...Value) (Tuple, error) {
	return stream.NewTuple(s, ts, values...)
}

// MustTuple is NewTuple that panics on error.
func MustTuple(s *Schema, ts Timestamp, values ...Value) Tuple {
	return stream.MustTuple(s, ts, values...)
}

// ParseQuery parses a CQL statement without binding it to a catalog;
// useful for validation. Explain additionally reports the parsed shape
// (streams, windows, select list).
func ParseQuery(text string) error {
	_, err := cql.Parse(text)
	return err
}
