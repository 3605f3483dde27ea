// Package transport exposes a COSMOS deployment over TCP: a daemon
// (cmd/cosmosd) hosts the system and speaks a small gob-encoded
// request/response protocol with clients (cmd/cosmosctl or the Client
// type) that register streams, publish tuples, and submit continuous
// queries whose results stream back asynchronously.
//
// Tuples have one framing, the same in both directions: binary 'D'
// frames written by each side's single-writer pump (wire.go, pump.go),
// set up by the hello that opens the connection. Gob carries the control
// plane only. Publishing is pipelined: Source.Publish encodes into the
// connection's publish window and returns; the server applies frames in
// connection order and answers with cumulative acks (publish.go). A peer
// that speaks an older framing is refused at the hello by version;
// nothing selects a framing.
package transport

import "cosmos/internal/stream"

// WireField describes one schema attribute.
type WireField struct {
	Name   string
	Kind   uint8
	AvgLen int
}

// WireSchema is the gob-encodable form of stream.Schema.
type WireSchema struct {
	Stream string
	Fields []WireField
}

// ToWireSchema converts a schema.
func ToWireSchema(s *stream.Schema) WireSchema {
	out := WireSchema{Stream: s.Stream, Fields: make([]WireField, len(s.Fields))}
	for i, f := range s.Fields {
		out.Fields[i] = WireField{Name: f.Name, Kind: uint8(f.Kind), AvgLen: f.AvgLen}
	}
	return out
}

// FromWireSchema reconstructs a schema.
func FromWireSchema(w WireSchema) (*stream.Schema, error) {
	fields := make([]stream.Field, len(w.Fields))
	for i, f := range w.Fields {
		fields[i] = stream.Field{Name: f.Name, Kind: stream.Kind(f.Kind), AvgLen: f.AvgLen}
	}
	return stream.NewSchema(w.Stream, fields...)
}

// WireStats carries per-attribute statistics.
type WireStats struct {
	Attr     string
	Min, Max float64
	Distinct int
}

// WireInfo is the gob-encodable stream.Info.
type WireInfo struct {
	Schema WireSchema
	Rate   float64
	Stats  []WireStats
}

// ToWireInfo converts a catalog record.
func ToWireInfo(in *stream.Info) WireInfo {
	w := WireInfo{Schema: ToWireSchema(in.Schema), Rate: in.Rate, Stats: make([]WireStats, 0, len(in.Stats))}
	for attr, s := range in.Stats {
		w.Stats = append(w.Stats, WireStats{Attr: attr, Min: s.Min, Max: s.Max, Distinct: s.Distinct})
	}
	return w
}

// FromWireInfo reconstructs a catalog record.
func FromWireInfo(w WireInfo) (*stream.Info, error) {
	schema, err := FromWireSchema(w.Schema)
	if err != nil {
		return nil, err
	}
	info := &stream.Info{Schema: schema, Rate: w.Rate, Stats: map[string]stream.AttrStats{}}
	for _, s := range w.Stats {
		info.Stats[s.Attr] = stream.AttrStats{Min: s.Min, Max: s.Max, Distinct: s.Distinct}
	}
	return info, nil
}
