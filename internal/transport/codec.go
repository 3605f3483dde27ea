// Package transport exposes a COSMOS deployment over TCP: a daemon
// (cmd/cosmosd) hosts the system and speaks a small gob-encoded
// request/response protocol with clients (cmd/cosmosctl or the Client
// type) that register streams, publish tuples, and submit continuous
// queries whose results stream back asynchronously.
//
// Results have one framing: binary 'S'/'D' frames written by each
// connection's single-writer pump (wire.go, pump.go), set up by the
// hello that opens the connection. Gob carries the control plane and —
// until publishes get binary frames of their own — the tuples clients
// publish (WireTuple). A peer that speaks an older result framing is
// refused at the hello by version; nothing selects a framing.
package transport

import (
	"fmt"

	"cosmos/internal/stream"
)

// WireValue is the gob-encodable form of stream.Value.
type WireValue struct {
	Kind uint8
	N    int64
	F    float64
	S    string
}

// ToWireValue converts a value for transmission.
func ToWireValue(v stream.Value) WireValue {
	w := WireValue{Kind: uint8(v.Kind())}
	switch v.Kind() {
	case stream.KindInt:
		w.N = v.AsInt()
	case stream.KindFloat:
		w.F = v.AsFloat()
	case stream.KindString:
		w.S = v.AsString()
	case stream.KindBool:
		if v.AsBool() {
			w.N = 1
		}
	case stream.KindTime:
		w.N = int64(v.AsTime())
	}
	return w
}

// FromWireValue reconstructs a value.
func FromWireValue(w WireValue) (stream.Value, error) {
	switch stream.Kind(w.Kind) {
	case stream.KindInt:
		return stream.Int(w.N), nil
	case stream.KindFloat:
		return stream.Float(w.F), nil
	case stream.KindString:
		return stream.String_(w.S), nil
	case stream.KindBool:
		return stream.Bool(w.N != 0), nil
	case stream.KindTime:
		return stream.Time(stream.Timestamp(w.N)), nil
	default:
		return stream.Value{}, fmt.Errorf("transport: unknown value kind %d", w.Kind)
	}
}

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

// WireTuple is the gob-encodable form of stream.Tuple. The schema is
// referenced by stream name; both sides resolve it against their
// catalogues (schemas are flooded/registered before data flows).
type WireTuple struct {
	Stream string
	Ts     int64
	Values []WireValue
}

// ToWireTuple converts a tuple.
func ToWireTuple(t stream.Tuple) WireTuple {
	out := WireTuple{Stream: t.Schema.Stream, Ts: int64(t.Ts), Values: make([]WireValue, len(t.Values))}
	for i, v := range t.Values {
		out.Values[i] = ToWireValue(v)
	}
	return out
}

// FromWireTuple reconstructs a tuple against a known schema.
func FromWireTuple(w WireTuple, schema *stream.Schema) (stream.Tuple, error) {
	if schema == nil {
		return stream.Tuple{}, fmt.Errorf("transport: no schema for stream %q", w.Stream)
	}
	values := make([]stream.Value, len(w.Values))
	for i, wv := range w.Values {
		v, err := FromWireValue(wv)
		if err != nil {
			return stream.Tuple{}, err
		}
		values[i] = v
	}
	return stream.NewTuple(schema, stream.Timestamp(w.Ts), values...)
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
