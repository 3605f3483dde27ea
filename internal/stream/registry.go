package stream

import (
	"fmt"
	"sort"
	"sync"
)

// AttrStats summarises the value distribution of one numeric attribute,
// used by the cost model for selectivity estimation (uniformity assumed,
// as is standard for System-R style estimators).
type AttrStats struct {
	Min, Max float64
	Distinct int // number of distinct values; 0 means unknown
}

// Span returns the width of the attribute's active domain.
func (a AttrStats) Span() float64 {
	if a.Max <= a.Min {
		return 0
	}
	return a.Max - a.Min
}

// Info is the registry record for one stream: its schema, its publication
// rate, and per-attribute statistics. Sources advertise Info records to the
// data layer (paper §2: "data sources advertise the source streams").
type Info struct {
	Schema *Schema
	// Rate is the publication rate in tuples per second.
	Rate float64
	// Stats holds per-attribute numeric statistics keyed by attribute name.
	Stats map[string]AttrStats
}

// TupleWidth returns the assumed full-tuple wire width in bytes.
func (in *Info) TupleWidth() int { return in.Schema.TupleWidth() + 8 }

// Bps returns the full-rate bandwidth of the stream in bytes per second.
func (in *Info) Bps() float64 { return in.Rate * float64(in.TupleWidth()) }

// Registry is a thread-safe catalogue of stream Info records. The paper
// (§3) floods the schema catalogue to every node when the number of
// streams is small and proposes a DHT keyed by stream name otherwise;
// this implementation floods only — every node of a deployment shares
// one Registry.
type Registry struct {
	mu      sync.RWMutex
	streams map[string]*Info
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{streams: make(map[string]*Info)}
}

// Register adds or replaces the record for a stream. It errors if the
// schema's stream name is empty.
func (r *Registry) Register(info *Info) error {
	if info == nil || info.Schema == nil || info.Schema.Stream == "" {
		return fmt.Errorf("stream: registering invalid stream info")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams[info.Schema.Stream] = info
	return nil
}

// Lookup returns the record for a stream name.
func (r *Registry) Lookup(name string) (*Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	in, ok := r.streams[name]
	return in, ok
}

// Schema returns just the schema for a stream name.
func (r *Registry) Schema(name string) (*Schema, bool) {
	in, ok := r.Lookup(name)
	if !ok {
		return nil, false
	}
	return in.Schema, true
}

// Deregister removes a stream record; removing an absent name is a no-op.
func (r *Registry) Deregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.streams, name)
}

// Names returns all registered stream names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.streams))
	for n := range r.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered streams.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.streams)
}

// Snapshot returns a copy of the registry's records keyed by stream name;
// used by the flooding dissemination path.
func (r *Registry) Snapshot() map[string]*Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Info, len(r.streams))
	for k, v := range r.streams {
		out[k] = v
	}
	return out
}
