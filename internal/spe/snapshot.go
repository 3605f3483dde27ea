package spe

import (
	"fmt"

	"cosmos/internal/stream"
)

// Snapshot captures a plan's execution state — the live window buffers
// and the watermark — for query-layer fault tolerance (paper §2: the
// query-layer module "is responsible for recovering the processing of
// queries from failures"). A restored plan continues exactly where the
// snapshot was taken; derived state (join buckets, incremental
// aggregate accumulators) is rebuilt from the buffers on restore rather
// than exported.
type Snapshot struct {
	PlanID    string
	Watermark stream.Timestamp
	// Buffers maps alias → buffered live tuples in arrival order.
	Buffers map[string][]stream.Tuple
}

// Snapshot exports the plan's current state, materialising each
// input's live rows as tuples of its projected schema.
func (p *Plan) Snapshot() *Snapshot {
	s := &Snapshot{
		PlanID:    p.ID,
		Watermark: p.watermark,
		Buffers:   map[string][]stream.Tuple{},
	}
	for _, in := range p.inputs {
		s.Buffers[in.alias] = in.store.tuples(in.schema)
	}
	return s
}

// Restore loads a snapshot into a freshly compiled plan of the same
// query, refilling the row stores and with them the derived per-plan
// state (equi-join buckets, per-group aggregate accumulators). It errors
// when the snapshot's aliases do not match the plan, or when a restored
// tuple's layout does not match the plan's input schema.
func (p *Plan) Restore(s *Snapshot) error {
	for alias := range s.Buffers {
		if _, ok := p.byAlias[alias]; !ok {
			return fmt.Errorf("spe: snapshot alias %q unknown to plan %s", alias, p.ID)
		}
	}
	for _, in := range p.inputs {
		if _, ok := s.Buffers[in.alias]; !ok {
			return fmt.Errorf("spe: snapshot lacks alias %q", in.alias)
		}
	}
	p.watermark = s.Watermark
	if p.agg != nil {
		p.agg.reset()
	}
	for _, in := range p.inputs {
		in.store.reset()
		if in.hash != nil {
			in.hash.reset()
		}
		for _, t := range s.Buffers[in.alias] {
			// The stores trust the input schema layout; a snapshot from
			// the same query restores tuples adapted to an equal layout
			// under a different pointer.
			if t.Schema != in.schema && !t.Schema.Equal(in.schema) {
				return fmt.Errorf("spe: snapshot tuple of %s does not match plan %s input layout",
					t.Schema.Stream, p.ID)
			}
			ord := in.insert(t.Values, t.Ts)
			if p.agg != nil {
				p.agg.admit(&in.store, t.Values, ord)
			}
		}
	}
	return nil
}
