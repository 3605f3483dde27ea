package spe

import (
	"fmt"

	"cosmos/internal/stream"
)

// Snapshot captures a plan's execution state — the live window buffers
// and the watermark — for query-layer fault tolerance (paper §2: the
// query-layer module "is responsible for recovering the processing of
// queries from failures"). A restored plan continues exactly where the
// snapshot was taken; derived state (hash partitions, incremental
// aggregate accumulators) is rebuilt from the buffers on restore rather
// than exported.
type Snapshot struct {
	PlanID    string
	Watermark stream.Timestamp
	// Buffers maps alias → buffered live tuples in arrival order.
	Buffers map[string][]stream.Tuple
}

// Snapshot exports the plan's current state. Tuples are shared, not
// copied; they are immutable by convention.
func (p *Plan) Snapshot() *Snapshot {
	s := &Snapshot{
		PlanID:    p.ID,
		Watermark: p.watermark,
		Buffers:   map[string][]stream.Tuple{},
	}
	for _, in := range p.inputs {
		s.Buffers[in.alias] = append([]stream.Tuple(nil), in.live()...)
	}
	return s
}

// Restore loads a snapshot into a freshly compiled plan of the same
// query, rebuilding the derived per-plan state (equi-join partitions,
// per-group aggregate accumulators) from the restored buffers. It errors
// when the snapshot's aliases do not match the plan, or when a restored
// tuple's layout does not match the plan's input schema.
func (p *Plan) Restore(s *Snapshot) error {
	for alias := range s.Buffers {
		if _, ok := p.byAlias[alias]; !ok {
			return fmt.Errorf("spe: snapshot alias %q unknown to plan %s", alias, p.ID)
		}
	}
	for _, in := range p.inputs {
		buf, ok := s.Buffers[in.alias]
		if !ok {
			return fmt.Errorf("spe: snapshot lacks alias %q", in.alias)
		}
		for i := len(buf); i < len(in.buf); i++ {
			in.buf[i] = stream.Tuple{} // release refs beyond the restored length
		}
		in.buf = append(in.buf[:0], buf...)
		in.head, in.base, in.evicted = 0, 0, 0
	}
	p.watermark = s.Watermark
	return p.rebuildState()
}

// rebuildState reconstructs the derived state from the live buffers.
func (p *Plan) rebuildState() error {
	if p.agg != nil {
		p.agg.reset()
	}
	for _, in := range p.inputs {
		if in.hash != nil {
			in.hash.reset()
		}
		for i, t := range in.live() {
			// Index access trusts the input schema layout; a snapshot
			// from the same query restores tuples adapted to an equal
			// layout under a different pointer.
			if t.Schema != in.schema && !t.Schema.Equal(in.schema) {
				return fmt.Errorf("spe: snapshot tuple of %s does not match plan %s input layout",
					t.Schema.Stream, p.ID)
			}
			seq := in.base + uint64(in.head+i)
			if in.hash != nil {
				in.hash.insert(t, seq)
			}
			if p.agg != nil {
				p.agg.admit(t, seq)
			}
		}
	}
	return nil
}
