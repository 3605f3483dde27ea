package cost_test

import (
	"testing"

	"cosmos/internal/cost"
	"cosmos/internal/predicate"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
)

// sensorDisjuncts returns the first n querygen selections on Sensor00
// (zipf1.0 over four streams, five predicate templates): the disjuncts a
// broker's demand union over one sensor stream compares.
func sensorDisjuncts(t *testing.T, n int) (predicate.DNF, *stream.Info) {
	reg := stream.NewRegistry()
	if err := sensordata.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	g, err := querygen.New(querygen.Config{Dist: querygen.Zipf10, Streams: 4, Seed: 1, PredicateTemplates: 5})
	if err != nil {
		t.Fatal(err)
	}
	name := sensordata.StreamName(0)
	var d predicate.DNF
	for len(d) < n {
		q, err := g.BindBatch(1, reg)
		if err != nil {
			t.Fatal(err)
		}
		if ref := q[0].From[0]; ref.Stream == name {
			d = append(d, q[0].Sel[ref.Alias]...)
		}
	}
	info, _ := reg.Lookup(name)
	return d[:n], info
}

// TestPredicateAlgebraAllocations pins the control plane's predicate
// work: Simplify and ImpliesDNF summarise each disjunct once, so their
// allocations grow with the disjuncts, not with the pairs compared.
func TestPredicateAlgebraAllocations(t *testing.T) {
	const n = 32
	d, info := sensorDisjuncts(t, n)
	if got := testing.AllocsPerRun(10, func() { d.Simplify() }); got > 4*n {
		t.Errorf("Simplify of %d disjuncts: %.0f allocations, want at most %d", n, got, 4*n)
	}
	a, b := d[:n/2], d[n/2:]
	if got := testing.AllocsPerRun(10, func() { predicate.ImpliesDNF(a, b) }); got > 4*n {
		t.Errorf("ImpliesDNF of %d disjuncts: %.0f allocations, want at most %d", n, got, 4*n)
	}
	var e cost.Estimator
	if got := testing.AllocsPerRun(10, func() { e.SelectivityDNF(info, d) }); got > 288 {
		t.Errorf("SelectivityDNF of %d disjuncts: %.0f allocations, want at most 288", n, got)
	}
}
