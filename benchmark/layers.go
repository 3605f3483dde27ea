package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cosmos"
	"cosmos/internal/cbn"
	"cosmos/internal/containment"
	"cosmos/internal/core"
	"cosmos/internal/cql"
	"cosmos/internal/exec"
	"cosmos/internal/merge"
	"cosmos/internal/overlay"
	"cosmos/internal/predicate"
	"cosmos/internal/profile"
	"cosmos/internal/spe"
	"cosmos/internal/stream"
	"cosmos/internal/topology"
)

// The layer replays drive each module's public functions in isolation
// with the workload's own queries and tuples — measured from outside, by
// timing the calls; nothing inside the modules is touched. Each replay
// is one span under the trace's "replay" root.

// replayChunk is how many tuples a data-path replay generates (untimed)
// before pushing them through the layer (timed).
const replayChunk = 4096

// minSamples is the least number of timed calls a control-plane replay
// collects before taking a median: it repeats the workload's queries in
// rounds until it has them.
const minSamples = 256

type layerReplay struct {
	w    *workload
	seed int64
	n    int // events replayed on the data path: the warm-up prefix
	m    map[string]float64

	reg    *stream.Registry
	bounds []*cql.Bound // the standing queries, bound
	reps   []*cql.Bound // their merged representatives
}

// replayLayers runs every layer replay and files the metrics in m.
func replayLayers(w *workload, seed int64, n int, tr *tracer, m map[string]float64) error {
	lr := &layerReplay{w: w, seed: seed, n: n, m: m, reg: stream.NewRegistry()}
	for _, s := range w.streams {
		if err := lr.reg.Register(s.info); err != nil {
			return err
		}
	}
	root := tr.begin("replay", -1)
	defer tr.end(root)
	steps := []struct {
		name string
		run  func() error
	}{
		{"cql", lr.cql}, {"containment", lr.containment}, {"merge", lr.merge}, {"exec.install", lr.install},
		{"profile", lr.profile}, {"overlay", lr.overlay}, {"core.submit", lr.submit}, {"predicate", lr.predicate},
		{"cbn", lr.cbn}, {"spe", lr.spe}, {"exec.consume", lr.consume},
	}
	for _, st := range steps {
		id := tr.begin("replay."+st.name, root)
		err := st.run()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay %s: %w", st.name, err)
		}
	}
	return nil
}

// timeEach calls fn(i) for i in [0, n) in rounds until minSamples calls
// are timed and returns the median call time in µs. setup, when
// non-nil, runs untimed before every round.
func timeEach(n int, setup func() error, fn func(i int) error) (float64, error) {
	var us []float64
	for len(us) < minSamples {
		if setup != nil {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := fn(i)
			us = append(us, float64(time.Since(t0))/1e3)
			if err != nil {
				return 0, err
			}
		}
	}
	return median(us), nil
}

func (lr *layerReplay) cql() error {
	qs := lr.w.standing
	var err error
	lr.m["cql.parse_bind_us"], err = timeEach(len(qs), nil, func(i int) error {
		_, err := cql.AnalyzeString(qs[i].cql, lr.reg)
		return err
	})
	if err != nil {
		return err
	}
	for _, q := range qs {
		b, err := cql.AnalyzeString(q.cql, lr.reg)
		if err != nil {
			return err
		}
		lr.bounds = append(lr.bounds, b)
	}
	return nil
}

func (lr *layerReplay) containment() error {
	n := len(lr.bounds)
	pairs := n * (n - 1)
	if pairs > 4096 {
		pairs = 4096
	}
	var err error
	lr.m["containment.check_us"], err = timeEach(pairs, nil, func(k int) error {
		i, j := k/(n-1), k%(n-1)
		if j >= i {
			j++
		}
		containment.Contains(lr.bounds[i], lr.bounds[j])
		return nil
	})
	return err
}

func (lr *layerReplay) newOptimizer() *merge.Optimizer {
	o := lr.w.opts
	return merge.NewOptimizer(merge.Options{Mode: o.Mode, MaxCandidates: 64})
}

func (lr *layerReplay) merge() error {
	tag := func(i int) string { return fmt.Sprintf("q%03d", i) }
	var opt *merge.Optimizer
	fresh := func() error { opt = lr.newOptimizer(); return nil }
	var err error
	lr.m["merge.add_us"], err = timeEach(len(lr.bounds), fresh, func(i int) error {
		_, err := opt.Add(tag(i), lr.bounds[i])
		return err
	})
	if err != nil {
		return err
	}
	for _, g := range opt.Groups() {
		lr.reps = append(lr.reps, g.Rep)
	}
	full := func() error {
		opt = lr.newOptimizer()
		for i, b := range lr.bounds {
			if _, err := opt.Add(tag(i), b); err != nil {
				return err
			}
		}
		return nil
	}
	lr.m["merge.remove_us"], err = timeEach(len(lr.bounds), full, func(i int) error {
		if _, ok := opt.Remove(tag(i)); !ok {
			return fmt.Errorf("tag %s not in the optimiser", tag(i))
		}
		return nil
	})
	return err
}

func (lr *layerReplay) install() error {
	var rt *exec.Runtime
	fresh := func() error { rt = exec.New(exec.Config{}); return nil }
	var err error
	lr.m["exec.install_us"], err = timeEach(len(lr.reps), fresh, func(i int) error {
		_, err := rt.Install(fmt.Sprintf("p%03d", i), lr.reps[i], fmt.Sprintf("res%03d", i))
		return err
	})
	return err
}

func (lr *layerReplay) profile() error {
	type job struct {
		p *profile.Profile
		s *stream.Schema
	}
	var jobs []job
	for _, b := range lr.bounds {
		p := profile.FromQuery(b)
		for _, ref := range b.From {
			jobs = append(jobs, job{p, b.Schemas[ref.Alias]})
		}
	}
	var err error
	lr.m["profile.compile_us"], err = timeEach(len(jobs), nil, func(i int) error {
		_, err := jobs[i].p.CompileFor(jobs[i].s)
		return err
	})
	return err
}

// buildTree makes the workload's dissemination tree the way core does.
func (lr *layerReplay) buildTree() (*overlay.Tree, error) {
	o := lr.w.opts
	if o.Tree != nil {
		return o.Tree, o.Tree.Validate()
	}
	g, err := topology.GeneratePowerLaw(o.Nodes, 2, o.Seed)
	if err != nil {
		return nil, err
	}
	return overlay.MST(g, 0)
}

func (lr *layerReplay) overlay() error {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := lr.buildTree(); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	lr.m["overlay.build_ms"] = median(ms)
	return nil
}

// submit times EmbedLive Submit on scratch deployments: core's whole
// control path (bind, place, merge, install, advertise, subscribe).
func (lr *layerReplay) submit() error {
	var ls *core.LiveSystem
	var c cosmos.Client
	closeAll := func() {
		if c != nil {
			_ = c.Close()
			ls.Close()
		}
	}
	defer func() { closeAll() }()
	fresh := func() error {
		closeAll()
		var err error
		if ls, err = core.NewLiveSystem(lr.w.opts); err != nil {
			return err
		}
		c = cosmos.EmbedLive(ls)
		for _, s := range lr.w.streams {
			if _, err := c.RegisterStream(s.info, s.node); err != nil {
				return err
			}
		}
		return nil
	}
	qs := lr.w.standing
	var err error
	lr.m["core.submit_us"], err = timeEach(len(qs), fresh, func(i int) error {
		sub, err := c.Submit(context.Background(), qs[i].cql, qs[i].node)
		if err == nil {
			go func() {
				for range sub.Results() {
				}
			}()
		}
		return err
	})
	return err
}

// eachChunk regenerates the first lr.n events in chunks, calling timed
// with each chunk inside the stopwatch, and returns the ns spent there.
func (lr *layerReplay) eachChunk(timed func(streams []int, tuples []stream.Tuple)) float64 {
	f := newFeed(lr.w, lr.seed)
	streams := make([]int, 0, replayChunk)
	tuples := make([]stream.Tuple, 0, replayChunk)
	var ns int64
	for f.i < lr.n {
		streams, tuples = streams[:0], tuples[:0]
		for len(tuples) < replayChunk && f.i < lr.n {
			si, t := f.next()
			streams, tuples = append(streams, si), append(tuples, t)
		}
		t0 := time.Now()
		timed(streams, tuples)
		ns += int64(time.Since(t0))
	}
	return float64(ns)
}

func (lr *layerReplay) predicate() error {
	// byStream[s] are the compiled selection predicates over stream s.
	byStream := make([][]*predicate.Compiled, len(lr.w.streams))
	index := map[string]int{}
	for i, s := range lr.w.streams {
		index[s.info.Schema.Stream] = i
	}
	for _, b := range lr.bounds {
		for _, ref := range b.From {
			sel := b.Sel[ref.Alias]
			if sel.IsTrue() {
				continue
			}
			c, err := predicate.Compile(sel, b.Schemas[ref.Alias])
			if err != nil {
				return err
			}
			byStream[index[ref.Stream]] = append(byStream[index[ref.Stream]], c)
		}
	}
	var evals, matches int64
	ns := lr.eachChunk(func(streams []int, tuples []stream.Tuple) {
		for k, t := range tuples {
			for _, c := range byStream[streams[k]] {
				evals++
				if c.EvalValues(t.Values, t.Ts) {
					matches++
				}
			}
		}
	})
	if evals > 0 {
		lr.m["predicate.eval_ns"] = ns / float64(evals)
		lr.m["predicate.match_ratio"] = float64(matches) / float64(evals)
	}
	return nil
}

// cbn replays the network layer on a SimNet of the workload's overlay:
// the representatives' source profiles subscribed from the tree's root
// (timed per subscription), then every tuple routed by its source's
// broker (timed per chunk).
func (lr *layerReplay) cbn() error {
	tree, err := lr.buildTree()
	if err != nil {
		return err
	}
	var net *cbn.SimNet
	var srcs []*cbn.SimClient
	var proc *cbn.SimClient
	fresh := func() error {
		net = cbn.NewSimNetFromTree(tree)
		net.SetCatalog(lr.reg)
		srcs = srcs[:0]
		for _, s := range lr.w.streams {
			c := net.AttachClient(s.node)
			c.Advertise(s.info.Schema.Stream)
			srcs = append(srcs, c)
		}
		proc = net.AttachClient(tree.Root)
		proc.SetOnTuple(func(stream.Tuple) {})
		return net.Err()
	}
	lr.m["cbn.subscribe_us"], err = timeEach(len(lr.reps), fresh, func(i int) error {
		proc.Subscribe(profile.FromQuery(lr.reps[i]))
		return net.Err()
	})
	if err != nil {
		return err
	}
	var scratch []cbn.Delivery
	var routeErr error
	before := mallocs()
	ns := lr.eachChunk(func(streams []int, tuples []stream.Tuple) {
		for k, t := range tuples {
			src := srcs[streams[k]]
			if scratch, routeErr = net.Broker(src.Node).RouteTupleInto(t, src.Iface(), scratch[:0]); routeErr != nil {
				return
			}
		}
	})
	if routeErr != nil {
		return routeErr
	}
	// The feed allocates one value slice per event; the rest is routing's.
	lr.m["cbn.route_allocs"] = float64(mallocs()-before)/float64(lr.n) - 1
	lr.m["cbn.route_ns"] = ns / float64(lr.n)
	return nil
}

// spe pushes the replay prefix through the merged representatives,
// compiled as the processors would compile them, one operator class at a
// time.
func (lr *layerReplay) spe() error {
	heap0 := liveHeap()

	classes := map[string][]*spe.Plan{}
	var all []*spe.Plan
	for i, rep := range lr.reps {
		p, err := spe.Compile(fmt.Sprintf("p%03d", i), rep, fmt.Sprintf("res%03d", i))
		if err != nil {
			return err
		}
		class := "select"
		switch {
		case rep.IsAggregate():
			class = "agg"
		case len(rep.From) > 1:
			class = "join"
		}
		classes[class] = append(classes[class], p)
		all = append(all, p)
	}
	var pushes, emits int64
	before := mallocs()
	for class, plans := range classes {
		byStream := make([][]*spe.Plan, len(lr.w.streams))
		for _, p := range plans {
			for _, in := range p.InputStreams() {
				for si, s := range lr.w.streams {
					if s.info.Schema.Stream == in {
						byStream[si] = append(byStream[si], p)
					}
				}
			}
		}
		var n int64
		var pushErr error
		ns := lr.eachChunk(func(streams []int, tuples []stream.Tuple) {
			for k, t := range tuples {
				for _, p := range byStream[streams[k]] {
					out, err := p.Push(t)
					if err != nil {
						pushErr = err
					}
					n++
					emits += int64(len(out))
				}
			}
		})
		if pushErr != nil {
			return pushErr
		}
		pushes += n
		if n > 0 {
			lr.m["spe.push_"+class+"_ns"] = ns / float64(n)
		}
	}
	if pushes > 0 {
		// One value slice per event per class pass is the feed's.
		feed := float64(len(classes) * lr.n)
		lr.m["spe.push_allocs"] = (float64(mallocs()-before) - feed) / float64(pushes)
		lr.m["spe.emit_ratio"] = float64(emits) / float64(pushes)
	}
	lr.m["spe.state_mb"] = (float64(liveHeap()) - float64(heap0)) / (1 << 20)
	runtime.KeepAlive(all)
	return nil
}

func (lr *layerReplay) consume() error {
	rt := exec.New(exec.Config{})
	defer rt.Close()
	for i, rep := range lr.reps {
		if _, err := rt.Install(fmt.Sprintf("p%03d", i), rep, fmt.Sprintf("res%03d", i)); err != nil {
			return err
		}
	}
	var consumeErr error
	ns := lr.eachChunk(func(_ []int, tuples []stream.Tuple) {
		for _, t := range tuples {
			if err := rt.Consume(t); err != nil {
				consumeErr = err
			}
		}
	})
	lr.m["exec.consume_ns"] = ns / float64(lr.n)
	return consumeErr
}
