package main

import (
	"fmt"
	"math"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/stream"
)

// phases cuts a repeat's event sequence [0, n) into its parts. Every
// boundary is a function of the workload and --seconds only, so the
// oracle and the live runs agree on which event is which.
type phases struct {
	warmEnd  int // [0, warmEnd): set-up priming, then warm-up; discarded
	heldEnd  int // [warmEnd, heldEnd): held rate, in half-second windows
	n        int // [heldEnd, n): saturation
	heldSecs int
	// setupTime is how long each repeat goes on setting deployments up
	// (and tearing them down at once) before it continues on the last.
	setupTime time.Duration
}

// defaultRepeats is how many times a run plays its input: each time on a
// fresh deployment, through set-up, warm-up, the held-rate phase and the
// saturation phase. Every timed metric is a median over them (or over
// their windows). What a deployment's goroutines, queues and heap settle
// into differs from one assembly to the next and stays for its
// lifetime, so repeats on one deployment agree with each other more than
// runs do; repeats across deployments do not have that blind spot. Ten,
// because heap_mb has one sample per deployment and on the TCP workloads
// (1–2 MiB, a tenth of it queue capacity left by the warm-up's burst) a
// median of five moved by up to 6.5 % between runs, of ten by 2.9 %.
const defaultRepeats = 10

// windowsPerSec cuts the held-rate phase into half-second windows.
const windowsPerSec = 2

// satSegments cuts a saturation phase into equal segments, each timed on
// its own.
const satSegments = 4

// planPhases sizes one repeat's phases so that the run's timed phases
// add up to about `seconds`: half at the held rate, a quarter saturating
// (a fixed event count, sized from the reference throughput), a tenth
// setting deployments up, as many as fit; warm-ups, drains and teardowns
// take the rest. A traced run
// plays its input once: a held-rate phase of two equal halves and one
// repeat's saturation phase. scale shrinks event counts and rates for the
// smoke tests.
func planPhases(w *workload, seconds, scale float64, repeats int, traced bool) phases {
	heldSecs := max(1, int(math.Round(seconds*0.5/float64(repeats))))
	satEvents := max(satSegments, int(float64(w.refEPS)*seconds*0.25*scale/float64(repeats)))
	if traced {
		heldSecs = 2 * max(1, int(math.Round(seconds*0.2)))
	}
	p := phases{warmEnd: int(float64(w.warmEvents) * scale), heldSecs: heldSecs}
	p.setupTime = time.Duration(seconds * 0.1 / float64(repeats) * float64(time.Second))
	p.heldEnd = p.warmEnd + int(float64(w.heldRate)*scale)*heldSecs
	p.n = p.heldEnd + satEvents
	return p
}

// heldPerSec is the held-rate phase's event count per second.
func (p phases) heldPerSec() int { return (p.heldEnd - p.warmEnd) / p.heldSecs }

// churnAt reports which churn op, if any, is due before event i is
// published: one every spec.every events through both timed phases.
func (p phases) churnAt(spec *churnSpec, i int) (op int, due bool) {
	if spec == nil || i <= p.warmEnd || (i-p.warmEnd)%spec.every != 0 {
		return 0, false
	}
	return (i-p.warmEnd)/spec.every - 1, true
}

func (p phases) churnOps(spec *churnSpec) int {
	if spec == nil {
		return 0
	}
	return (p.n - 1 - p.warmEnd) / spec.every
}

// feed turns a workload's source into stamped tuples, counting events.
type feed struct {
	w   *workload
	src source
	i   int
}

func newFeed(w *workload, seed int64) *feed {
	return &feed{w: w, src: w.newSource(seed)}
}

func (f *feed) next() (int, stream.Tuple) {
	si, vals := f.src.next()
	t := stream.Tuple{Schema: f.w.streams[si].info.Schema, Ts: stream.Timestamp(f.i) * f.w.tsStep, Values: vals}
	f.i++
	return si, t
}

// hashTuple is an order-insensitive fingerprint's summand: callers add
// the hashes of a subscription's results, so two result multisets agree
// exactly when (with overwhelming probability) their sums do.
func hashTuple(t stream.Tuple) uint64 {
	h := mix64(uint64(t.Ts) + 0x9E3779B97F4A7C15)
	for i, v := range t.Values {
		var x uint64
		switch v.Kind() {
		case stream.KindFloat:
			x = math.Float64bits(v.AsFloat())
		case stream.KindString:
			x = 14695981039346656037
			for _, c := range []byte(v.AsString()) {
				x = (x ^ uint64(c)) * 1099511628211
			}
		default:
			x = uint64(v.AsInt())
		}
		h = mix64(h ^ (x + uint64(i)<<56))
	}
	return h
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// oracle is what the synchronous core.System — the repo's differential
// reference — makes of a run's input: per standing subscription the
// result count and fingerprint, and after every event the cumulative
// standing result count (the yardstick of the sliding-window gate and
// of every drain).
type oracle struct {
	counts []int64
	hashes []uint64
	// held[i] counts subscription i's results whose event lies in the
	// held-rate phase (sizes the latency sample buffers).
	held []int64
	// cum[i] is the number of standing results delivered once event i
	// has been published.
	cum []int64
	// primed and silent count the standing subscriptions whose first
	// result comes from the set-up's priming events, and those with no
	// result during warm-up at all (a querygen band the sensors never
	// reach).
	primed, silent int
	// eps is the replay's own speed: the single-threaded baseline.
	eps float64
}

// runOracle replays the whole input, churn ops included, through a
// synchronous system assembled from the same options.
func runOracle(w *workload, seed int64, p phases) (*oracle, error) {
	opts := w.opts
	opts.ExecWorkers = 0
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	ports := make([]*core.SourcePort, len(w.streams))
	for i, s := range w.streams {
		if ports[i], err = sys.RegisterStream(s.info, s.node); err != nil {
			return nil, err
		}
	}
	o := &oracle{
		counts: make([]int64, len(w.standing)),
		hashes: make([]uint64, len(w.standing)),
		held:   make([]int64, len(w.standing)),
		cum:    make([]int64, p.n),
	}
	var total int64
	first := make([]int, len(w.standing))
	standingTags := map[string]bool{}
	for i, q := range w.standing {
		first[i] = -1
		h, err := sys.Submit(q.cql, q.node, func(t stream.Tuple) {
			idx := w.eventIndex(t.Ts)
			if first[i] < 0 {
				first[i] = idx
			}
			if idx >= p.warmEnd && idx < p.heldEnd {
				o.held[i]++
			}
			o.counts[i]++
			o.hashes[i] += hashTuple(t)
			total++
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: standing query %d: %w", i, err)
		}
		standingTags[h.Tag] = true
	}

	ops := churnPlan(p.churnOps(w.churn))
	var live []*core.QueryHandle
	ordinal := make([]int, len(w.streams))
	f := newFeed(w, seed)
	start := time.Now()
	for i := 0; i < p.n; i++ {
		if k, due := p.churnAt(w.churn, i); due {
			op := ops[k]
			if op.add {
				h, err := sys.Submit(churnQuery(op.stream, ordinal[op.stream]), churnNode(k), func(stream.Tuple) {})
				if err != nil {
					return nil, fmt.Errorf("oracle: churn op %d: %w", k, err)
				}
				ordinal[op.stream]++
				live = append(live, h)
				if err := churnIsolated(sys, standingTags); err != nil {
					return nil, err
				}
			} else {
				if err := sys.Cancel(live[op.victim]); err != nil {
					return nil, fmt.Errorf("oracle: churn op %d: %w", k, err)
				}
				live = append(live[:op.victim], live[op.victim+1:]...)
			}
		}
		si, t := f.next()
		if _, err := stream.NewTuple(t.Schema, t.Ts, t.Values...); err != nil {
			return nil, fmt.Errorf("oracle: event %d: %w", i, err)
		}
		if err := ports[si].Publish(t); err != nil {
			return nil, fmt.Errorf("oracle: event %d: %w", i, err)
		}
		o.cum[i] = total
	}
	o.eps = float64(p.n) / time.Since(start).Seconds()

	for _, at := range first {
		switch {
		case at < 0 || at >= p.warmEnd:
			o.silent++
		case at < w.primeEvents:
			o.primed++
		}
	}
	if o.primed == 0 {
		return nil, fmt.Errorf("oracle: no standing subscription delivers during set-up")
	}
	return o, nil
}

// churnNode spreads churn users over the 16-node overlay.
func churnNode(op int) int { return 2 + (5*op)%13 }

// churnIsolated checks that no plan serves a standing query and a churn
// query together: a churn op must never re-version a measured group.
func churnIsolated(sys *core.System, standing map[string]bool) error {
	for _, plan := range sys.StatsSnapshot().Plans {
		var std, other int
		for _, tag := range plan.Queries {
			if standing[tag] {
				std++
			} else {
				other++
			}
		}
		if other > 1 || (std > 0 && other > 0) {
			return fmt.Errorf("oracle: plan %s merges churn queries into a group (%v)", plan.Plan, plan.Queries)
		}
	}
	return nil
}
