package main

import (
	"fmt"
	"math"
	"math/rand"

	"cosmos/internal/core"
	"cosmos/internal/overlay"
	"cosmos/internal/querygen"
	"cosmos/internal/sensordata"
	"cosmos/internal/stream"
)

// A workload is one input mix the benchmark runs: a deployment shape,
// the standing queries, and a seeded event source. Everything that
// shapes the work — topology, processor placement, query population,
// user nodes, the add/cancel sequence of the churn — is part of the
// workload's definition and fixed here; --seed draws only the data
// (payload values, auction lifetimes, sensor noise). The driver requires metrics to agree across
// seeds within their bounds, which a seeded topology or a seeded
// 64-query population cannot do: a sample of 24 nodes or 64 queries is
// too small for its mean to hold still.
type workload struct {
	name string
	why  string

	// heldRate is the frozen offered rate of the held-rate phase in
	// source events/s, never derived at run time, so a faster commit faces
	// the same load. It is 2–5 % of the reference box's saturation
	// throughput: consecutive events do not overlap in the pipeline, and
	// latency_p50_us is the unloaded latency (the README says why not
	// 30 %). refEPS is that reference throughput, rounded; it sizes the
	// saturation phase's fixed event count and nothing else.
	heldRate int
	refEPS   int
	// primeEvents is the fixed prefix a set-up publishes: the set-up ends
	// when the oracle's expected results of these events have arrived. A
	// count, not "until every subscription has answered": when a
	// subscription first answers depends on the seed's data (9 k to 19 k
	// events on sensor_merge), and set-up time must not.
	primeEvents int
	// warmEvents are published (windowed, as fast as the gate allows)
	// and discarded before the timed phases; enough to fill every
	// window the standing queries keep.
	warmEvents int

	opts core.Options
	// resultsOverTCP puts the standing subscriptions on a cosmos.Dial
	// connection; publishOverTCP registers and publishes the sources
	// over a second one. Neither: one EmbedLive session does both.
	resultsOverTCP bool
	publishOverTCP bool

	streams  []streamDef
	standing []queryDef
	// tsStep is the application-time distance between consecutive
	// events: event i carries Ts = i·tsStep, so a result's Ts (the SPE
	// stamps the newest contributing input's) names the event whose
	// intended publish time its latency counts from.
	tsStep stream.Timestamp
	// newSource starts the seeded event sequence from event 0.
	newSource func(seed int64) source
	// churn is the control-plane schedule run beside the timed phases
	// (remote_churn only).
	churn *churnSpec
}

type streamDef struct {
	info *stream.Info
	node int
}

type queryDef struct {
	cql  string
	node int
}

// source yields the workload's events in order. next returns the index
// of the stream the event belongs to and its tuple; Ts is set by the
// caller's event counter, so implementations leave it zero.
type source interface {
	next() (streamIdx int, values []stream.Value)
}

// eventIndex inverts the Ts stamping.
func (w *workload) eventIndex(ts stream.Timestamp) int { return int(ts / w.tsStep) }

// structSeed fixes every structural draw (see the workload comment).
const structSeed = 20080407 // ICDE 2008, Cancún: 7 April

const execWorkers = 2

func workloads() []*workload {
	return []*workload{fanoutTCP(), sensorMerge(), auctionJoin(), remoteChurn()}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- the generic load stream --------------------------------------------

// loadInfo is the catalog record of a five-column stream in the shape of
// internal/load's: a per-stream sequence number, the intended publish
// offset, three float payload columns drawn from the seed.
func loadInfo(name string, rate int) *stream.Info {
	return &stream.Info{
		Schema: stream.MustSchema(name,
			stream.Field{Name: "seq", Kind: stream.KindInt},
			stream.Field{Name: "pubns", Kind: stream.KindInt},
			stream.Field{Name: "v0", Kind: stream.KindFloat},
			stream.Field{Name: "v1", Kind: stream.KindFloat},
			stream.Field{Name: "v2", Kind: stream.KindFloat},
		),
		Rate: float64(rate),
		Stats: map[string]stream.AttrStats{
			"seq":   {Min: 0, Max: 1e12, Distinct: 1e9},
			"pubns": {Min: 0, Max: 1e15, Distinct: 1e9},
			"v0":    {Min: 0, Max: 100, Distinct: 1000},
			"v1":    {Min: 0, Max: 100, Distinct: 1000},
			"v2":    {Min: 0, Max: 100, Distinct: 1000},
		},
	}
}

// loadSource round-robins events over n load streams.
type loadSource struct {
	rng      *rand.Rand
	n        int
	i        int64
	interval int64 // nominal ns between events at the held rate
}

func (s *loadSource) next() (int, []stream.Value) {
	i := s.i
	s.i++
	return int(i % int64(s.n)), []stream.Value{
		stream.Int(i / int64(s.n)),
		stream.Int(i * s.interval),
		stream.Float(100 * s.rng.Float64()),
		stream.Float(100 * s.rng.Float64()),
		stream.Float(100 * s.rng.Float64()),
	}
}

// --- fanout_tcp ----------------------------------------------------------

func fanoutTCP() *workload {
	w := &workload{
		name: "fanout_tcp",
		why: "16 [Now] selections on one Dial connection, source in-process: transport (wire encode, result pump, " +
			"client decode) and core fan-out do the work, spe and merge none; --seed draws the payloads",
		heldRate:       2000,
		refEPS:         110000,
		primeEvents:    16,
		warmEvents:     8000,
		opts:           core.Options{Nodes: 16, Seed: structSeed, ExecWorkers: execWorkers},
		resultsOverTCP: true,
		tsStep:         1,
	}
	w.streams = []streamDef{{loadInfo("Load00", w.heldRate), 1}}
	lists := []string{"seq, pubns", "seq, pubns, v0", "seq, pubns, v0, v1", "seq, pubns, v0, v1, v2"}
	for i := 0; i < 16; i++ {
		w.standing = append(w.standing, queryDef{
			cql:  fmt.Sprintf("SELECT %s FROM Load00 [Now]", lists[i%4]),
			node: 3 + i%8,
		})
	}
	w.newSource = func(seed int64) source {
		return &loadSource{rng: rand.New(rand.NewSource(seed)), n: 1, interval: int64(1e9) / int64(w.heldRate)}
	}
	return w
}

// --- sensor_merge --------------------------------------------------------

const (
	sensorStations = 8
	sensorQueries  = 64
	sensorNodes    = 24
)

func sensorMerge() *workload {
	w := &workload{
		name: "sensor_merge",
		why: "the paper's sharing experiment: 64 querygen queries, 8 sensor streams, 24 nodes, 3 processors, " +
			"no TCP: merge/cql, cbn routing, exec dispatch; topology and queries fixed, --seed draws sensor noise",
		heldRate:    4000,
		refEPS:      180000,
		primeEvents: 64,
		warmEvents:  24000, // one application day: every window menu entry fills
		opts: core.Options{
			Nodes: sensorNodes, Seed: structSeed, Processors: 3, ExecWorkers: execWorkers,
		},
		// One reading per station per 30 s of application time.
		tsStep: stream.Timestamp(sensordata.DefaultPeriod) / sensorStations,
	}
	rng := rand.New(rand.NewSource(structSeed))
	for s := 0; s < sensorStations; s++ {
		w.streams = append(w.streams, streamDef{sensordata.Info(s), rng.Intn(sensorNodes)})
	}
	gen, err := querygen.New(querygen.Config{Dist: querygen.Zipf10, Streams: sensorStations, Seed: structSeed, PredicateTemplates: 5})
	if err != nil {
		panic(err) // static configuration
	}
	for _, text := range gen.Batch(sensorQueries) {
		w.standing = append(w.standing, queryDef{cql: text, node: rng.Intn(sensorNodes)})
	}
	w.newSource = func(seed int64) source { return newSensorSource(seed, w.tsStep) }
	return w
}

// sensorSource synthesises readings in the shape of sensordata.Generator
// (diurnal cycle plus noise) with the two halves of its randomness kept
// apart: the station microclimates are structural, the noise is the
// seed's. sensordata.Generator draws both from one seed, which moves
// every query's selectivity with it.
type sensorSource struct {
	rng      *rand.Rand
	step     stream.Timestamp
	i        int64
	tempBase [sensorStations]float64
	humBase  [sensorStations]float64
}

func newSensorSource(seed int64, step stream.Timestamp) *sensorSource {
	s := &sensorSource{rng: rand.New(rand.NewSource(seed)), step: step}
	climate := rand.New(rand.NewSource(structSeed))
	for st := range s.tempBase {
		s.tempBase[st] = 5 + 15*climate.Float64()
		s.humBase[st] = 30 + 40*climate.Float64()
	}
	return s
}

func (s *sensorSource) next() (int, []stream.Value) {
	i := s.i
	s.i++
	st := int(i % sensorStations)
	ts := stream.Timestamp(i) * s.step
	dayFrac := float64(ts%stream.Timestamp(stream.Day)) / float64(stream.Day)
	diurnal := math.Sin(2 * math.Pi * (dayFrac - 0.25))
	clamp := func(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }
	return st, []stream.Value{
		stream.Int(int64(st)),
		stream.Float(clamp(s.tempBase[st]+8*diurnal+s.rng.NormFloat64()*1.5, sensordata.TempMin, sensordata.TempMax)),
		stream.Float(clamp(s.humBase[st]-15*diurnal+s.rng.NormFloat64()*4, sensordata.HumidityMin, sensordata.HumidityMax)),
		stream.Float(clamp(900*math.Max(0, diurnal)+s.rng.NormFloat64()*30, sensordata.SolarMin, sensordata.SolarMax)),
		stream.Float(clamp(4+3*s.rng.NormFloat64()*s.rng.Float64(), sensordata.WindMin, sensordata.WindMax)),
	}
}

// --- auction_join --------------------------------------------------------

// auctionStep spaces events 100 ms of application time apart: half of
// them open an item, so q1's 3-hour window keeps 54 k opens resident and
// the merged 5-hour representative 90 k.
const auctionStep = 100 * stream.Millisecond

func auctionInfos(rate int) (open, closed *stream.Info) {
	half := float64(rate) / 2
	common := map[string]stream.AttrStats{
		"itemID":   {Min: 0, Max: 1e9, Distinct: 1e9},
		"category": {Min: 0, Max: 63, Distinct: 64},
		"pubns":    {Min: 0, Max: 1e15, Distinct: 1e9},
	}
	stats := func(extra map[string]stream.AttrStats) map[string]stream.AttrStats {
		for k, v := range common {
			extra[k] = v
		}
		return extra
	}
	open = &stream.Info{
		Schema: stream.MustSchema("OpenAuction",
			stream.Field{Name: "itemID", Kind: stream.KindInt},
			stream.Field{Name: "seller", Kind: stream.KindInt},
			stream.Field{Name: "category", Kind: stream.KindInt},
			stream.Field{Name: "reserve", Kind: stream.KindFloat},
			stream.Field{Name: "pubns", Kind: stream.KindInt},
		),
		Rate: half,
		Stats: stats(map[string]stream.AttrStats{
			"seller":  {Min: 0, Max: 4095, Distinct: 4096},
			"reserve": {Min: 0, Max: 1000, Distinct: 1000},
		}),
	}
	closed = &stream.Info{
		Schema: stream.MustSchema("ClosedAuction",
			stream.Field{Name: "itemID", Kind: stream.KindInt},
			stream.Field{Name: "buyer", Kind: stream.KindInt},
			stream.Field{Name: "category", Kind: stream.KindInt},
			stream.Field{Name: "final", Kind: stream.KindFloat},
			stream.Field{Name: "pubns", Kind: stream.KindInt},
		),
		Rate: half,
		Stats: stats(map[string]stream.AttrStats{
			"buyer": {Min: 0, Max: 4095, Distinct: 4096},
			"final": {Min: 0, Max: 2000, Distinct: 2000},
		}),
	}
	return open, closed
}

func auctionJoin() *workload {
	w := &workload{
		name: "auction_join",
		why: "the paper's example: OpenAuction [Range 3|5 Hour] join ClosedAuction [Now], 4 q1/q2 pairs, 2 grouped " +
			"aggregates, 90 k items resident: spe join index, eviction, group state; --seed draws the items",
		heldRate:    5000,
		refEPS:      230000,
		primeEvents: 64,
		warmEvents:  220000, // past the longest lifetime (6 h = 216 k events): opens and closes balance
		opts: core.Options{
			// Figure 3's overlay: n1 — n2, n2 — n3, n2 — n4.
			Tree: &overlay.Tree{
				Root:      0,
				Parent:    []int{-1, 0, 1, 1},
				Children:  [][]int{{1}, {2, 3}, {}, {}},
				LinkDelay: []float64{0, 10, 10, 10},
			},
			ProcessorNodes: []int{0},
			Seed:           structSeed,
			ExecWorkers:    execWorkers,
		},
		tsStep: stream.Timestamp(auctionStep),
	}
	open, closed := auctionInfos(w.heldRate)
	w.streams = []streamDef{{open, 0}, {closed, 0}}
	join := func(cols string, hours int) string {
		return fmt.Sprintf("SELECT %s FROM OpenAuction [Range %d Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID",
			cols, hours)
	}
	cols := []string{
		"O.itemID, C.buyer, C.pubns",
		"O.itemID, O.seller, C.buyer, C.pubns",
		"O.itemID, C.final, C.pubns",
		"O.itemID, O.reserve, C.final, C.pubns",
	}
	for _, c := range cols {
		w.standing = append(w.standing,
			queryDef{join(c, 3), 2}, // q1 at n3
			queryDef{join(c, 5), 3}) // q2 at n4
	}
	w.standing = append(w.standing,
		queryDef{"SELECT category, COUNT(*), MAX(final), MAX(pubns) FROM ClosedAuction [Range 1 Hour] GROUP BY category", 2},
		queryDef{"SELECT category, COUNT(*), MAX(reserve), MAX(pubns) FROM OpenAuction [Range 1 Hour] GROUP BY category", 3})
	w.newSource = func(seed int64) source {
		return &auctionSource{
			rng:      rand.New(rand.NewSource(seed)),
			interval: int64(1e9) / int64(w.heldRate),
			closeAt:  map[int64]auctionItem{},
		}
	}
	return w
}

type auctionItem struct {
	id       int64
	category int64
	reserve  float64
}

// auctionSource opens an item at every event that has no close due, and
// schedules that item's close a seeded lifetime later: uniform in
// [0.5 h, 6 h] of application time, so about a sixth of the closes fall
// outside q2's window, two fifths inside q2's only, and the rest inside
// both.
type auctionSource struct {
	rng      *rand.Rand
	i        int64
	interval int64
	nextItem int64
	closeAt  map[int64]auctionItem
}

func (s *auctionSource) next() (int, []stream.Value) {
	i := s.i
	s.i++
	pub := stream.Int(i * s.interval)
	if it, due := s.closeAt[i]; due {
		delete(s.closeAt, i)
		return 1, []stream.Value{
			stream.Int(it.id),
			stream.Int(s.rng.Int63n(4096)),
			stream.Int(it.category),
			stream.Float(it.reserve * (1 + s.rng.Float64())),
			pub,
		}
	}
	it := auctionItem{id: s.nextItem, category: s.rng.Int63n(64), reserve: 1000 * s.rng.Float64()}
	s.nextItem++
	const hourEvents = int64(stream.Hour / auctionStep)
	at := i + hourEvents/2 + s.rng.Int63n(hourEvents*11/2)
	for {
		if _, taken := s.closeAt[at]; !taken {
			break
		}
		at++
	}
	s.closeAt[at] = it
	return 0, []stream.Value{
		stream.Int(it.id),
		stream.Int(s.rng.Int63n(4096)),
		stream.Int(it.category),
		stream.Float(it.reserve),
		pub,
	}
}

// --- remote_churn --------------------------------------------------------

const (
	churnStreams = 4
	churnMaxLive = 12
	churnAddBias = 0.7
)

// churnSpec is the control-plane schedule of remote_churn: one
// Submit-or-Cancel every `every` events of the timed phases.
type churnSpec struct {
	every int
}

// churnOp is one scheduled control-plane operation. An add submits the
// ordinal-th churn query on a stream; a cancel ends the victim-th live
// churn subscription (in submission order).
type churnOp struct {
	add    bool
	stream int
	victim int
}

// churnPlan draws the op sequence — add or cancel, the stream an add
// reads, the subscription a cancel ends — from the structural seed: how
// many churn subscriptions are live, and how wide their rows are, sets
// the results and bytes per event.
func churnPlan(n int) []churnOp {
	rng := rand.New(rand.NewSource(structSeed))
	ops := make([]churnOp, n)
	live := 0
	for i := range ops {
		if live == 0 || (live < churnMaxLive && rng.Float64() < churnAddBias) {
			ops[i] = churnOp{add: true, stream: rng.Intn(churnStreams)}
			live++
		} else {
			ops[i] = churnOp{victim: rng.Intn(live)}
			live--
		}
	}
	return ops
}

// churnAggs are the optional aggregates of a churn query. Aggregates
// merge only when identical (Theorem 2), so the ordinal-th churn query
// on a stream — MAX(seq) plus the subset of churnAggs its ordinal's bits
// select — shares a group signature with no standing selection and no
// other churn query. That matters because live group handover still
// drops co-members' tuples (ROADMAP), and this benchmark is not that
// bug's test. Over a [Now] window each input tuple is its own group, so
// MAX(seq) is the tuple's seq and the ledger can ask for contiguity.
var churnAggs = []string{"COUNT(*)", "MIN(seq)", "SUM(v0)", "MAX(v1)", "MIN(v2)", "AVG(v0)", "MAX(pubns)"}

func churnQuery(streamIdx, ordinal int) string {
	list := "MAX(seq)"
	for b, agg := range churnAggs {
		if ordinal&(1<<b) != 0 {
			list += ", " + agg
		}
	}
	return fmt.Sprintf("SELECT %s FROM Churn%02d [Now]", list, streamIdx)
}

func remoteChurn() *workload {
	w := &workload{
		name: "remote_churn",
		why: "all over TCP: connection A publishes 4 streams by gob round trip and submits or cancels a query " +
			"every 250 events, B holds 16 selections: ingest, control plane; ops fixed, --seed draws payloads",
		heldRate:       1000,
		refEPS:         20000,
		primeEvents:    8,
		warmEvents:     3000,
		opts:           core.Options{Nodes: 16, Seed: structSeed, ExecWorkers: execWorkers},
		resultsOverTCP: true,
		publishOverTCP: true,
		tsStep:         1,
	}
	w.churn = &churnSpec{every: w.heldRate / 4}
	shapes := []string{
		"SELECT seq, pubns FROM %s [Now]",
		"SELECT seq, pubns, v0 FROM %s [Now] WHERE v0 >= 20",
		"SELECT seq, v1 FROM %s [Now] WHERE v1 < 80",
		"SELECT seq, pubns, v2 FROM %s [Now] WHERE v0 >= 10 AND v2 < 90",
	}
	for s := 0; s < churnStreams; s++ {
		name := fmt.Sprintf("Churn%02d", s)
		w.streams = append(w.streams, streamDef{loadInfo(name, w.heldRate/churnStreams), 1 + 3*s})
		for q, shape := range shapes {
			w.standing = append(w.standing, queryDef{fmt.Sprintf(shape, name), 2 + (4*s+q)%12})
		}
	}
	w.newSource = func(seed int64) source {
		return &loadSource{rng: rand.New(rand.NewSource(seed)), n: churnStreams, interval: int64(1e9) / int64(w.heldRate)}
	}
	return w
}
