package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// Buckets must tile the value space: every value falls in exactly one
// bucket, bucket edges are monotone, and values below histSubCount get
// exact unit buckets.
func TestBucketBoundaries(t *testing.T) {
	// Exact range.
	for v := int64(0); v < histSubCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want exact bucket", v, got)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0", got)
	}
	// Every bucket's lower edge maps back to that bucket, edges are
	// strictly increasing, and the value one below the edge maps to the
	// previous bucket.
	for i := 0; i < histBuckets; i++ {
		lo := BucketLow(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(BucketLow(%d)=%d) = %d", i, lo, got)
		}
		if i > 0 {
			if prev := BucketLow(i - 1); prev >= lo {
				t.Fatalf("edges not increasing: BucketLow(%d)=%d BucketLow(%d)=%d", i-1, prev, i, lo)
			}
			if got := bucketIndex(lo - 1); got != i-1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d", lo-1, got, i-1)
			}
		}
	}
	// Probe values across the magnitude range round-trip within their
	// bucket: BucketLow(idx) ≤ v < BucketLow(idx+1).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := int64(rng.Uint64() >> 1 >> uint(rng.Intn(63)))
		idx := bucketIndex(v)
		if lo := BucketLow(idx); v < lo {
			t.Fatalf("v=%d below its bucket %d edge %d", v, idx, lo)
		}
		if idx+1 < histBuckets {
			if hi := BucketLow(idx + 1); v >= hi {
				t.Fatalf("v=%d at/above next bucket %d edge %d", v, idx+1, hi)
			}
		}
	}
}

// Quantile estimates must stay within the structural relative error
// bound (1/histSubCount per side, so assert a 2/histSubCount envelope
// with +1 absolute slack for unit-width rounding).
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	vals := make([]int64, 0, 50000)
	for i := 0; i < 50000; i++ {
		// Log-uniform over ~9 decades — exercises many octaves.
		v := int64(1) << uint(rng.Intn(45))
		v += rng.Int63n(v)
		h.Observe(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(vals))
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		est := s.Quantile(q)
		rank := int(q * float64(len(vals)-1))
		exact := vals[rank]
		diff := est - exact
		if diff < 0 {
			diff = -diff
		}
		if tol := exact/(histSubCount/2) + 1; diff > tol {
			t.Errorf("q=%v: est %d vs exact %d (diff %d > tol %d)", q, est, exact, diff, tol)
		}
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("Quantile(1) = %d, want exact max %d", got, s.Max)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d", got)
	}
	var h Histogram
	h.Observe(17)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 17 {
			t.Fatalf("single-value Quantile(%v) = %d, want 17", q, got)
		}
	}
}

// Merging two snapshots must equal the snapshot of the combined
// observations, bucket by bucket.
func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, both Histogram
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 40)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	want := both.Snapshot()
	if sa.Count != want.Count || sa.Sum != want.Sum || sa.Max != want.Max {
		t.Fatalf("merged totals %d/%d/%d, want %d/%d/%d",
			sa.Count, sa.Sum, sa.Max, want.Count, want.Sum, want.Max)
	}
	if len(sa.Counts) != len(want.Counts) {
		t.Fatalf("merged %d buckets, want %d", len(sa.Counts), len(want.Counts))
	}
	for i := range sa.Counts {
		if sa.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: merged %d, want %d", i, sa.Counts[i], want.Counts[i])
		}
	}
	// Merging into the smaller side must grow it.
	small := a.Snapshot()
	var tall Histogram
	tall.Observe(1 << 50)
	small.Merge(tall.Snapshot())
	if small.Max != 1<<50 {
		t.Fatalf("Max after growing merge = %d", small.Max)
	}
}

// The record path — Observe, StageStart/StageEnd, TraceMark (off and
// on-but-not-traced) — must not allocate. Run under -race in CI.
func TestRecordPathAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
	m := New(Options{SampleEvery: 2}) // sample aggressively: timed path too
	if n := testing.AllocsPerRun(1000, func() {
		start := m.StageStart(StageExec)
		m.StageEnd(StageExec, start)
	}); n != 0 {
		t.Errorf("StageStart/StageEnd allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { m.TraceMark(42, StageRoute) }); n != 0 {
		t.Errorf("TraceMark (tracing off) allocates %v/op", n)
	}
	tm := New(Options{TraceEvery: 1 << 30}) // on, but key 42 never sampled
	if n := testing.AllocsPerRun(1000, func() { tm.TraceMark(42, StageRoute) }); n != 0 {
		t.Errorf("TraceMark (untraced tuple) allocates %v/op", n)
	}
	var nilM *Metrics
	if n := testing.AllocsPerRun(1000, func() {
		nilM.StageEnd(StageExec, nilM.StageStart(StageExec))
		nilM.TraceMark(1, StageExec)
	}); n != 0 {
		t.Errorf("nil Metrics path allocates %v/op", n)
	}
}

// Concurrent observers must lose no counts (exercised under -race).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 5000
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i))
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*per)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != goroutines*per {
		t.Fatalf("bucket sum = %d, want %d", sum, goroutines*per)
	}
	if s.Max != goroutines*per-1 {
		t.Fatalf("Max = %d, want %d", s.Max, goroutines*per-1)
	}
}

// denseHist is the reference layout: every bucket's counter held up
// front, the histogram as it was before rows were allocated per octave.
type denseHist struct {
	counts   [histBuckets]uint64
	count    uint64
	sum, max int64
}

func (d *denseHist) observe(v int64) {
	d.counts[bucketIndex(v)]++
	d.count++
	d.sum += v
	d.max = max(d.max, v)
}

func (d *denseHist) snapshot() HistSnapshot {
	s := HistSnapshot{Count: d.count, Sum: d.sum, Max: d.max}
	for i := histBuckets - 1; i >= 0; i-- {
		if d.counts[i] != 0 {
			s.Counts = append([]uint64(nil), d.counts[:i+1]...)
			break
		}
	}
	return s
}

// histEdgeValues are the values a bucket layout is most likely to get
// wrong: negatives, the exact range and the first octave past it, both
// sides of every power of two, and the largest int64.
func histEdgeValues() []int64 {
	vs := []int64{math.MinInt64, -1 << 40, -1, math.MaxInt64, math.MaxInt64 - 1}
	for v := int64(0); v < 2*histSubCount; v++ {
		vs = append(vs, v)
	}
	for e := uint(1); e < 63; e++ {
		vs = append(vs, 1<<e-1, 1<<e, 1<<e+1)
	}
	return vs
}

// TestHistogramMatchesDense: the row layout's snapshots equal, bit for
// bit, those of a dense counter array fed the same values — Counts
// trimmed at the highest non-empty bucket, Count, Sum and Max — and so
// do their quantiles and their merges.
func TestHistogramMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Int63n(1 << 20)
		case 1:
			return rng.Int63n(2 * histSubCount)
		default:
			return rng.Int63() >> uint(rng.Intn(63))
		}
	}
	quantiles := []float64{0.5, 0.99, 0.9999, 1}
	for trial := 0; trial < 50; trial++ {
		var h [2]Histogram
		var ref [2]denseHist
		feed := func(k int, v int64) {
			h[k].Observe(v)
			ref[k].observe(v)
		}
		if trial%5 == 0 {
			for _, v := range histEdgeValues() {
				feed(rng.Intn(2), v)
			}
		}
		for i, n := 0, rng.Intn(2000); i < n; i++ {
			feed(rng.Intn(2), random())
		}
		var got, want [2]HistSnapshot
		for k := range h {
			got[k], want[k] = h[k].Snapshot(), ref[k].snapshot()
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("trial %d side %d: snapshot %+v, dense %+v", trial, k, got[k], want[k])
			}
		}
		got[0].Merge(got[1])
		want[0].Merge(want[1])
		if !reflect.DeepEqual(got[0], want[0]) {
			t.Fatalf("trial %d: merged %+v, dense merged %+v", trial, got[0], want[0])
		}
		for _, q := range quantiles {
			if g, w := got[0].Quantile(q), want[0].Quantile(q); g != w {
				t.Fatalf("trial %d: Quantile(%v) = %d, dense %d", trial, q, g, w)
			}
		}
	}
}

// heldRows counts the octaves that hold a row.
func heldRows(h *Histogram) int {
	n := 0
	for o := range h.rows {
		if h.rows[o].Load() != nil {
			n++
		}
	}
	return n
}

// spreadValues are one value in each of ten octaves, 256 ns to about
// 131 µs: the spread of a sampled push latency.
func spreadValues() []int64 {
	vs := make([]int64, 10)
	for k := range vs {
		vs[k] = 1<<(k+8) + int64(k)
	}
	return vs
}

// TestHistogramRowsPerOctave: a histogram holds one row for each octave
// it has seen and allocates exactly those rows, and nothing once they
// exist.
func TestHistogramRowsPerOctave(t *testing.T) {
	vs := spreadValues()
	var h Histogram
	if n := heldRows(&h); n != 0 {
		t.Fatalf("an empty histogram holds %d rows", n)
	}
	for k, v := range vs {
		h.Observe(v)
		h.Observe(v + 1) // same octave
		if n := heldRows(&h); n != k+1 {
			t.Fatalf("after %d octaves: %d rows", k+1, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vs {
			h.Observe(v)
		}
	}); n != 0 {
		t.Errorf("Observe in held octaves allocates %v/op", n)
	}
	fresh := make([]Histogram, 101) // AllocsPerRun calls once more to warm up
	next := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vs {
			fresh[next].Observe(v)
		}
		next++
	}); n != float64(len(vs)) {
		t.Errorf("a fresh histogram seeing %d octaves allocates %v rows", len(vs), n)
	}
}

// TestHistogramConcurrentFirstTouch: eight goroutines make the first
// observations of the same octaves at once; the racing row installs
// lose no count and leave one row per octave (run under -race in CI).
func TestHistogramConcurrentFirstTouch(t *testing.T) {
	const goroutines, rounds = 8, 500
	vs := spreadValues()
	for round := 0; round < rounds; round++ {
		var h Histogram
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, v := range vs {
					h.Observe(v)
				}
			}()
		}
		close(start)
		wg.Wait()
		s := h.Snapshot()
		var sum uint64
		for _, c := range s.Counts {
			sum += c
		}
		if want := uint64(goroutines * len(vs)); s.Count != want || sum != want {
			t.Fatalf("round %d: Count %d, bucket sum %d, want %d", round, s.Count, sum, want)
		}
		if n := heldRows(&h); n != len(vs) {
			t.Fatalf("round %d: %d rows for %d octaves", round, n, len(vs))
		}
	}
}

// BenchmarkHistogramObserve times the record path: one value in a
// held octave, and values spread over ten held octaves. Rows are
// installed before the timer starts.
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		var h Histogram
		h.Observe(12345)
		b.ReportAllocs()
		for b.Loop() {
			h.Observe(12345)
		}
	})
	b.Run("spread", func(b *testing.B) {
		var h Histogram
		vs := spreadValues()
		for _, v := range vs {
			h.Observe(v)
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			h.Observe(vs[i])
			if i++; i == len(vs) {
				i = 0
			}
		}
	})
}
