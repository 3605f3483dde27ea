package obs

import (
	"math/rand"
	"sort"
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
