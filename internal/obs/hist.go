package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear (the HdrHistogram / Hazelcast Jet shape):
// one octave per power of two, histSubCount linear sub-buckets per
// octave. Values below histSubCount land in exact unit buckets; above,
// a bucket spans 2^e values where e grows with the octave, so the
// relative quantile error is bounded by 1/histSubCount (~3.1%) at any
// magnitude. With 32 sub-buckets the full int64 nanosecond range needs
// 1920 buckets (~15 KiB of counters) — small enough to embed one
// histogram per stage and per plan.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 linear sub-buckets per octave
	histBuckets  = (64 - histSubBits) * histSubCount
)

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
//
//cosmos:hotpath
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1 - histSubBits // octave shift, ≥ 0
	return int((uint64(e+1))<<histSubBits | (u>>e)&(histSubCount-1))
}

// BucketLow returns the smallest value mapping to bucket i (the
// inclusive lower edge).
func BucketLow(i int) int64 {
	if i < 2*histSubCount {
		return int64(i)
	}
	e := uint(i>>histSubBits) - 1
	sub := int64(i & (histSubCount - 1))
	return (histSubCount + sub) << e
}

// bucketMid is the representative value reported for bucket i: the
// midpoint of [BucketLow(i), BucketLow(i+1)).
func bucketMid(i int) int64 {
	lo := BucketLow(i)
	if i+1 >= histBuckets {
		return lo
	}
	return lo + (BucketLow(i+1)-lo-1)/2
}

// Histogram is a fixed-bucket log-linear latency histogram safe for
// concurrent use. Observe is lock-free and allocation-free; Snapshot
// produces a mergeable copy for quantile queries. The zero value is
// ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one value (nanoseconds by convention). 0 allocs,
// no locks: three atomic adds plus a max CAS that rarely retries.
//
//cosmos:hotpath
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram state. Concurrent Observes may or may
// not be included (the cut is not atomic across buckets), which is fine
// for monitoring: totals are eventually consistent and never regress.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	hi := -1
	var counts [histBuckets]uint64
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			counts[i] = c
			hi = i
		}
	}
	if hi >= 0 {
		s.Counts = append([]uint64(nil), counts[:hi+1]...)
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram: plain data,
// gob/json-encodable, mergeable. Counts is dense from bucket 0 and
// trimmed at the highest non-empty bucket.
type HistSnapshot struct {
	Counts []uint64
	Count  uint64
	Sum    int64
	Max    int64
}

// Merge folds o into s (s grows to cover o's buckets).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(o.Counts) > len(s.Counts) {
		s.Counts = append(s.Counts, make([]uint64, len(o.Counts)-len(s.Counts))...)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile returns the value at quantile q (0 ≤ q ≤ 1) with relative
// error bounded by 1/32. Returns 0 for an empty snapshot; q=1 returns
// the exact observed maximum.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return s.Max
}

// String renders the classic monitoring line: count and p50/p99/p99.99
// as durations.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p99.99=%v max=%v",
		s.Count,
		time.Duration(s.Quantile(0.50)),
		time.Duration(s.Quantile(0.99)),
		time.Duration(s.Quantile(0.9999)),
		time.Duration(s.Max))
}
