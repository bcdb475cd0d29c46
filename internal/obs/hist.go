package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist identifies one of the run-level latency histograms. Like
// counters, histograms are cumulative over the whole run and shared by
// all workers.
type Hist int

const (
	// HistCondMine records the duration of mining one conditional
	// subproblem (conditional-tree construction through its whole
	// recursion), the per-task latency distribution of the mine phase.
	HistCondMine Hist = iota
	// HistQuery records end-to-end mine-call durations: one sample per
	// Mine invocation, the per-query latency a serving layer reports.
	HistQuery
	numHists
)

// histNames are the stable external names used in snapshots and the
// BENCH_*.json schema (docs/FORMAT.md §6).
var histNames = [numHists]string{"cond_mine", "query"}

// String returns the histogram's external name.
func (h Hist) String() string {
	if h < 0 || h >= numHists {
		return "unknown"
	}
	return histNames[h]
}

// histBuckets is the bucket count of the log2 layout: bucket i holds
// durations with bit length i in nanoseconds, i.e. [2^(i-1), 2^i)
// (bucket 0 holds 0 ns). bits.Len64 of any uint64 is at most 64, so 65
// buckets cover the full duration range with no clamp branch.
const histBuckets = 65

// Histogram is a log-bucketed latency histogram: fixed power-of-two
// nanosecond buckets, each an atomic counter, plus the running minimum
// and maximum. Recording is two atomic adds and two compare-and-swap
// loops that raise the range; once the range has settled each loop is
// a single load. Histograms merge by bucket-wise addition and running
// maxima (Merge is
// associative and commutative, the property Recorder.Merge relies on
// for deterministic shard fold-in). The zero value is ready to use;
// all methods tolerate a nil receiver.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64 // total nanoseconds
	// max is the largest sample; minInv is MaxInt64 minus the smallest,
	// so both update as running maxima and the zero value means "no
	// sample". Quantile clamps its estimate to [min, max].
	max    atomic.Int64
	minInv atomic.Int64
}

// Record adds one duration sample. Negative durations (clock
// adjustments mid-span) are recorded as zero.
//
// Record sits on the conditional-mine path — one call per conditional
// subproblem — so it must not allocate or format.
//
//cfplint:hot
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// The range is raised before the count, so a reader that sees the
	// sample counted also sees it inside [min, max].
	storeMax(&h.max, ns)
	storeMax(&h.minInv, math.MaxInt64-ns)
	h.counts[bits.Len64(uint64(ns))].Add(1)
	h.sum.Add(ns)
}

// storeMax raises v to x unless it already holds at least x.
func storeMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if cur >= x || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// SumNanos returns the sum of all recorded samples in nanoseconds.
func (h *Histogram) SumNanos() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) of the
// recorded durations, interpolated linearly inside the bucket the
// target rank lands in and clamped to the observed [min, max]. With
// log2 buckets the estimate is within 2x of the true value, which is
// the resolution latency percentiles need; the clamp makes it exact
// for a single sample and keeps every percentile inside the observed
// range. An empty (or nil) histogram returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based; q=0 targets the first sample.
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		// Target lands in bucket i spanning [lo, hi) nanoseconds.
		lo, hi := bucketBounds(i)
		frac := float64(rank-cum) / float64(c)
		v := float64(lo) + frac*float64(hi-lo)
		// The top bucket's bound is MaxInt64: interpolation there can
		// round to 2^63, which would overflow the Duration conversion.
		est := int64(math.MaxInt64)
		if v < float64(math.MaxInt64) {
			est = int64(v)
		}
		least, most := h.bounds()
		return time.Duration(min(max(est, least), most))
	}
	// Unreachable when total > 0; keep a defined answer.
	return 0
}

// bounds returns the observed sample range [lo, hi] in nanoseconds;
// an empty histogram reports [0, 0].
func (h *Histogram) bounds() (lo, hi int64) {
	if h == nil {
		return 0, 0
	}
	inv := h.minInv.Load()
	if inv == 0 {
		return 0, h.max.Load()
	}
	return math.MaxInt64 - inv, h.max.Load()
}

// bucketBounds returns the nanosecond range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		// The top bucket's upper bound saturates instead of overflowing;
		// durations there are beyond meaningful interpolation anyway.
		return lo, math.MaxInt64
	}
	return lo, int64(1) << i
}

// MergeFrom folds src's buckets into h bucket-wise and widens h's
// observed range to cover src's. Both sides may be nil (no-op).
// Bucket-wise addition and running maxima make MergeFrom associative
// and order-independent, which histogram merge tests pin.
func (h *Histogram) MergeFrom(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	storeMax(&h.max, src.max.Load())
	storeMax(&h.minInv, src.minInv.Load())
	for i := range src.counts {
		if v := src.counts[i].Load(); v != 0 {
			h.counts[i].Add(v)
		}
	}
	if v := src.sum.Load(); v != 0 {
		h.sum.Add(v)
	}
}

// HistStat is a histogram's snapshot form: sample count, duration sum,
// and the extracted latency percentiles, shaped for JSON export.
type HistStat struct {
	Count    int64 `json:"count"`
	SumNanos int64 `json:"sum_ns"`
	P50Nanos int64 `json:"p50_ns"`
	P95Nanos int64 `json:"p95_ns"`
	P99Nanos int64 `json:"p99_ns"`
}

// Stat extracts the histogram's snapshot (count, sum, p50/p95/p99).
func (h *Histogram) Stat() HistStat {
	if h == nil {
		return HistStat{}
	}
	return HistStat{
		Count:    h.Count(),
		SumNanos: h.SumNanos(),
		P50Nanos: int64(h.Quantile(0.50)),
		P95Nanos: int64(h.Quantile(0.95)),
		P99Nanos: int64(h.Quantile(0.99)),
	}
}

// Buckets returns the non-cumulative bucket counts (index = bit length
// of the nanosecond duration); used by the Prometheus exporter and by
// merge tests.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
