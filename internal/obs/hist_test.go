package obs

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples at 1µs, 10 at 1ms, 1 at 1s: the quantiles must land
	// in (or at the bound of) the right log2 bucket.
	for i := 0; i < 100; i++ {
		h.Record(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	h.Record(time.Second)
	if got := h.Count(); got != 111 {
		t.Fatalf("Count = %d, want 111", got)
	}
	wantSum := int64(100*time.Microsecond + 10*time.Millisecond + time.Second)
	if got := h.SumNanos(); got != wantSum {
		t.Errorf("SumNanos = %d, want %d", got, wantSum)
	}
	// Log2 buckets estimate within 2x: p50 near 1µs, p99 near 1ms,
	// p100 near 1s.
	if p := h.Quantile(0.50); p < 512*time.Nanosecond || p > 2*time.Microsecond {
		t.Errorf("p50 = %v, want within 2x of 1µs", p)
	}
	if p := h.Quantile(0.99); p < 512*time.Microsecond || p > 2*time.Millisecond {
		t.Errorf("p99 = %v, want within 2x of 1ms", p)
	}
	if p := h.Quantile(1.0); p < 512*time.Millisecond || p > 2*time.Second {
		t.Errorf("p100 = %v, want within 2x of 1s", p)
	}
	st := h.Stat()
	if st.Count != 111 || st.P50Nanos > st.P95Nanos || st.P95Nanos > st.P99Nanos {
		t.Errorf("Stat not monotonic: %+v", st)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Record(time.Second) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 || nilH.SumNanos() != 0 {
		t.Error("nil histogram not inert")
	}
	nilH.MergeFrom(nil) // must not panic

	var h Histogram
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.Record(-time.Second) // clock adjustment: clamps to zero, still counted
	if h.Count() != 1 || h.SumNanos() != 0 {
		t.Errorf("negative sample: count %d sum %d, want 1 and 0", h.Count(), h.SumNanos())
	}
	h.Record(time.Duration(math.MaxInt64)) // top bucket must not overflow
	if got := h.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if p := h.Quantile(1.0); p <= 0 {
		t.Errorf("top-bucket quantile = %v, want positive", p)
	}
	// Out-of-range q clamps rather than panics.
	if h.Quantile(-1) < 0 || h.Quantile(2) < 0 {
		t.Error("out-of-range quantile went negative")
	}
}

// TestHistogramConcurrentRecord hammers one histogram from GOMAXPROCS
// writers and asserts the exact total count and sum — the atomic
// buckets must not lose updates. Under -race this doubles as the proof
// the record path is race-free.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Spread samples across buckets so contention hits
				// different atomics, not one.
				h.Record(time.Duration(1) << (uint(w+i) % 30))
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), int64(workers*iters); got != want {
		t.Fatalf("Count = %d, want %d (lost updates)", got, want)
	}
	var bucketSum int64
	for _, c := range h.Buckets() {
		bucketSum += c
	}
	if bucketSum != int64(workers*iters) {
		t.Errorf("bucket sum = %d, want %d", bucketSum, workers*iters)
	}
}

// TestHistogramMergeAssociative pins the property Recorder.Merge relies
// on for deterministic shard fold-in: bucket-wise merge is associative
// and order-independent, so (a+b)+c equals a+(b+c) equals c+(a+b)
// bucket for bucket.
func TestHistogramMergeAssociative(t *testing.T) {
	mk := func(seed int) *Histogram {
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Record(time.Duration((seed*31 + i*17) % 100000))
		}
		return &h
	}
	merge := func(hs ...*Histogram) *Histogram {
		var acc Histogram
		for _, h := range hs {
			acc.MergeFrom(h)
		}
		return &acc
	}
	a, b, c := mk(1), mk(2), mk(3)
	left := merge(merge(a, b), c)    // (a+b)+c
	right := merge(a, merge(b, c))   // a+(b+c)
	rotated := merge(c, merge(a, b)) // c+(a+b)
	lb, rb, ob := left.Buckets(), right.Buckets(), rotated.Buckets()
	for i := range lb {
		if lb[i] != rb[i] || lb[i] != ob[i] {
			t.Fatalf("bucket %d diverges across merge orders: %d / %d / %d", i, lb[i], rb[i], ob[i])
		}
	}
	if left.SumNanos() != right.SumNanos() || left.SumNanos() != rotated.SumNanos() {
		t.Errorf("sums diverge: %d / %d / %d", left.SumNanos(), right.SumNanos(), rotated.SumNanos())
	}
	if left.Count() != 600 {
		t.Errorf("merged count = %d, want 600", left.Count())
	}
}

// TestRecorderHistogramMerge checks the recorder-level path: per-shard
// recorders record into private histograms, Merge folds them bucket-wise
// into the parent, and the snapshot carries the percentiles.
func TestRecorderHistogramMerge(t *testing.T) {
	parent := New(nil)
	for s := 0; s < 4; s++ {
		shard := New(nil)
		for i := 0; i < 50; i++ {
			shard.Histogram(HistCondMine).Record(time.Duration(s+1) * time.Microsecond)
		}
		parent.Merge(shard)
	}
	if got := parent.Histogram(HistCondMine).Count(); got != 200 {
		t.Fatalf("merged count = %d, want 200", got)
	}
	snap := parent.Snapshot()
	hs, ok := snap.Hists[HistCondMine.String()]
	if !ok {
		t.Fatalf("snapshot lacks %s: %+v", HistCondMine, snap.Hists)
	}
	if hs.Count != 200 || hs.P50Nanos <= 0 {
		t.Errorf("snapshot hist = %+v", hs)
	}
	// The empty query histogram must stay out of the snapshot.
	if _, ok := snap.Hists[HistQuery.String()]; ok {
		t.Error("empty histogram exported in snapshot")
	}
}

// TestObserveSince covers the nil-tolerant convenience pair: Clock is
// zero on a nil recorder and ObserveSince drops the sample then.
func TestObserveSince(t *testing.T) {
	var nilRec *Recorder
	if !nilRec.Clock().IsZero() {
		t.Error("nil recorder Clock not zero")
	}
	nilRec.ObserveSince(HistCondMine, time.Now()) // must not panic

	rec := New(nil)
	rec.ObserveSince(HistCondMine, time.Time{}) // zero t0: dropped
	if got := rec.Histogram(HistCondMine).Count(); got != 0 {
		t.Errorf("zero-t0 sample recorded: count %d", got)
	}
	rec.ObserveSince(HistCondMine, rec.Clock())
	if got := rec.Histogram(HistCondMine).Count(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
}

// TestHistogramSingleSampleQuantiles: a one-sample histogram knows its
// sample exactly, so every quantile returns it instead of an
// interpolated point inside the sample's power-of-two bucket.
func TestHistogramSingleSampleQuantiles(t *testing.T) {
	const sample = 2399570 * time.Microsecond // a 2399.57 ms query
	var h Histogram
	h.Record(sample)
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != sample {
			t.Errorf("Quantile(%v) = %v, want the sample %v", q, got, sample)
		}
	}
	if lo, hi := h.bounds(); lo != int64(sample) || hi != int64(sample) {
		t.Errorf("range = [%d, %d], want [%d, %d]", lo, hi, sample, sample)
	}
}

// TestHistogramQuantilesWithinRange: every estimate stays inside the
// observed [min, max], including at the bucket edges the log2 layout
// would otherwise interpolate past.
func TestHistogramQuantilesWithinRange(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{1100, 1200, 1300, 5000, 5100} {
		h.Record(d)
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if got := int64(h.Quantile(q)); got < 1100 || got > 5100 {
			t.Errorf("Quantile(%.2f) = %d, outside the observed [1100, 5100]", q, got)
		}
	}
	var empty Histogram
	if lo, hi := empty.bounds(); lo != 0 || hi != 0 || empty.Quantile(0.5) != 0 {
		t.Errorf("empty histogram: min %d, max %d, p50 %v; want all 0", lo, hi, empty.Quantile(0.5))
	}
}

// TestHistogramMergeKeepsRange: merging widens the observed range to
// cover both sides, and merging an empty histogram changes nothing.
func TestHistogramMergeKeepsRange(t *testing.T) {
	var a, b, empty, acc Histogram
	a.Record(300)
	a.Record(900)
	b.Record(40)
	b.Record(7000)
	acc.MergeFrom(&a)
	acc.MergeFrom(&empty)
	if lo, hi := acc.bounds(); lo != 300 || hi != 900 {
		t.Errorf("after a: range = [%d, %d], want [300, 900]", lo, hi)
	}
	acc.MergeFrom(&b)
	if lo, hi := acc.bounds(); lo != 40 || hi != 7000 {
		t.Errorf("after a+b: range = [%d, %d], want [40, 7000]", lo, hi)
	}
	if p99 := int64(acc.Quantile(0.99)); p99 > 7000 {
		t.Errorf("merged p99 = %d, above the merged max 7000", p99)
	}
	// The recorder-level merge carries the range too.
	parent, shard := New(nil), New(nil)
	shard.Histogram(HistQuery).Record(1234)
	parent.Merge(shard)
	h := parent.Histogram(HistQuery)
	if lo, hi := h.bounds(); lo != 1234 || hi != 1234 || h.Quantile(0.5) != 1234 {
		t.Errorf("recorder merge: range [%d, %d], p50 %v; want 1234 throughout", lo, hi, h.Quantile(0.5))
	}
}
