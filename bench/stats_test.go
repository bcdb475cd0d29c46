package main

import (
	"math/rand"
	"testing"
)

func TestSummarizeNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{7}, summary{Median: 7, Min: 7, Max: 7, N: 1}},
		{[]float64{3, 1, 2}, summary{Median: 2, Min: 1, Max: 3, N: 3}},
		// Nearest rank takes the lower middle sample, never an average.
		{[]float64{4, 1, 3, 2}, summary{Median: 2, Min: 1, Max: 4, N: 4}},
		{[]float64{5, 5, 1, 9, 5}, summary{Median: 5, Min: 1, Max: 9, N: 5}},
		{nil, summary{}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    int
		want float64
	}{
		{5000, 500}, {9000, 900}, {9900, 990}, {9990, 999}, {9999, 1000}, {10000, 1000}, {1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %d) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{100_000, 9999, true},
		{99_999, 9990, true},
		{10_000, 9990, true},
		{9_999, 9900, true},
		{1_000, 9900, true},
		{999, 9500, true},
		{100, 9000, true},
		{99, 5000, true},
		{20, 5000, true},
		{19, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(p, c.n) < 10 {
			t.Errorf("tailPercentile(%d) = %d leaves %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

// TestPercentilesOrdered checks p50 <= p99 <= tail <= max on random
// samples of every size: the estimates come from the samples, so they
// can neither cross nor exceed the largest one.
func TestPercentilesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 20; n <= 20_000; n = n*3 + 1 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		s := sortedCopy(xs)
		p, _ := tailPercentile(n)
		p50, p99, tail := percentile(s, 5000), percentile(s, 9900), percentile(s, p)
		if !(p50 <= p99 && p99 <= s[n-1] && p50 <= tail && tail <= s[n-1]) {
			t.Errorf("n=%d: p50 %v, p99 %v, tail %v, max %v", n, p50, p99, tail, s[n-1])
		}
	}
}
