package main

import "sort"

// summary reduces a sample set the way the report prints it: the
// nearest-rank median, the extremes and the sample count.
type summary struct {
	Median, Min, Max float64
	N                int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	return summary{Median: percentile(s, 5000), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentiles are written in hundredths of a percent (9990 is p99.9) so
// that ranks are computed in integers: 99.9/100*10000 is not 9990 in
// floating point, and a rank that is one too high loses a sample.
const hundredPercent = 10000

// rank returns the 1-based nearest rank of percentile p among n samples:
// the smallest r with r/n >= p.
func rank(p, n int) int {
	r := (p*n + hundredPercent - 1) / hundredPercent
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of the ascending
// samples s: always one of the samples, never an interpolation.
func percentile(s []float64, p int) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[rank(p, len(s))-1]
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 5000}

// tailPercentile returns the highest ladder percentile that has at least
// ten of n samples beyond it; below that a percentile is one or two
// samples wide and says nothing about the tail. ok is false when not even
// the median qualifies.
func tailPercentile(n int) (p int, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}
