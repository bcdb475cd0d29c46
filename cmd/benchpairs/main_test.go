package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func mustResults(t *testing.T, lines ...string) []result {
	t.Helper()
	rs := make([]result, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestSummarize checks the per-pair win counts, including a tie and a
// higher-is-better metric, the medians, and the bound flag.
func TestSummarize(t *testing.T) {
	specs := []metricSpec{
		{Name: "job_s", Better: "lower", Bound: 0.1},
		{Name: "rate", Better: "higher", Bound: 0.1},
	}
	base := mustResults(t,
		`{"failed":0,"metrics":{"job_s":{"value":1.0},"rate":{"value":10}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.2},"rate":{"value":10}}}`,
		`{"failed":1,"metrics":{"job_s":{"value":1.1},"rate":{"value":10}}}`,
	)
	head := mustResults(t,
		`{"failed":0,"metrics":{"job_s":{"value":0.9},"rate":{"value":10}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.3},"rate":{"value":8}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.0},"rate":{"value":8}}}`,
	)
	var buf bytes.Buffer
	summarize(&buf, specs, base, head)
	lines := map[string][]string{}
	for _, l := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = f
		}
	}
	// metric, base median, head median, ratio, bound, base wins, head wins
	if f := lines["job_s"]; len(f) != 7 || f[1] != "1.1" || f[2] != "1" || f[5] != "1" || f[6] != "2" {
		t.Errorf("job_s row %q", f)
	}
	if f := lines["rate"]; len(f) != 9 || f[5] != "2" || f[6] != "0" || f[7] != "over" {
		t.Errorf("rate row %q", f)
	}
	if f := lines["failed"]; len(f) != 4 || f[2] != "1" || f[3] != "0" {
		t.Errorf("failed row %q", f)
	}
}
