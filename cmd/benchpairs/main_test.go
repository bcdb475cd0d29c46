package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	fails := summarize(&buf, specs, base, head)
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
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "rate ") {
		t.Errorf("gate failures %q, want only rate's", fails)
	}
}

// TestGateVerdict pins when the gate passes: only with every metric
// within its bound and no more failed operations on the head than on
// the base.
func TestGateVerdict(t *testing.T) {
	specs := []metricSpec{
		{Name: "job_s", Better: "lower", Bound: 0.24},
		{Name: "rate", Better: "higher", Bound: 0.1},
	}
	run := func(failed int, job, rate float64) string {
		return fmt.Sprintf(`{"failed":%d,"metrics":{"job_s":{"value":%g},"rate":{"value":%g}}}`, failed, job, rate)
	}
	base := mustResults(t, run(0, 1.0, 10), run(0, 1.1, 10), run(0, 0.9, 10))
	for _, c := range []struct {
		name string
		head []string
		fail string // prefix of the one expected failure; "" is a pass
	}{
		{"within bound", []string{run(0, 1.2, 9.2), run(0, 1.23, 9.5), run(0, 1.0, 11)}, ""},
		{"lower-is-better over bound", []string{run(0, 1.3, 10), run(0, 1.25, 10), run(0, 1.0, 10)}, "job_s "},
		{"higher-is-better under bound", []string{run(0, 1.0, 8), run(0, 1.0, 8.9), run(0, 1.0, 10)}, "rate "},
		{"more failed operations", []string{run(0, 1.0, 10), run(1, 1.0, 10), run(0, 1.0, 10)}, "head failed 1 operations"},
	} {
		fails := summarize(io.Discard, specs, base, mustResults(t, c.head...))
		switch {
		case c.fail == "" && len(fails) != 0:
			t.Errorf("%s: gate failed with %q, want a pass", c.name, fails)
		case c.fail != "" && (len(fails) != 1 || !strings.HasPrefix(fails[0], c.fail)):
			t.Errorf("%s: gate failures %q, want one starting %q", c.name, fails, c.fail)
		}
	}
}
