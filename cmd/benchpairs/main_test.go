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

// TestSummarize checks the per-pair worse/better counts, including a
// tie and a higher-is-better metric, the medians, the median of the
// per-pair ratios, and the bound flag. The third base run failed and
// reports its metrics as 0, as a run with wrong answers does: it
// counts in no median and its pair in no pair figure. The fourth pair
// shows what the ratio of medians hides: the head is slower in every
// pair of job_s, yet its median is within the bound.
func TestSummarize(t *testing.T) {
	specs := []metricSpec{
		{Name: "job_s", Better: "lower", Bound: 0.1},
		{Name: "rate", Better: "higher", Bound: 0.1},
	}
	base := mustResults(t,
		`{"failed":0,"metrics":{"job_s":{"value":1.0},"rate":{"value":10}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.2},"rate":{"value":10}}}`,
		`{"failed":1,"metrics":{"job_s":{"value":0},"rate":{"value":0}}}`,
	)
	head := mustResults(t,
		`{"failed":0,"metrics":{"job_s":{"value":0.9},"rate":{"value":10}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.3},"rate":{"value":8}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.0},"rate":{"value":8}}}`,
	)
	slower := mustResults(t,
		`{"failed":0,"metrics":{"job_s":{"value":1.05}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.26}}}`,
		`{"failed":0,"metrics":{"job_s":{"value":1.26}}}`,
	)
	var buf bytes.Buffer
	fails := summarize(&buf, specs, base, head)
	lines := map[string][]string{}
	for _, l := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = f
		}
	}
	// metric, base median, head median, ratio, pair ratio, bound,
	// head worse, head better
	if f := lines["job_s"]; len(f) != 8 || f[1] != "1.1" || f[2] != "1" || f[4] != "0.9917" || f[6] != "1/2" || f[7] != "1/2" {
		t.Errorf("job_s row %q", f)
	}
	if f := lines["rate"]; len(f) != 10 || f[1] != "10" || f[4] != "0.9000" || f[6] != "1/2" || f[7] != "0/2" || f[8] != "over" {
		t.Errorf("rate row %q", f)
	}
	if f := lines["failed"]; len(f) != 4 || f[2] != "1" || f[3] != "0" {
		t.Errorf("failed row %q", f)
	}
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "rate ") {
		t.Errorf("gate failures %q, want only rate's", fails)
	}
	buf.Reset()
	base[2] = base[1]
	if fails := summarize(&buf, specs[:1], base, slower); len(fails) != 0 {
		t.Errorf("gate failures %q, want a pass within the bound", fails)
	}
	// Base 1, 1.2, 1.2 against head 1.05, 1.26, 1.26: every pair 5%
	// slower, the medians 5% apart, within the 10% bound.
	if f := strings.Fields(strings.Split(buf.String(), "\n")[2]); len(f) != 8 || f[3] != "1.0500" || f[4] != "1.0500" || f[6] != "3/3" || f[7] != "0/3" {
		t.Errorf("all-slower job_s row %q", f)
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
