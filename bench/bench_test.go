package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the test binary serve as a repetition's child process,
// so the tests run the benchmark through the same code path as the
// benchmark binary.
func TestMain(m *testing.M) {
	if path := os.Getenv(specEnv); path != "" {
		os.Exit(childMain(path))
	}
	os.Exit(m.Run())
}

// smokeScale shrinks every input tenfold. At 1/50 Quest has 250
// transactions, a 1% support of 3, and half a million itemsets.
const smokeScale = 10

func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 1, trace: trace, scale: smokeScale, setups: 1, out: t.TempDir(), timeout: time.Minute}
}

// TestSmoke runs every workload at 1/10 scale, untraced and traced,
// with one repetition of each kind, and requires every op to succeed,
// every metric to be reported and the trace file to be sound.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, smokeConfig(t, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: %d of %d ops failed", res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			c := smokeConfig(t, true)
			res, err = runWorkload(w, c, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: %d of %d ops failed", res.Failed, res.Attempted)
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
				}
			}
			checkTraceFile(t, w, filepath.Join(c.out, "trace_"+w.name+".json"))
		})
	}
}

// TestCheckCountsWrongAnswers feeds a real repetition's result to the
// check against a reference with one wrong checksum and one wrong query
// answer: both must count as failed ops, and a repetition that did not
// finish fails every op.
func TestCheckCountsWrongAnswers(t *testing.T) {
	w, err := workloadByName("retail-index")
	if err != nil {
		t.Fatal(err)
	}
	in, err := setUp(w, 1, smokeScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(w, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runRep(&in.spec)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed := want.check(got, nil)
	if attempted != 2+queriesPerRep+1 || failed != 0 {
		t.Fatalf("correct repetition: %d of %d failed", failed, attempted)
	}
	bad := expected{ops: append([]op(nil), want.ops...), answers: append([]uint64(nil), want.answers...)}
	bad.ops[1].Sum++
	bad.answers[7]++
	if _, failed := bad.check(got, nil); failed != 2 {
		t.Errorf("wrong checksum and wrong answer: %d failed, want 2", failed)
	}
	if attempted, failed := want.check(nil, io.ErrUnexpectedEOF); failed != attempted {
		t.Errorf("unfinished repetition: %d of %d failed", failed, attempted)
	}
}

// TestInputsDeterministic requires the same (workload, seed) to give
// byte-identical input files and query lists, and another seed to give
// different ones.
func TestInputsDeterministic(t *testing.T) {
	files := func(w *workload, seed int64) [][]byte {
		in, err := setUp(w, seed, smokeScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, path := range []string{in.spec.FIMI, in.spec.Queries} {
			if path == "" {
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, c := files(w, 1), files(w, 1), files(w, 2)
		for j := range a {
			if !bytes.Equal(a[j], b[j]) {
				t.Errorf("%s: file %d differs between two set-ups at seed 1", w.name, j)
			}
			if bytes.Equal(a[j], c[j]) {
				t.Errorf("%s: file %d is the same at seeds 1 and 2", w.name, j)
			}
		}
	}
}

// TestChildRSSIsItsOwn runs a repetition while the parent holds 256 MB:
// the peak RSS the child reports must not include the parent's.
func TestChildRSSIsItsOwn(t *testing.T) {
	w, err := workloadByName("kosarak-stream")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, err := setUp(w, 1, smokeScale, dir)
	if err != nil {
		t.Fatal(err)
	}
	path, err := writeSpec(dir, "job.json", in.spec)
	if err != nil {
		t.Fatal(err)
	}
	ballast := make([]byte, 256<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	r, err := runChild(context.Background(), path)
	runtime.KeepAlive(ballast)
	if err != nil {
		t.Fatal(err)
	}
	if r.RSSBytes <= 0 || r.RSSBytes >= 128<<20 {
		t.Errorf("child peak RSS %d bytes, want between 0 and 128 MiB", r.RSSBytes)
	}
}

// checkTraceFile re-parses a traced run's trace: every span lies inside
// its parent, no self time is negative, and on the batch workloads the
// layer spans cover the repetition's wall time to within 15%.
func checkTraceFile(t *testing.T, w *workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != w.name || len(tf.Reps) == 0 {
		t.Fatalf("trace holds %q with %d repetitions", tf.Workload, len(tf.Reps))
	}
	for _, spans := range tf.Reps {
		byID := make(map[int]span, len(spans))
		for _, s := range spans {
			byID[s.ID] = s
		}
		var wall, layers int64
		for _, s := range spans {
			if s.End < s.Start {
				t.Errorf("span %s ends before it starts", s.Name)
			}
			if s.Parent == 0 {
				if s.Name == "rep" {
					wall = s.End - s.Start
				}
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || s.Start < p.Start || s.End > p.End {
				t.Errorf("span %s lies outside its parent %s", s.Name, p.Name)
			}
		}
		for id, self := range selfTimes(spans) {
			if self < 0 {
				t.Errorf("span %s has self time %d ns", byID[id].Name, self)
			}
			if byID[id].Parent != 0 {
				layers += self
			}
		}
		if w.kind == kindBatch && (float64(layers) < 0.85*float64(wall) || layers > wall) {
			t.Errorf("layer self times sum to %d ns of a %d ns repetition", layers, wall)
		}
	}
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span are sequential calls, so they never
// overlap.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// TestQueryPercentilesWithinWall checks p50 <= p99 <= tail <= the wall
// time of the whole query loop on a traced index repetition: the
// percentiles are taken from raw samples, so none can exceed the time
// all queries took together.
func TestQueryPercentilesWithinWall(t *testing.T) {
	w, err := workloadByName("retail-index")
	if err != nil {
		t.Fatal(err)
	}
	in, err := setUp(w, 1, smokeScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in.spec.Trace = true
	r, err := runRep(&in.spec)
	if err != nil {
		t.Fatal(err)
	}
	var loop float64
	for _, s := range r.Spans {
		if s.Name == "cfpgrowth.query" {
			loop = float64(s.End-s.Start) / 1e3
		}
	}
	p50, p99, tail := r.Layers["cfpgrowth.query_p50_us"], r.Layers["cfpgrowth.query_p99_us"], r.Layers["cfpgrowth.query_tail_us"]
	if !(0 < p50 && p50 <= p99 && p99 <= tail && tail <= loop) {
		t.Errorf("p50 %v, p99 %v, tail %v, loop %v µs: want 0 < p50 <= p99 <= tail <= loop", p50, p99, tail, loop)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s, want %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
}
