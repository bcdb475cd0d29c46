// Command cfpbench is the repository's benchmark. For each workload it
// generates the inputs from a seed, runs the workload's job again and
// again in fresh child processes for a fixed time, checks every answer
// against an independent reference, and prints every metric by name
// and unit. The last line of its output is one JSON object with the
// run's verdict and metrics. README.md describes the workloads, the
// metrics and the trace.
//
// Run it from the root of the repository:
//
//	bash bench/run.sh --workload quest-mine --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	if path := os.Getenv(specEnv); path != "" {
		os.Exit(childMain(path))
	}
	name := flag.String("workload", "", "workload to run; every workload when empty")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long a workload's repetitions run, in seconds")
	trace := flag.Int("trace", 0, "1 runs traced repetitions and reports the per-layer metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for the generated inputs and the traces")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds < 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		scale:   1,
		setups:  3,
		out:     *out,
		timeout: 170 * time.Second,
	}
	var names []string
	if *name != "" {
		names = []string{*name}
	} else {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		w, err := workloadByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfpbench:", err)
			os.Exit(2)
		}
		res, err := runWorkload(w, c, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfpbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfpbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// runConfig is how one workload is run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// scale divides every input size; the benchmark runs at 1.
	scale int
	// setups is how many times the inputs are set up; setup_s is the
	// median.
	setups int
	out    string
	// timeout bounds the whole workload, children included.
	timeout time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets up w's inputs, computes the reference answers, and
// runs repetitions one at a time, each in a fresh child process, until
// c.seconds have passed. Untraced, it reports the end-to-end metrics.
// Traced, it alternates untraced and traced repetitions, reports the
// per-layer metrics and writes the traced repetitions' spans to c.out.
// Human-readable lines go to log.
func runWorkload(w *workload, c runConfig, log io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setup []float64
	var in *input
	for i := 0; i < c.setups; i++ {
		t0 := time.Now()
		if in, err = setUp(w, c.seed, c.scale, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	want, err := reference(w, in)
	if err != nil {
		return nil, err
	}
	jobSpec, err := writeSpec(dir, "job.json", in.spec)
	if err != nil {
		return nil, err
	}
	in.spec.Trace = true
	traceSpec, err := writeSpec(dir, "trace.json", in.spec)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: make(map[string]metric)}
	var jobs, traced []*repResult
	start := time.Now()
	for i := 0; ; i++ {
		isTraced := c.trace && i%2 == 1
		path := jobSpec
		if isTraced {
			path = traceSpec
		}
		r, err := runChild(ctx, path)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, ctx.Err())
		}
		a, f := want.check(r, err)
		res.Attempted += a
		res.Failed += f
		switch {
		case err != nil:
			fmt.Fprintf(log, "%s: repetition %d: %v\n", w.name, i, err)
		case f > 0:
			fmt.Fprintf(log, "%s: repetition %d: %d of %d answers wrong\n", w.name, i, f, a)
		case isTraced:
			traced = append(traced, r)
		default:
			jobs = append(jobs, r)
		}
		if time.Since(start).Seconds() >= c.seconds && (!c.trace || i >= 1) {
			break
		}
	}
	res.Correct = res.Failed == 0

	report := func(d metricDef, xs []float64) {
		s := summarize(xs)
		res.Metrics[d.name] = metric{Value: s.Median, Unit: d.unit}
		fmt.Fprintf(log, "%-16s %-30s %14.6g %-5s  median of %d, min %.6g, max %.6g\n",
			w.name, d.name, s.Median, d.unit, s.N, s.Min, s.Max)
	}
	jobSeconds := collect(jobs, func(r *repResult) float64 { return float64(r.JobNanos) / 1e9 })
	if !c.trace {
		values := map[string][]float64{
			"setup_s":          setup,
			"job_s":            jobSeconds,
			"first_answer_s":   collect(jobs, func(r *repResult) float64 { return float64(r.FirstNanos) / 1e9 }),
			"peak_rss_bytes":   collect(jobs, func(r *repResult) float64 { return float64(r.RSSBytes) }),
			"peak_model_bytes": collect(jobs, func(r *repResult) float64 { return float64(r.ModelBytes) }),
		}
		for _, d := range endToEnd {
			report(d, values[d.name])
		}
		return res, nil
	}

	tf := traceFile{Workload: w.name, Seed: c.seed}
	for _, r := range traced {
		tf.Reps = append(tf.Reps, r.Spans)
	}
	if err := writeTrace(c.out, tf); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		xs := collect(traced, func(r *repResult) float64 { return r.Layers[d.name] })
		if d.name == "bench.trace_overhead_ratio" {
			wall := summarize(collect(traced, func(r *repResult) float64 { return r.Layers["bench.traced_wall_s"] }))
			xs = []float64{ratio(wall.Median, summarize(jobSeconds).Median)}
		}
		report(d, xs)
	}
	return res, nil
}

func collect(reps []*repResult, f func(*repResult) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func writeSpec(dir, name string, sp spec) (string, error) {
	data, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}

// runChild runs one repetition in a fresh process of this binary with
// GOMAXPROCS=2 and waits for it to exit, so that the process's peak RSS
// is that repetition's alone.
func runChild(ctx context.Context, specPath string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), specEnv+"="+specPath, "GOMAXPROCS=2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &r, nil
}
