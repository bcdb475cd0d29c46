// Command benchpairs compares the working tree against a base revision
// on one workload of the repository benchmark (bench/, BENCHMARK.json)
// by alternating fresh runs of the two sides on the same host.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchpairs -base HEAD~1 -workload quest-mine -pairs 5
//	make bench-pairs BASE=HEAD~1 WORKLOAD=quest-mine PAIRS=5
//
// It checks the base revision out into a temporary git worktree and
// runs `bash bench/run.sh` there and in the working tree, one pair at a
// time, flipping which side runs first on each pair so that the host's
// drift over the runs falls on both sides alike. It prints every
// run's JSON line, then, for each end-to-end metric of BENCHMARK.json,
// the median of each side, their ratio, the median of the per-pair
// head/base ratios, and in how many of the compared pairs the head was
// worse and better. A run with failed operations reports its metrics
// as 0, so it is left out of the medians and its pair out of the
// pair figures. The worktree is removed on exit.
//
// It is a gate: it exits 1 when some end-to-end metric's head median is
// worse than the base median by more than the metric's BENCHMARK.json
// bound (the row flagged "over bound"), or when the head runs had more
// failed operations (errors or wrong answers) than the base runs.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON line a benchmark run ends with.
type result struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "benchmark workload (required)")
	pairs := flag.Int("pairs", 5, "number of alternating pairs of runs")
	seconds := flag.Int("seconds", 20, "--seconds of each run")
	seed := flag.Int("seed", 1, "--seed of each run")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -base REV -workload W [-pairs N] [-seconds S] [-seed N]")
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs, *seconds, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs, seconds, seed int) error {
	root, err := gitOutput(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	specs, err := readSpecs(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	wt := filepath.Join(tmp, "base")
	if _, err := gitOutput(root, "worktree", "add", "--detach", wt, base); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	defer func() {
		gitOutput(root, "worktree", "remove", "--force", wt)
		os.RemoveAll(tmp)
	}()
	// An interrupt kills the running benchmark and returns through the
	// deferred removal of the worktree.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	args := []string{"bench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds)}
	sides := [2]struct{ name, dir string }{{"base", wt}, {"head", root}}
	var runs [2][]result
	for p := 0; p < pairs; p++ {
		for k := 0; k < 2; k++ {
			s := (p + k) % 2 // base first on even pairs, head first on odd
			line, err := benchRun(ctx, sides[s].dir, args)
			if err != nil {
				return fmt.Errorf("pair %d %s: %w", p+1, sides[s].name, err)
			}
			fmt.Printf("pair %d %s %s\n", p+1, sides[s].name, line)
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("pair %d %s: %w", p+1, sides[s].name, err)
			}
			runs[s] = append(runs[s], r)
		}
	}
	if fails := summarize(os.Stdout, specs, runs[0], runs[1]); len(fails) > 0 {
		return fmt.Errorf("gate failed: %s", strings.Join(fails, "; "))
	}
	return nil
}

// readSpecs reads the end-to-end metrics of a BENCHMARK.json.
func readSpecs(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// benchRun runs the benchmark in dir and returns the JSON line its
// output ends with; the per-metric lines before it go to stderr.
func benchRun(ctx context.Context, dir string, args []string) (string, error) {
	cmd := exec.CommandContext(ctx, "bash", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, "{") {
			last = line
		} else if line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if last == "" {
		return "", fmt.Errorf("no JSON result line in the output")
	}
	return last, nil
}

// summarize prints, per metric, each side's median, the head/base
// ratio of the medians, the median of the per-pair head/base ratios,
// and the pairs in which the head was worse and better out of those
// compared (a tie counts for neither), and flags a head median worse
// than the metric's bound. The pair figures show a consistent shift
// the bound lets pass. A run with failed operations reports its
// metrics as 0, so it is left out of its side's median and its pair
// out of the pair figures. It returns the gate's failures: one per
// metric over its bound, and one when the head failed more operations
// than the base; none is a pass.
func summarize(w io.Writer, specs []metricSpec, base, head []result) []string {
	var fails []string
	fmt.Fprintf(w, "\n%-18s %14s %14s %8s %10s %6s %6s %6s\n", "metric", "base median", "head median", "ratio", "pair ratio", "bound", "worse", "better")
	for _, m := range specs {
		var worse, wins, pairs int
		var ratios []float64
		for i := range min(len(base), len(head)) {
			b, h := base[i].Metrics[m.Name].Value, head[i].Metrics[m.Name].Value
			if base[i].Failed > 0 || head[i].Failed > 0 {
				continue
			}
			pairs++
			if b != 0 {
				ratios = append(ratios, h/b)
			}
			switch {
			case better(m, h, b):
				wins++
			case better(m, b, h):
				worse++
			}
		}
		mb, mh := median(values(base, m.Name)), median(values(head, m.Name))
		ratio := mh / mb
		verdict := ""
		if worse := (m.Better == "lower" && ratio > 1+m.Bound) || (m.Better == "higher" && ratio < 1-m.Bound); mb != 0 && worse {
			verdict = "  over bound"
			fails = append(fails, fmt.Sprintf("%s head/base %.4f past bound %.2f", m.Name, ratio, m.Bound))
		}
		fmt.Fprintf(w, "%-18s %14.6g %14.6g %8.4f %10.4f %6.2f %6s %6s%s\n", m.Name, mb, mh, ratio, median(ratios), m.Bound,
			fmt.Sprintf("%d/%d", worse, pairs), fmt.Sprintf("%d/%d", wins, pairs), verdict)
	}
	fb, fh := failed(base), failed(head)
	fmt.Fprintf(w, "%-18s %14d %14d\n", "failed (sum)", fb, fh)
	if fh > fb {
		fails = append(fails, fmt.Sprintf("head failed %d operations, base %d", fh, fb))
	}
	return fails
}

// better reports whether x beats y under m's direction.
func better(m metricSpec, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// values returns metric name of the runs without failed operations.
func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if r.Failed == 0 {
			v = append(v, r.Metrics[name].Value)
		}
	}
	return v
}

func failed(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

// median returns the median of v, the mean of the middle two for an
// even count; 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gitOutput runs git in dir and returns its trimmed standard output.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
