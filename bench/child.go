package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cfpgrowth"
	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/obs"
)

// specEnv names the environment variable that turns the benchmark
// binary (or the test binary) into a repetition's child process; it
// holds the path of the spec file.
const specEnv = "CFPBENCH_SPEC"

// repResult is what a repetition's child process reports on stdout.
type repResult struct {
	// JobNanos is the wall time of the job, first call to last return.
	JobNanos int64 `json:"job_ns"`
	// FirstNanos is the time from the job's start to its first answer.
	FirstNanos int64 `json:"first_ns"`
	// ModelBytes is the modeled (C-layout) size the library reports for
	// the job's structures.
	ModelBytes int64    `json:"model_bytes"`
	Ops        []op     `json:"ops"`
	Answers    []uint64 `json:"answers,omitempty"`
	// RSSBytes is the process's peak resident set.
	RSSBytes int64 `json:"rss_bytes"`
	// Layers and Spans are filled by traced repetitions only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

func childMain(specPath string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfpbench child:", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "cfpbench child: spec:", err)
		return 1
	}
	res, err := runRep(&sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfpbench child: %s: %v\n", sp.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "cfpbench child:", err)
		return 1
	}
	return 0
}

// rep is one repetition in progress: its clock, its result, and in a
// traced repetition the tracer.
type rep struct {
	res   repResult
	t0    time.Time
	first time.Duration
	// tr is nil in untraced repetitions; every tracer method is then a
	// no-op.
	tr   *tracer
	root int
	ms0  runtime.MemStats
	// handlerNanos is the time spent in every handlerSample-th handler
	// call, less the clock's own cost.
	handlerNanos int64
	clockNanos   int64
}

// handlerSample is the stride at which traced repetitions time the
// benchmark's own result handler; timing every call would cost more
// than the handler.
const handlerSample = 64

func runRep(sp *spec) (*repResult, error) {
	w, err := workloadByName(sp.Workload)
	if err != nil {
		return nil, err
	}
	r := &rep{}
	if sp.Trace {
		r.tr = &tracer{epoch: time.Now()}
		r.res.Layers = make(map[string]float64)
		r.clockNanos = clockCost()
	}
	switch {
	case w.kind == kindBatch && sp.Trace:
		err = r.tracedBatch(w, sp)
	case w.kind == kindBatch:
		err = r.batch(w, sp)
	case w.kind == kindIndex:
		err = r.index(sp)
	default:
		err = r.stream(w, sp)
	}
	if err != nil {
		return nil, err
	}
	if r.res.RSSBytes, err = peakRSS(); err != nil {
		return nil, err
	}
	if r.tr != nil {
		r.res.Spans = r.tr.spans
	}
	return &r.res, nil
}

// peakRSS returns the peak resident set of this process (VmHWM). The
// child reads it itself: getrusage's ru_maxrss of a spawned child starts
// at the parent's peak, because Linux folds the pre-exec address space,
// which a vfork-style spawn shares with the parent, into it at exec.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return n * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// begin starts the job's clock; in a traced repetition also its root
// span and the runtime counters.
func (r *rep) begin() {
	if r.tr != nil {
		runtime.ReadMemStats(&r.ms0)
		r.root = r.tr.start("rep", 0)
	}
	r.t0 = time.Now()
}

// finish stops the job's clock.
func (r *rep) finish() {
	r.res.JobNanos = int64(time.Since(r.t0))
	r.res.FirstNanos = int64(r.first)
	if r.tr == nil {
		return
	}
	r.layer("bench.traced_wall_s", r.tr.end(r.root))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer("runtime.alloc_bytes", float64(ms.TotalAlloc-r.ms0.TotalAlloc))
	r.layer("runtime.gc_cycles", float64(ms.NumGC-r.ms0.NumGC))
	r.layer("runtime.gc_pause_s", float64(ms.PauseTotalNs-r.ms0.PauseTotalNs)/1e9)
	r.layer("bench.handler_s", float64(max(r.handlerNanos, 0)*handlerSample)/1e9)
}

func (r *rep) layer(name string, v float64) {
	if r.res.Layers != nil {
		r.res.Layers[name] = v
	}
}

// handler returns the result handler of one call: it folds the call's
// itemsets into t and notes the job's first answer.
func (r *rep) handler(t *tally) cfpgrowth.Handler {
	if r.tr == nil {
		return func(items []uint32, support uint64) error {
			if r.first == 0 {
				r.first = time.Since(r.t0)
			}
			t.add(items, support)
			return nil
		}
	}
	return func(items []uint32, support uint64) error {
		if t.n%handlerSample != 0 {
			t.add(items, support)
			return nil
		}
		t0 := time.Now()
		t.add(items, support)
		r.handlerNanos += int64(time.Since(t0)) - r.clockNanos
		return nil
	}
}

// clockCost returns the smallest measured cost of one clock read pair.
func clockCost() int64 {
	best := int64(math.MaxInt64)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		best = min(best, int64(time.Since(t0)))
	}
	return best
}

// mine runs one cfpgrowth.Mine call over the file and records it as an
// op.
func (r *rep) mine(name, path string, opts cfpgrowth.Options) error {
	var t tally
	err := cfpgrowth.Mine(cfpgrowth.File(path), opts, r.handler(&t))
	r.res.Ops = append(r.res.Ops, t.op(name))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// batch is the untraced batch job: a serial mine of the file, then a
// Parallel: 2 mine when the workload has one.
func (r *rep) batch(w *workload, sp *spec) error {
	r.begin()
	var ms cfpgrowth.MemoryStats
	if err := r.mine("mine", sp.FIMI, cfpgrowth.Options{MinSupport: sp.MinSup, Memory: &ms}); err != nil {
		return err
	}
	r.res.ModelBytes = ms.PeakBytes
	if w.parallel {
		if err := r.mine("mine_par2", sp.FIMI, cfpgrowth.Options{MinSupport: sp.MinSup, Parallel: 2}); err != nil {
			return err
		}
	}
	r.finish()
	return nil
}

// tracedBatch replays the serial mine as the sequence of public calls
// core.Growth.Mine makes, with a span around each, so that every layer
// gets its own time. The one difference is the separate top-level
// decode, which MineArrayItems repeats internally: core.mine_self_s
// subtracts it again.
func (r *rep) tracedBatch(w *workload, sp *spec) error {
	tr := r.tr
	src := cfpgrowth.File(sp.FIMI)
	r.begin()

	s := tr.start("dataset.count", r.root)
	counted := &timedSource{Source: src}
	counts, err := dataset.CountItems(counted)
	pass1 := tr.end(s)
	if err != nil {
		return err
	}
	count := counted.busy.Seconds()

	s = tr.start("dataset.recode", r.root)
	rec := dataset.NewRecoder(counts, sp.MinSup)
	names := make([]uint32, rec.NumFrequent())
	sups := make([]uint64, len(names))
	for i := range names {
		names[i] = rec.Decode(uint32(i))
		sups[i] = rec.Support(uint32(i))
	}
	r.layer("dataset.recode_s", tr.end(s))

	s = tr.start("core.build", r.root)
	tree := core.NewTree(arena.New(), core.Config{}, names, sups)
	var buf []uint32
	var encode, insert time.Duration
	err = src.Scan(func(tx []uint32) error {
		t0 := time.Now()
		buf = rec.Encode(tx, buf[:0])
		t1 := time.Now()
		tree.Insert(buf, 1)
		insert += time.Since(t1)
		encode += t1.Sub(t0)
		return nil
	})
	pass2 := tr.end(s)
	if err != nil {
		return err
	}
	r.layer("dataset.scan_s", pass1-count+pass2-encode.Seconds()-insert.Seconds())
	r.layer("dataset.count_s", count)
	r.layer("dataset.encode_s", encode.Seconds())
	r.layer("core.insert_s", insert.Seconds())
	r.layer("core.tree_bytes", float64(tree.Bytes()))
	r.layer("core.tree_bytes_per_node", ratio(tree.Bytes(), tree.NumNodes()))
	r.layer("arena.slack_ratio", ratio(tree.Extent()-tree.Bytes(), tree.Extent()))

	s = tr.start("core.convert", r.root)
	arr := core.Convert(tree)
	r.layer("core.convert_s", tr.end(s))
	r.layer("core.array_bytes", float64(arr.Bytes()))
	r.layer("core.array_bytes_per_node", ratio(arr.DataBytes(), arr.NumNodes()))

	s = tr.start("core.decode", r.root)
	// In a closure, so that the decoding is garbage before the mine.
	decodeBytes := func() int64 {
		var d core.Decode
		d.From(arr)
		return d.Bytes()
	}()
	decode := tr.end(s)
	r.layer("core.decode_s", decode)
	r.layer("core.decode_bytes", float64(decodeBytes))

	// Ranks from least to most frequent, the order Growth mines them.
	ranks := make([]uint32, arr.NumItems())
	for i := range ranks {
		ranks[i] = uint32(len(ranks) - 1 - i)
	}
	counters := obs.New(nil)
	var t tally
	s = tr.start("core.mine", r.root)
	err = core.MineArrayItems(arr, core.Config{}, sp.MinSup, sinkFunc(r.handler(&t)), nil, 0, ranks, nil, counters)
	mine := tr.end(s)
	r.res.Ops = append(r.res.Ops, t.op("mine"))
	if err != nil {
		return fmt.Errorf("mine: %w", err)
	}
	condTrees := counters.Count(obs.CtrCondTrees)
	r.layer("core.mine_s", mine)
	r.layer("core.mine_self_s", mine-decode)
	r.layer("core.cond_trees", float64(condTrees))
	r.layer("core.itemsets_per_cond_tree", ratio(t.n, condTrees))

	if w.parallel {
		pool := cfpgrowth.NewRecorder(nil)
		s = tr.start("cfpgrowth.mine_par2", r.root)
		err := r.mine("mine_par2", sp.FIMI, cfpgrowth.Options{MinSupport: sp.MinSup, Parallel: 2, Observe: pool})
		r.layer("cfpgrowth.mine_par2_s", tr.end(s))
		if err != nil {
			return err
		}
		r.poolLayers(pool)
	}
	r.finish()
	return nil
}

// poolLayers reads the mine pool's accounting from the recorder the
// parallel call was observed with.
func (r *rep) poolLayers(rec *cfpgrowth.Recorder) {
	var busy, idle, maxBusy int64
	_, workers := rec.MinePool()
	for _, w := range workers {
		busy += w.BusyNanos
		idle += w.IdleNanos
		maxBusy = max(maxBusy, w.BusyNanos)
	}
	r.layer("mine.pool_busy_s", float64(busy)/1e9)
	r.layer("mine.pool_idle_s", float64(idle)/1e9)
	r.layer("mine.pool_imbalance", ratio(maxBusy*int64(len(workers)), busy))
}

// index is the index job: load the saved index and answer the first
// query (the lazy item map is built there), answer the remaining
// queries, then re-mine the index at its base support. A traced
// repetition first replays the set-up's build and save under a
// separate root span.
func (r *rep) index(sp *spec) error {
	queries, err := dataset.ReadFile(sp.Queries)
	if err != nil {
		return err
	}
	tr := r.tr
	if tr != nil {
		setup := tr.start("setup", 0)
		s := tr.start("cfpgrowth.build_index", setup)
		ix, err := cfpgrowth.BuildIndex(cfpgrowth.File(sp.FIMI), cfpgrowth.Options{MinSupport: sp.MinSup})
		r.layer("cfpgrowth.build_index_s", tr.end(s))
		if err != nil {
			return fmt.Errorf("build index: %w", err)
		}
		path := filepath.Join(filepath.Dir(sp.Index), "traced.cfpi")
		s = tr.start("core.write", setup)
		err = cfpgrowth.SaveIndex(path, ix)
		r.layer("core.write_s", tr.end(s))
		tr.end(setup)
		if err != nil {
			return fmt.Errorf("save index: %w", err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		r.layer("core.index_bytes", float64(st.Size()))
	}

	r.begin()
	s := tr.start("core.read", r.root)
	ix, err := cfpgrowth.LoadIndex(sp.Index)
	r.layer("core.read_s", tr.end(s))
	if err != nil {
		return fmt.Errorf("load index: %w", err)
	}
	answers := make([]uint64, len(queries))
	s = tr.start("cfpgrowth.query_first", r.root)
	answers[0] = ix.SupportOf(queries[0])
	r.layer("cfpgrowth.query_first_s", tr.end(s))
	r.first = time.Since(r.t0)
	r.res.Ops = append(r.res.Ops, op{Name: "load"})

	s = tr.start("cfpgrowth.query", r.root)
	if tr == nil {
		for i := 1; i < len(queries); i++ {
			answers[i] = ix.SupportOf(queries[i])
		}
	} else {
		lat := make([]float64, 0, len(queries)-1)
		for i := 1; i < len(queries); i++ {
			t0 := time.Now()
			answers[i] = ix.SupportOf(queries[i])
			lat = append(lat, float64(time.Since(t0))/1e3)
		}
		r.queryLayers(lat)
	}
	tr.end(s)
	r.res.Answers = answers

	var t tally
	s = tr.start("core.mine", r.root)
	err = ix.Mine(sp.MinSup, r.handler(&t))
	mine := tr.end(s)
	r.res.Ops = append(r.res.Ops, t.op("remine"))
	if err != nil {
		return fmt.Errorf("remine: %w", err)
	}
	r.layer("core.mine_s", mine)
	r.layer("core.mine_self_s", mine)
	r.layer("core.array_bytes", float64(ix.Bytes()))
	r.res.ModelBytes = ix.Bytes()
	r.finish()
	return nil
}

// queryLayers reduces the per-query latencies (µs) of one repetition.
func (r *rep) queryLayers(lat []float64) {
	s := sortedCopy(lat)
	r.layer("cfpgrowth.query_p50_us", percentile(s, 5000))
	r.layer("cfpgrowth.query_p99_us", percentile(s, 9900))
	if p, ok := tailPercentile(len(s)); ok {
		r.layer("cfpgrowth.query_tail_us", percentile(s, p))
	}
}

// stream is the stream job: the file is added transaction by
// transaction in streamBatches equal batches, and the index is mined
// after each batch at the workload's support of what it holds so far.
func (r *rep) stream(w *workload, sp *spec) error {
	tr := r.tr
	r.begin()
	u := cfpgrowth.NewUpdatableIndex(cfpgrowth.TreeConfig{})
	k := 1
	var add time.Duration
	var refresh float64
	batch := tr.start("cfpgrowth.stream_batch", r.root)
	err := cfpgrowth.File(sp.FIMI).Scan(func(tx []uint32) error {
		if tr == nil {
			u.Add(tx)
		} else {
			t0 := time.Now()
			u.Add(tx)
			add += time.Since(t0)
		}
		if int(u.NumTx()) < batchEnd(k, sp.NumTx) {
			return nil
		}
		tr.end(batch)
		var t tally
		s := tr.start("cfpgrowth.stream_refresh", r.root)
		err := u.Mine(dataset.AbsoluteSupport(w.relSup, u.NumTx()), r.handler(&t))
		refresh += tr.end(s)
		r.res.Ops = append(r.res.Ops, t.op("refresh"))
		if k++; k <= streamBatches {
			batch = tr.start("cfpgrowth.stream_batch", r.root)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.res.ModelBytes = u.TreeBytes()
	r.layer("cfpgrowth.stream_add_s", add.Seconds())
	r.layer("cfpgrowth.stream_refresh_s", refresh)
	r.layer("cfpgrowth.stream_tree_bytes", float64(u.TreeBytes()))
	r.layer("cfpgrowth.ingest_tx_per_s", ratio(u.NumTx(), add.Seconds()))
	r.finish()
	return nil
}

// timedSource wraps a Source and accumulates the time its consumer's
// callback takes: a pass's wall time minus that is its parse time.
type timedSource struct {
	dataset.Source
	busy time.Duration
}

func (s *timedSource) Scan(fn func(tx []uint32) error) error {
	return s.Source.Scan(func(tx []uint32) error {
		t0 := time.Now()
		err := fn(tx)
		s.busy += time.Since(t0)
		return err
	})
}

// sinkFunc adapts a Handler to the miners' Sink.
type sinkFunc cfpgrowth.Handler

func (f sinkFunc) Emit(items []uint32, support uint64) error { return f(items, support) }

type number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// ratio returns a/b, or 0 when b is 0.
func ratio[A, B number](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
