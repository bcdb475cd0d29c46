package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call: a real interval on the repetition's clock,
// recorded by the benchmark around a call into one layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one repetition's spans in memory. Repetitions are
// single-threaded sequences of calls, so it needs no locking. A nil
// tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return float64(s.End-s.Start) / 1e9
}

// traceFile is the layout of out/trace_<workload>.json: the spans of
// every traced repetition of one run.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Reps     [][]span `json:"reps"`
}

func writeTrace(dir string, tf traceFile) error {
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+tf.Workload+".json"), data, 0o644)
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a run reports without tracing. Every
// workload reports all of them; what a job is differs per workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"first_answer_s", "s"},
	{"peak_rss_bytes", "bytes"},
	{"peak_model_bytes", "bytes"},
}

// perLayer lists the metrics a traced run reports, by layer. A workload
// whose job does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"dataset.scan_s", "s"},
	{"dataset.count_s", "s"},
	{"dataset.recode_s", "s"},
	{"dataset.encode_s", "s"},
	{"core.insert_s", "s"},
	{"core.tree_bytes", "bytes"},
	{"core.tree_bytes_per_node", "bytes"},
	{"arena.slack_ratio", "ratio"},
	{"core.convert_s", "s"},
	{"core.array_bytes", "bytes"},
	{"core.array_bytes_per_node", "bytes"},
	{"core.decode_s", "s"},
	{"core.decode_bytes", "bytes"},
	{"core.mine_s", "s"},
	{"core.mine_self_s", "s"},
	{"core.cond_trees", "count"},
	{"core.itemsets_per_cond_tree", "ratio"},
	{"mine.pool_busy_s", "s"},
	{"mine.pool_idle_s", "s"},
	{"mine.pool_imbalance", "ratio"},
	{"core.write_s", "s"},
	{"core.read_s", "s"},
	{"core.index_bytes", "bytes"},
	{"cfpgrowth.mine_par2_s", "s"},
	{"cfpgrowth.build_index_s", "s"},
	{"cfpgrowth.query_first_s", "s"},
	{"cfpgrowth.query_p50_us", "us"},
	{"cfpgrowth.query_p99_us", "us"},
	{"cfpgrowth.query_tail_us", "us"},
	{"cfpgrowth.stream_add_s", "s"},
	{"cfpgrowth.stream_refresh_s", "s"},
	{"cfpgrowth.stream_tree_bytes", "bytes"},
	{"cfpgrowth.ingest_tx_per_s", "1/s"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"bench.handler_s", "s"},
	{"bench.traced_wall_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
}
