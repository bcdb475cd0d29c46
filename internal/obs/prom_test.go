package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"cfpgrowth/internal/mine"
)

// TestWritePrometheus drives a populated recorder through the text
// exporter and checks the exposition-format essentials: HELP/TYPE
// headers, cumulative histogram buckets ending in +Inf with consistent
// _count, and the per-shard/per-worker series.
func TestWritePrometheus(t *testing.T) {
	rec := New(nil)
	rec.Add(CtrItemsets, 7)
	var ctl mine.Control
	defer rec.Bind(&ctl)()
	ctl.Alloc(1000)
	sp := rec.Start(PhaseMine)
	sp.End()
	rec.Histogram(HistCondMine).Record(3 * time.Microsecond)
	rec.Histogram(HistCondMine).Record(5 * time.Millisecond)
	rec.SetMinePool(
		[]ShardStat{{Queue: 4, Jobs: 4, Steals: 1, BusyNanos: 1e6}},
		[]WorkerStat{{Jobs: 4, BusyNanos: 1e6, IdleNanos: 2e6}},
	)
	var buf bytes.Buffer
	rec.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE cfp_cur_bytes gauge",
		"cfp_cur_bytes 1000",
		"cfp_itemsets_total 7",
		`cfp_phase_spans_total{phase="mine"} 1`,
		"# TYPE cfp_cond_mine_seconds histogram",
		`cfp_cond_mine_seconds_bucket{le="+Inf"} 2`,
		"cfp_cond_mine_seconds_count 2",
		`cfp_shard_jobs_total{shard="0"} 4`,
		`cfp_shard_steals_total{shard="0"} 1`,
		`cfp_worker_busy_seconds_total{worker="0"} 0.001`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Cumulative buckets: counts must be nondecreasing in le order.
	last := -1.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "cfp_cond_mine_seconds_bucket") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %g", line, last)
		}
		last = v
	}
	// A nil recorder must export nothing and not panic.
	var nilRec *Recorder
	var empty bytes.Buffer
	nilRec.WritePrometheus(&empty)
	if empty.Len() != 0 {
		t.Errorf("nil recorder exported %d bytes", empty.Len())
	}
}

// TestSampler runs the runtime sampler at a tight interval and checks
// that samples land in the gauges, the snapshot, and an attached sink,
// and that Stop takes a final sample and joins.
func TestSampler(t *testing.T) {
	sink := &CollectSink{}
	rec := New(sink)
	s := rec.StartSampler(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	rt := rec.Runtime()
	if rt.Samples < 1 {
		t.Fatalf("samples = %d, want >= 1", rt.Samples)
	}
	if rt.HeapBytes <= 0 || rt.Goroutines <= 0 {
		t.Errorf("runtime gauges empty: %+v", rt)
	}
	snap := rec.Snapshot()
	if snap.Runtime == nil || snap.Runtime.Samples != rt.Samples {
		t.Errorf("snapshot runtime = %+v, want %d samples", snap.Runtime, rt.Samples)
	}
	var sampleEvents int
	for _, e := range sink.All() {
		if e.Ev == "sample" {
			sampleEvents++
			if e.HeapBytes == 0 || e.Goroutines == 0 {
				t.Errorf("sample event missing runtime fields: %+v", e)
			}
		}
	}
	if int64(sampleEvents) != rt.Samples {
		t.Errorf("sink saw %d sample events, gauges counted %d", sampleEvents, rt.Samples)
	}
	// Nil paths: nil recorder returns a nil sampler whose Stop is a
	// no-op; an unsampled recorder's snapshot omits the runtime block.
	var nilRec *Recorder
	nilRec.StartSampler(time.Second).Stop()
	if snap := New(nil).Snapshot(); snap.Runtime != nil {
		t.Error("unsampled snapshot carries a runtime block")
	}
}
