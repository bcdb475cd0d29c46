package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// obsDB generates a deterministic database dense enough to exercise
// conditional trees, chains, and embedded leaves.
func obsDB(tx, maxLen, items int) dataset.Slice {
	rng := rand.New(rand.NewSource(7))
	db := make(dataset.Slice, tx)
	for i := range db {
		n := 1 + rng.Intn(maxLen)
		t := make([]uint32, n)
		for j := range t {
			t[j] = uint32(rng.Intn(items))
		}
		db[i] = t
	}
	return db
}

// TestObsItemsetCounterMatchesSink: the itemsets counter must equal
// the number of emissions the sink accepted, in serial and parallel
// runs, and the snapshot must carry it; the phase spans nest inside
// the run's wall time.
func TestObsItemsetCounterMatchesSink(t *testing.T) {
	db := obsDB(300, 8, 30)
	for _, tc := range []struct {
		name  string
		miner func(rec *obs.Recorder) mine.Miner
	}{
		{"serial", func(rec *obs.Recorder) mine.Miner { return Growth{Rec: rec} }},
		{"parallel", func(rec *obs.Recorder) mine.Miner { return Growth{Workers: 4, Rec: rec} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New(nil)
			var sink mine.CountSink
			start := time.Now()
			if err := tc.miner(rec).Mine(db, 10, &sink); err != nil {
				t.Fatal(err)
			}
			wall := time.Since(start)
			if sink.N == 0 {
				t.Fatal("degenerate run: no itemsets")
			}
			if got := rec.Count(obs.CtrItemsets); got != int64(sink.N) {
				t.Errorf("itemsets counter = %d, sink saw %d", got, sink.N)
			}
			if got := rec.Snapshot().Counters["itemsets"]; got != int64(sink.N) {
				t.Errorf("snapshot itemsets = %d, sink saw %d", got, sink.N)
			}
			if rec.Count(obs.CtrLogicalNodes) == 0 {
				t.Error("no logical nodes counted")
			}
			if rec.Count(obs.CtrCondTrees) == 0 {
				t.Error("no conditional trees counted")
			}
			if rec.MaxDepth() == 0 {
				t.Error("no recursion depth observed")
			}
			phases := rec.Phases()
			for _, want := range []string{obs.PhasePass1, obs.PhaseBuild, obs.PhaseMine} {
				if _, ok := phases[want]; !ok {
					t.Errorf("phase %q missing from %v", want, phases)
				}
			}
			var spans time.Duration
			for _, p := range phases {
				spans += time.Duration(p.Nanos)
			}
			if spans > wall {
				t.Errorf("phase spans sum to %v, more than the run's wall time %v", spans, wall)
			}
		})
	}
}

var errSinkFull = errors.New("sink full")

// failAfterSink accepts limit emissions, then fails every Emit.
type failAfterSink struct {
	n     atomic.Int64
	limit int64
}

func (s *failAfterSink) Emit(items []uint32, support uint64) error {
	if s.n.Add(1) > s.limit {
		s.n.Add(-1)
		return errSinkFull
	}
	return nil
}

// TestObsItemsetCounterUnderCancellation: when a mid-run sink failure
// stops the run, the counter must still equal exactly the emissions
// the sink accepted — not the attempts — because the miners count
// after successful delivery.
func TestObsItemsetCounterUnderCancellation(t *testing.T) {
	db := obsDB(300, 8, 30)
	for _, tc := range []struct {
		name  string
		miner func(rec *obs.Recorder, ctl *mine.Control) mine.Miner
	}{
		{"serial", func(rec *obs.Recorder, ctl *mine.Control) mine.Miner {
			return Growth{Rec: rec, Ctl: ctl}
		}},
		{"parallel", func(rec *obs.Recorder, ctl *mine.Control) mine.Miner {
			return Growth{Workers: 4, Rec: rec, Ctl: ctl}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New(nil)
			ctl := &mine.Control{}
			inner := &failAfterSink{limit: 10}
			sink := &mine.ControlSink{Inner: inner, Ctl: ctl}
			err := tc.miner(rec, ctl).Mine(db, 5, sink)
			if !errors.Is(err, errSinkFull) {
				t.Fatalf("err = %v, want errSinkFull", err)
			}
			if got, accepted := rec.Count(obs.CtrItemsets), inner.n.Load(); got != accepted {
				t.Errorf("itemsets counter = %d, sink accepted %d", got, accepted)
			}
		})
	}
}

// TestObsTopKSinkCounter: filtering sinks (mine/filter.go) accept
// every emission even when they later discard it, so the counter
// tracks total emissions, not the filtered survivor set.
func TestObsTopKSinkCounter(t *testing.T) {
	db := obsDB(300, 8, 30)
	rec := obs.New(nil)
	sink := &mine.TopKSink{K: 5, MinLen: 2}
	if err := (Growth{Rec: rec}).Mine(db, 10, sink); err != nil {
		t.Fatal(err)
	}
	var plain mine.CountSink
	if err := (Growth{}).Mine(db, 10, &plain); err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(obs.CtrItemsets); got != int64(plain.N) {
		t.Errorf("itemsets counter = %d, want %d (all emissions, pre-filter)", got, plain.N)
	}
	if res := sink.Result(); len(res) > 5 {
		t.Errorf("top-k kept %d itemsets, want <= 5", len(res))
	}
}

// TestObsPeakMatchesControl: teeing the control's budget ledger and
// the recorder from the same tracker stream must give identical
// high-water marks, so a run's reported peak is the one its budget
// enforces.
func TestObsPeakMatchesControl(t *testing.T) {
	db := obsDB(300, 8, 30)
	for _, tc := range []struct {
		name  string
		miner func(rec *obs.Recorder, ctl *mine.Control, track mine.MemTracker) mine.Miner
	}{
		{"serial", func(rec *obs.Recorder, ctl *mine.Control, track mine.MemTracker) mine.Miner {
			return Growth{Rec: rec, Ctl: ctl, Track: track}
		}},
		{"parallel", func(rec *obs.Recorder, ctl *mine.Control, track mine.MemTracker) mine.Miner {
			return Growth{Workers: 4, Rec: rec, Ctl: ctl, Track: track}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New(nil)
			ctl := &mine.Control{}
			track := &mine.BudgetTracker{Ctl: ctl}
			var sink mine.CountSink
			if err := tc.miner(rec, ctl, track).Mine(db, 10, &sink); err != nil {
				t.Fatal(err)
			}
			if ctl.PeakBytes() == 0 {
				t.Fatal("control saw no allocations")
			}
			if rec.PeakBytes() != ctl.PeakBytes() {
				t.Errorf("recorder peak %d != control peak %d", rec.PeakBytes(), ctl.PeakBytes())
			}
		})
	}
}

// TestObsTreeCounters: chain splits and extends are recorded by an
// observed tree as insertions reshape chains.
func TestObsTreeCounters(t *testing.T) {
	db := obsDB(500, 10, 40)
	rec := obs.New(nil)
	var sink mine.CountSink
	if err := (Growth{Rec: rec}).Mine(db, 5, &sink); err != nil {
		t.Fatal(err)
	}
	if rec.Count(obs.CtrChainSplits) == 0 {
		t.Error("no chain splits counted (dataset should force divergence)")
	}
	std := rec.Count(obs.CtrStdNodes)
	chains := rec.Count(obs.CtrChainNodes)
	embedded := rec.Count(obs.CtrEmbeddedLeaves)
	if std == 0 || chains == 0 || embedded == 0 {
		t.Errorf("node-kind counters = std %d, chains %d, embedded %d; want all > 0", std, chains, embedded)
	}
	if rec.Count(obs.CtrTriples) == 0 {
		t.Error("no CFP-array triples counted")
	}
}

// TestObsSerialParallelAgree: both miners must count the same number
// of emitted itemsets for the same input.
func TestObsSerialParallelAgree(t *testing.T) {
	db := obsDB(300, 8, 30)
	recS, recP := obs.New(nil), obs.New(nil)
	var s1, s2 mine.CountSink
	if err := (Growth{Rec: recS}).Mine(db, 10, &s1); err != nil {
		t.Fatal(err)
	}
	if err := (Growth{Workers: 4, Rec: recP}).Mine(db, 10, &s2); err != nil {
		t.Fatal(err)
	}
	if recS.Count(obs.CtrItemsets) != recP.Count(obs.CtrItemsets) {
		t.Errorf("serial counted %d itemsets, parallel %d",
			recS.Count(obs.CtrItemsets), recP.Count(obs.CtrItemsets))
	}
}

// TestObsMineHistograms: both miners must populate the per-query and
// per-conditional-mine latency histograms, and in the sharded miner the
// per-shard samples must merge losslessly into the parent recorder
// (the bucket-wise merge is exact, so serial and parallel sample
// counts agree on the same input).
func TestObsMineHistograms(t *testing.T) {
	db := obsDB(300, 8, 30)
	recS, recP := obs.New(nil), obs.New(nil)
	var s1, s2 mine.CountSink
	if err := (Growth{Rec: recS}).Mine(db, 10, &s1); err != nil {
		t.Fatal(err)
	}
	if err := (Growth{Workers: 4, Rec: recP}).Mine(db, 10, &s2); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*obs.Recorder{"serial": recS, "parallel": recP} {
		if got := rec.Histogram(obs.HistQuery).Count(); got != 1 {
			t.Errorf("%s: query samples = %d, want 1", name, got)
		}
		if got := rec.Histogram(obs.HistCondMine).Count(); got <= 0 {
			t.Errorf("%s: no conditional-mine samples", name)
		}
	}
	cs, cp := recS.Histogram(obs.HistCondMine).Count(), recP.Histogram(obs.HistCondMine).Count()
	if cs != cp {
		t.Errorf("conditional-mine samples diverge: serial %d, parallel %d", cs, cp)
	}
}

// TestObsMinePoolStats: the sharded miner must attach per-shard and
// per-worker pool accounting, one shard per worker, whose job total
// covers every top-level item exactly once and whose busy time is
// recorded.
func TestObsMinePoolStats(t *testing.T) {
	db := obsDB(300, 8, 30)
	rec := obs.New(nil)
	var sink mine.CountSink
	if err := (Growth{Workers: 4, Rec: rec}).Mine(db, 10, &sink); err != nil {
		t.Fatal(err)
	}
	shards, workers := rec.MinePool()
	if len(shards) != 4 || len(workers) != 4 {
		t.Fatalf("pool shape = %d shards / %d workers, want 4/4", len(shards), len(workers))
	}
	var shardJobs, queued, workerJobs, busy int64
	for _, s := range shards {
		shardJobs += s.Jobs
		queued += s.Queue
		busy += s.BusyNanos
	}
	for _, w := range workers {
		workerJobs += w.Jobs
	}
	if shardJobs == 0 || shardJobs != queued || shardJobs != workerJobs {
		t.Errorf("jobs: %d executed, %d queued, %d by workers — all must agree and be nonzero",
			shardJobs, queued, workerJobs)
	}
	if busy <= 0 {
		t.Errorf("pool busy time = %d ns, want > 0", busy)
	}
	// The serial miner attaches no pool.
	recS := obs.New(nil)
	var s2 mine.CountSink
	if err := (Growth{Rec: recS}).Mine(db, 10, &s2); err != nil {
		t.Fatal(err)
	}
	if s, w := recS.MinePool(); len(s) != 0 || len(w) != 0 {
		t.Errorf("serial miner attached a pool: %d/%d", len(s), len(w))
	}
}

// TestObsParallelTraceChildren: with a trace attached, the sharded
// mine emits one child span per top-level item under the mine phase
// span, and the Chrome export round-trips.
func TestObsParallelTraceChildren(t *testing.T) {
	db := obsDB(300, 8, 30)
	rec := obs.New(nil)
	tr := obs.NewTrace(4, 1<<12)
	rec.AttachTrace(tr)
	var sink mine.CountSink
	if err := (Growth{Workers: 4, Rec: rec}).Mine(db, 10, &sink); err != nil {
		t.Fatal(err)
	}
	evs, dropped := tr.Events()
	if dropped != 0 {
		t.Fatalf("%d trace events dropped with an oversized ring", dropped)
	}
	var mineID uint64
	items := 0
	for _, ev := range evs {
		if ev.Name == obs.PhaseMine {
			mineID = ev.ID
		}
	}
	if mineID == 0 {
		t.Fatal("mine phase span missing from trace")
	}
	for _, ev := range evs {
		if ev.Name != "mine-item" {
			continue
		}
		items++
		if ev.Parent != mineID {
			t.Errorf("mine-item parent = %d, want mine span %d", ev.Parent, mineID)
		}
	}
	shards, _ := rec.MinePool()
	var queued int64
	for _, s := range shards {
		queued += s.Queue
	}
	if int64(items) != queued {
		t.Errorf("trace has %d mine-item children, pool queued %d jobs", items, queued)
	}
	// Phase aggregates must not absorb the children.
	if ps := rec.Snapshot().Phases[obs.PhaseMine]; ps.Count != 1 {
		t.Errorf("mine phase span count = %d, want 1 (children are trace-only)", ps.Count)
	}
}

var errScan = errors.New("scan failed")

// phaseSource is db as a Source whose second scan fails halfway when
// fail is set, and stops stop (nil = never) once the second scan has
// delivered every transaction: the build completes, and the conversion
// after it is the first step to see the stop.
type phaseSource struct {
	db    dataset.Slice
	fail  bool
	stop  *mine.Control
	scans int
}

func (s *phaseSource) Scan(fn func(tx []dataset.Item) error) error {
	if s.scans++; s.scans == 1 {
		return s.db.Scan(fn)
	}
	for i, tx := range s.db {
		if s.fail && i == len(s.db)/2 {
			return errScan
		}
		if err := fn(tx); err != nil {
			return err
		}
	}
	s.stop.Stop(mine.ErrCanceled)
	return nil
}

// cancelSink stops ctl with ErrCanceled on its tenth emission, as a
// Context canceled mid-mine does.
type cancelSink struct {
	ctl *mine.Control
	n   atomic.Int64
}

func (s *cancelSink) Emit([]uint32, uint64) error {
	if s.n.Add(1) == 10 {
		s.ctl.Stop(mine.ErrCanceled)
	}
	return nil
}

// TestPhaseSpansEndOnEveryPath: every phase span a run starts is ended
// exactly once, on the error paths too, so the phase counts of a failed
// run are exactly the phases it entered.
func TestPhaseSpansEndOnEveryPath(t *testing.T) {
	db := obsDB(300, 8, 30)
	built := map[string]int64{obs.PhasePass1: 1, obs.PhaseBuild: 1}
	converted := map[string]int64{obs.PhasePass1: 1, obs.PhaseBuild: 1, obs.PhaseConvert: 1}
	mined := map[string]int64{obs.PhasePass1: 1, obs.PhaseBuild: 1, obs.PhaseConvert: 1, obs.PhaseMine: 1}
	for _, tc := range []struct {
		name      string
		workers   int
		maxBytes  int64
		failScan  bool
		stopBuild bool
		sink      func(ctl *mine.Control) mine.Sink
		want      map[string]int64
		err       error
	}{
		{name: "scan error", failScan: true, want: built, err: errScan},
		{name: "MaxBytes", maxBytes: 1, want: built, err: mine.ErrBudgetExceeded},
		{name: "convert stopped", stopBuild: true, want: converted, err: mine.ErrCanceled},
		{name: "serial sink error", sink: func(*mine.Control) mine.Sink { return &failAfterSink{limit: 10} }, want: mined, err: errSinkFull},
		{name: "pooled sink error", workers: 4, sink: func(*mine.Control) mine.Sink { return &failAfterSink{limit: 10} }, want: mined, err: errSinkFull},
		{name: "serial canceled", sink: func(ctl *mine.Control) mine.Sink { return &cancelSink{ctl: ctl} }, want: mined, err: mine.ErrCanceled},
		{name: "pooled canceled", workers: 4, sink: func(ctl *mine.Control) mine.Sink { return &cancelSink{ctl: ctl} }, want: mined, err: mine.ErrCanceled},
	} {
		rec := obs.New(nil)
		ctl := &mine.Control{MaxBytes: tc.maxBytes}
		src := &phaseSource{db: db, fail: tc.failScan}
		if tc.stopBuild {
			src.stop = ctl
		}
		var sink mine.Sink = &mine.CountSink{}
		if tc.sink != nil {
			sink = tc.sink(ctl)
		}
		g := Growth{Workers: tc.workers, Track: &mine.BudgetTracker{Ctl: ctl}, Ctl: ctl, Rec: rec}
		if err := g.Mine(src, 5, sink); !errors.Is(err, tc.err) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
		phases := rec.Phases()
		for _, name := range []string{obs.PhasePass1, obs.PhaseBuild, obs.PhaseConvert, obs.PhaseMine} {
			if got := phases[name].Count; got != tc.want[name] {
				t.Errorf("%s: %d %s spans, want %d", tc.name, got, name, tc.want[name])
			}
		}
	}
}
