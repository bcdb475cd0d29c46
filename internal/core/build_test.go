package core

import (
	"errors"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// TestBuildPhaseBytes: the serial and parallel miners share one build
// stage, so their pass1 and pass2-build spans carry the same byte
// deltas: the count table's modeled size and the initial tree's extent.
func TestBuildPhaseBytes(t *testing.T) {
	db := obsDB(400, 8, 30)
	const minSup = 10
	counts, err := dataset.CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	tree, numTx, err := Build(db, minSup, Config{}, nil, mine.NullTracker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if numTx != uint64(len(db)) {
		t.Errorf("Build counted %d transactions, want %d", numTx, len(db))
	}
	for _, miner := range []func(rec *obs.Recorder) mine.Miner{
		func(rec *obs.Recorder) mine.Miner { return Growth{Rec: rec} },
		func(rec *obs.Recorder) mine.Miner { return Growth{Workers: 2, Rec: rec} },
	} {
		rec := obs.New(nil)
		m := miner(rec)
		var sink mine.CountSink
		if err := m.Mine(db, minSup, &sink); err != nil {
			t.Fatal(err)
		}
		phases := rec.Phases()
		if got := phases[obs.PhasePass1].Bytes; got != counts.ModelBytes() {
			t.Errorf("%s: pass1 bytes_delta = %d, want count table %d", m.Name(), got, counts.ModelBytes())
		}
		if got := phases[obs.PhaseBuild].Bytes; got != tree.Extent() {
			t.Errorf("%s: pass2-build bytes_delta = %d, want tree extent %d", m.Name(), got, tree.Extent())
		}
		if rec.CurBytes() != 0 {
			t.Errorf("%s: %d bytes still charged after the run", m.Name(), rec.CurBytes())
		}
	}
}

// TestBuildNothingFrequent: with no frequent item the stage returns an
// empty tree without a second scan, and the miners emit nothing and
// release every byte they charged.
func TestBuildNothingFrequent(t *testing.T) {
	db := dataset.Slice{{1, 2}, {3}, {4, 5}}
	var scans int
	src := countingSource{db: db, scans: &scans}
	tree, numTx, err := Build(src, 2, Config{}, nil, mine.NullTracker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumItems() != 0 || tree.NumNodes() != 0 || numTx != 3 {
		t.Errorf("tree has %d items, %d nodes over %d transactions; want 0, 0, 3", tree.NumItems(), tree.NumNodes(), numTx)
	}
	if scans != 1 {
		t.Errorf("%d scans, want only the counting pass", scans)
	}
	for _, miner := range []func(rec *obs.Recorder) mine.Miner{
		func(rec *obs.Recorder) mine.Miner { return Growth{Rec: rec} },
		func(rec *obs.Recorder) mine.Miner { return Growth{Workers: 2, Rec: rec} },
		func(rec *obs.Recorder) mine.Miner { return DirectGrowth{Track: rec} },
	} {
		rec := obs.New(nil)
		m := miner(rec)
		var sink mine.CountSink
		if err := m.Mine(db, 2, &sink); err != nil || sink.N != 0 {
			t.Errorf("%s: %d itemsets, err %v; want none", m.Name(), sink.N, err)
		}
		if rec.CurBytes() != 0 {
			t.Errorf("%s: %d bytes still charged after the run", m.Name(), rec.CurBytes())
		}
	}
}

// TestBuildProbesBudget: the build stage probes the growing tree
// against the byte budget, so a build that outgrows MaxBytes stops
// during the scan even when nothing has been charged yet.
func TestBuildProbesBudget(t *testing.T) {
	db := obsDB(4096, 8, 30)
	ctl := &mine.Control{MaxBytes: 64}
	_, _, err := Build(db, 2, Config{}, ctl, mine.NullTracker{}, nil)
	if !errors.Is(err, mine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// countingSource counts how often db is scanned.
type countingSource struct {
	db    dataset.Slice
	scans *int
}

func (s countingSource) Scan(fn func(tx []dataset.Item) error) error {
	*s.scans++
	return s.db.Scan(fn)
}
