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
// Every later charge lands in the span of the phase that owns it.
func TestBuildPhaseBytes(t *testing.T) {
	db := obsDB(400, 8, 30)
	const minSup = 10
	counts, err := dataset.CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	tree, numTx, err := Build(db, minSup, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if numTx != uint64(len(db)) {
		t.Errorf("Build counted %d transactions, want %d", numTx, len(db))
	}
	arr, err := ConvertCtl(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, miner := range []func(rec *obs.Recorder) mine.Miner{
		func(rec *obs.Recorder) mine.Miner { return Growth{Rec: rec, Ctl: &mine.Control{}} },
		func(rec *obs.Recorder) mine.Miner { return Growth{Workers: 2, Rec: rec, Ctl: &mine.Control{}} },
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
		// The charges sit inside the spans of the phases that own them:
		// convert retires the tree and materializes the CFP-array, and
		// mine frees the array (its conditionals net to zero).
		if got, want := phases[obs.PhaseConvert].Bytes, arr.Bytes()-tree.Extent(); got != want {
			t.Errorf("%s: convert bytes_delta = %d, want array %d - tree %d", m.Name(), got, arr.Bytes(), tree.Extent())
		}
		if got := phases[obs.PhaseMine].Bytes; got != -arr.Bytes() {
			t.Errorf("%s: mine bytes_delta = %d, want %d (frees the CFP-array)", m.Name(), got, -arr.Bytes())
		}
		// Every charge is balanced by a free, but one free lands between
		// spans: the count table is released in the recoder-setup glue
		// after pass1 ends. So the phase deltas sum to exactly the pass1
		// charge; anything else means a charge has drifted out of its
		// span.
		var sum int64
		for _, p := range phases {
			sum += p.Bytes
		}
		if want := phases[obs.PhasePass1].Bytes; sum != want {
			t.Errorf("%s: phase bytes_delta sum = %d, want the pass1 charge %d", m.Name(), sum, want)
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
	tree, numTx, err := Build(src, 2, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumItems() != 0 || tree.NumNodes() != 0 || numTx != 3 {
		t.Errorf("tree has %d items, %d nodes over %d transactions; want 0, 0, 3", tree.NumItems(), tree.NumNodes(), numTx)
	}
	if scans != 1 {
		t.Errorf("%d scans, want only the counting pass", scans)
	}
	for _, miner := range []func(ctl *mine.Control) mine.Miner{
		func(ctl *mine.Control) mine.Miner { return Growth{Ctl: ctl} },
		func(ctl *mine.Control) mine.Miner { return Growth{Workers: 2, Ctl: ctl} },
		func(ctl *mine.Control) mine.Miner { return DirectGrowth{Ctl: ctl} },
	} {
		ctl := &mine.Control{}
		m := miner(ctl)
		var sink mine.CountSink
		if err := m.Mine(db, 2, &sink); err != nil || sink.N != 0 {
			t.Errorf("%s: %d itemsets, err %v; want none", m.Name(), sink.N, err)
		}
		if ctl.Bytes() != 0 {
			t.Errorf("%s: %d bytes still charged after the run", m.Name(), ctl.Bytes())
		}
	}
}

// TestBuildProbesBudget: the build stage probes the growing tree
// against the byte budget, so a build that outgrows MaxBytes stops
// during the scan even when nothing has been charged yet. Pass 2 runs
// alone, so that no charge of pass 1 can trip the budget first, and
// the tree's one-shot charge at the end would stop the Control without
// failing the scan.
func TestBuildProbesBudget(t *testing.T) {
	db := obsDB(4096, 8, 30)
	counts, err := dataset.CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &mine.Control{MaxBytes: 64}
	_, err = BuildRecoded(db, dataset.NewRecoder(counts, 2), Config{}, ctl, nil)
	if !errors.Is(err, mine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if ctl.Bytes() != 0 {
		t.Errorf("%d bytes charged by a build stopped in its scan", ctl.Bytes())
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
