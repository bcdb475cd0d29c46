package pfp

import (
	"math/rand"
	"os"
	"testing"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
	"cfpgrowth/internal/quest"
)

func TestPFPMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 8; trial++ {
		db := make(dataset.Slice, 30+rng.Intn(80))
		nItems := 5 + rng.Intn(15)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(nItems))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(nItems))
			}
			db[i] = tx
		}
		for _, groups := range []int{1, 3, 8} {
			for _, workers := range []int{1, 3} {
				for _, minSup := range []uint64{1, 3} {
					want, err := mine.Run(core.Growth{}, db, minSup)
					if err != nil {
						t.Fatal(err)
					}
					got, err := mine.Run(Miner{Groups: groups, Workers: workers, TempDir: t.TempDir()}, db, minSup)
					if err != nil {
						t.Fatal(err)
					}
					if d := mine.Diff("pfp", got, "serial", want); d != "" {
						t.Fatalf("trial %d groups %d workers %d minSup %d:\n%s",
							trial, groups, workers, minSup, d)
					}
				}
			}
		}
	}
}

func TestPFPEmptyAndDegenerate(t *testing.T) {
	var sink mine.CountSink
	if err := (Miner{TempDir: t.TempDir()}).Mine(dataset.Slice{}, 1, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Error("emitted from empty database")
	}
	got, err := mine.Run(Miner{Groups: 4, TempDir: t.TempDir()}, dataset.Slice{{9}, {9}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Support != 2 {
		t.Errorf("got %v", got)
	}
}

func TestPFPMoreGroupsThanItems(t *testing.T) {
	db := dataset.Slice{{1, 2}, {1, 2}, {2}}
	got, err := mine.Run(Miner{Groups: 64, TempDir: t.TempDir()}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(core.Growth{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("pfp", got, "serial", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestPFPShardsCleanedUp(t *testing.T) {
	dir := t.TempDir()
	db := dataset.Slice{{1, 2, 3}, {2, 3}, {1, 3}}
	if err := (Miner{Groups: 2, TempDir: dir}).Mine(db, 1, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	entries, err := readDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("shard spill not cleaned up: %v", entries)
	}
}

func TestPFPMemoryBelowSerialPeak(t *testing.T) {
	// With many groups, each shard tree is a fraction of the full
	// tree; the peak (workers=1) must be below the serial build peak.
	rng := rand.New(rand.NewSource(4))
	db := make(dataset.Slice, 400)
	for i := range db {
		tx := make([]uint32, 4+rng.Intn(12))
		for j := range tx {
			tx[j] = uint32(rng.Intn(64))
		}
		db[i] = tx
	}
	var serial, sharded mine.Control
	if err := (core.Growth{Ctl: &serial}).Mine(db, 8, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if err := (Miner{Groups: 16, Workers: 1, Ctl: &sharded, TempDir: t.TempDir()}).Mine(db, 8, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if sharded.PeakBytes() >= serial.PeakBytes() {
		t.Errorf("sharded peak %d not below serial peak %d", sharded.PeakBytes(), serial.PeakBytes())
	}
	t.Logf("serial peak %d B, 16-shard peak %d B", serial.PeakBytes(), sharded.PeakBytes())
}

func readDirNames(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}

// TestPFPPeakMatchesControl: the recorder reads the control's budget
// ledger, which every worker charges, so both report the same peak,
// serially and with a worker pool, and nothing stays charged.
func TestPFPPeakMatchesControl(t *testing.T) {
	db := quest.Generate(quest.Quest1(8000))
	minSup := dataset.AbsoluteSupport(0.01, uint64(len(db)))
	for _, workers := range []int{1, 2} {
		rec := obs.New(nil)
		ctl := &mine.Control{}
		m := Miner{Workers: workers, TempDir: t.TempDir(), Ctl: ctl, Rec: rec}
		if err := m.Mine(db, minSup, &mine.CountSink{}); err != nil {
			t.Fatal(err)
		}
		if ctl.PeakBytes() == 0 {
			t.Fatalf("workers %d: control saw no allocations", workers)
		}
		if rec.PeakBytes() != ctl.PeakBytes() {
			t.Errorf("workers %d: recorder peak %d, control peak %d; want one number",
				workers, rec.PeakBytes(), ctl.PeakBytes())
		}
		if rec.CurBytes() != 0 || ctl.Bytes() != 0 {
			t.Errorf("workers %d: %d / %d bytes still charged after the run", workers, rec.CurBytes(), ctl.Bytes())
		}
	}
}
