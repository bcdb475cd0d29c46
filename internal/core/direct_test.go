package core

import (
	"math/rand"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

func TestDirectGrowthMatchesGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		db := make(dataset.Slice, 20+rng.Intn(60))
		nItems := 4 + rng.Intn(10)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(nItems))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(nItems))
			}
			db[i] = tx
		}
		for _, minSup := range []uint64{1, 2, 4} {
			want, err := mine.Run(Growth{}, db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mine.Run(DirectGrowth{}, db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if d := mine.Diff("direct", got, "array", want); d != "" {
				t.Fatalf("trial %d minSup %d:\n%s", trial, minSup, d)
			}
		}
	}
}

func TestDirectGrowthDegenerate(t *testing.T) {
	var sink mine.CountSink
	if err := (DirectGrowth{}).Mine(dataset.Slice{}, 1, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Error("emitted from empty database")
	}
	got, err := mine.Run(DirectGrowth{}, dataset.Slice{{5, 7, 9}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Errorf("single-path shortcut broken: %d itemsets", len(got))
	}
}

// TestDirectGrowthChargesTreeOnce: the walk mines the tree Build
// charged without charging it again, so on a single path, which has
// no conditional trees, the run's peak is the build's.
func TestDirectGrowthChargesTreeOnce(t *testing.T) {
	db := dataset.Slice{{5, 7, 9}, {5, 7, 9}, {5, 7}}
	var build, direct mine.Control
	if _, _, err := Build(db, 1, Config{}, &build, nil); err != nil {
		t.Fatal(err)
	}
	if err := (DirectGrowth{Ctl: &direct}).Mine(db, 1, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if direct.PeakBytes() != build.PeakBytes() || direct.Bytes() != 0 {
		t.Errorf("direct peak %d, left %d; want the build's peak %d, 0", direct.PeakBytes(), direct.Bytes(), build.PeakBytes())
	}
}

func TestDirectGrowthMemoryExceedsArrayGrowth(t *testing.T) {
	// The ablation's point: without conversion, parent trees stay
	// alive through the recursion, so the direct miner's peak is
	// higher than CFP-growth's on branching data.
	rng := rand.New(rand.NewSource(9))
	db := make(dataset.Slice, 300)
	for i := range db {
		tx := make([]uint32, 3+rng.Intn(10))
		for j := range tx {
			tx[j] = uint32(rng.Intn(40))
		}
		db[i] = tx
	}
	var arrTr, dirTr mine.Control
	if err := (Growth{Ctl: &arrTr}).Mine(db, 6, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if err := (DirectGrowth{Ctl: &dirTr}).Mine(db, 6, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if dirTr.PeakBytes() <= arrTr.PeakBytes() {
		t.Logf("note: direct peak %d not above array peak %d on this input", dirTr.PeakBytes(), arrTr.PeakBytes())
	}
}
