package tiny

import (
	"math/rand"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

func TestMinerEndToEnd(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}}
	got, err := mine.Run(Miner{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(mine.BruteForce{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("tiny", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestOccurrenceMerging(t *testing.T) {
	// Two occurrences of the deep item share an ancestor: the merged
	// occurrence list must sum their weights, not duplicate the node —
	// otherwise supports double-count.
	db := dataset.Slice{
		{1, 2, 3}, // path 1-2-3
		{1, 2, 4}, // path 1-2-4 shares ancestor 2
		{1, 2, 3},
		{1, 2, 4},
	}
	got, err := mine.Run(Miner{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if len(s.Items) == 2 && s.Items[0] == 1 && s.Items[1] == 2 {
			if s.Support != 4 {
				t.Errorf("support{1,2} = %d, want 4", s.Support)
			}
		}
	}
	want, err := mine.Run(mine.BruteForce{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("tiny", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestTreeresidentWholeRun(t *testing.T) {
	// FP-growth-Tiny keeps the full 40 B/node tree alive for the whole
	// run — the paper's reason it breaks on large data.
	db := dataset.Slice{{1, 2, 3}, {1, 2, 3}}
	var tr mine.Control
	if err := (Miner{Ctl: &tr}).Mine(db, 2, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if tr.PeakBytes() < 3*fptree.BaselineNodeSize {
		t.Errorf("peak %d below the big tree's size", tr.PeakBytes())
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		db := make(dataset.Slice, 25)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(6))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(8))
			}
			db[i] = tx
		}
		got, err := mine.Run(Miner{}, db, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mine.Run(mine.BruteForce{}, db, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := mine.Diff("tiny", got, "bruteforce", want); d != "" {
			t.Fatalf("trial %d:\n%s", trial, d)
		}
	}
}
