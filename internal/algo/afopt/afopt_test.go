package afopt

import (
	"testing"

	"cfpgrowth/internal/dataset"
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
	if d := mine.Diff("afopt", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestAscendingOrderGrowsTree(t *testing.T) {
	// Ascending frequency order places rare items near the root, so
	// shared prefixes are rarer and the AFOPT tree is at least as big
	// as the descending-order FP-tree: on this skewed input strictly
	// bigger memory at equal node size would hold, but node sizes
	// differ (20 vs 40 B), so we check the node-count relation through
	// tracked peaks.
	db := dataset.Slice{
		{1, 2, 3, 4}, {1, 2, 3}, {1, 2}, {1}, {1, 2, 3, 4}, {1, 2, 3}, {1, 2}, {1},
	}
	var tr mine.Control
	if err := (Miner{Ctl: &tr}).Mine(db, 2, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	// Descending order shares everything: 4 nodes. Ascending order
	// cannot share the rare-item prefixes: more nodes. At 20 B/node
	// the peak must exceed 4 nodes' worth.
	if tr.PeakBytes() <= 4*NodeBytes {
		t.Errorf("peak %d suggests descending-order sharing; ascending expected", tr.PeakBytes())
	}
}

func TestSingletonUniverse(t *testing.T) {
	db := dataset.Slice{{5}, {5}, {5}}
	got, err := mine.Run(Miner{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Support != 3 || got[0].Items[0] != 5 {
		t.Errorf("got %v", got)
	}
}
