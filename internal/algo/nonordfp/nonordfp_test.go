package nonordfp

import (
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

func TestFlattenClustersByItem(t *testing.T) {
	tree := fptree.New([]uint32{10, 20, 30}, []uint64{0, 0, 0})
	tree.Insert([]uint32{0, 1, 2}, 2)
	tree.Insert([]uint32{0, 2}, 1)
	tree.Insert([]uint32{1, 2}, 3)
	tab := flatten(tree)
	// Subarrays: item 0 has 1 node, item 1 has 2, item 2 has 3.
	if got := tab.starts[1] - tab.starts[0]; got != 1 {
		t.Errorf("item 0 nodes = %d, want 1", got)
	}
	if got := tab.starts[2] - tab.starts[1]; got != 2 {
		t.Errorf("item 1 nodes = %d, want 2", got)
	}
	if got := tab.starts[3] - tab.starts[2]; got != 3 {
		t.Errorf("item 2 nodes = %d, want 3", got)
	}
	// Supports survive flattening.
	if tab.support[0] != 3 || tab.support[1] != 5 || tab.support[2] != 6 {
		t.Errorf("supports = %v", tab.support)
	}
	// itemOf inverts positions.
	for rk := uint32(0); rk < 3; rk++ {
		for p := tab.starts[rk]; p < tab.starts[rk+1]; p++ {
			if got := tab.itemOf(p); got != rk {
				t.Errorf("itemOf(%d) = %d, want %d", p, got, rk)
			}
		}
	}
}

func TestFlattenParentsPointUp(t *testing.T) {
	tree := fptree.New([]uint32{0, 1, 2}, []uint64{0, 0, 0})
	tree.Insert([]uint32{0, 1, 2}, 1)
	tab := flatten(tree)
	// Walk from the single item-2 node to the root: items 1 then 0.
	p := tab.starts[2]
	q := tab.parents[p]
	if tab.itemOf(q) != 1 {
		t.Fatalf("parent item = %d, want 1", tab.itemOf(q))
	}
	q = tab.parents[q]
	if tab.itemOf(q) != 0 {
		t.Fatalf("grandparent item = %d, want 0", tab.itemOf(q))
	}
	if tab.parents[q] != noParent {
		t.Fatal("depth-1 node must have no parent")
	}
}

func TestItemOfEmptyItems(t *testing.T) {
	tree := fptree.New([]uint32{0, 1, 2}, []uint64{0, 0, 0})
	tree.Insert([]uint32{0, 2}, 1) // item 1 has no nodes
	tab := flatten(tree)
	if got := tab.itemOf(tab.starts[2]); got != 2 {
		t.Errorf("itemOf across empty subarray = %d, want 2", got)
	}
}

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
	if d := mine.Diff("nonordfp", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestBuildPhaseMemoryAtBaseline(t *testing.T) {
	// nonordfp's build phase must cost the full 40 B/node — the paper's
	// point that it "does not reduce memory in the build phase".
	db := dataset.Slice{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	var tr mine.Control
	if err := (Miner{Ctl: &tr}).Mine(db, 3, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if tr.PeakBytes() < 3*fptree.BaselineNodeSize {
		t.Errorf("peak %d below 40 B/node for 3 nodes", tr.PeakBytes())
	}
}
