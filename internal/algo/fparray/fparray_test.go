package fparray

import (
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

func TestUnrollPreservesStructure(t *testing.T) {
	tree := fptree.New([]uint32{0, 1, 2}, []uint64{0, 0, 0})
	tree.Insert([]uint32{0, 1, 2}, 2)
	tree.Insert([]uint32{0, 2}, 1)
	tree.Insert([]uint32{1, 2}, 3)
	a := unroll(tree)
	if len(a.items) != tree.NumNodes() {
		t.Fatalf("unrolled %d nodes, tree has %d", len(a.items), tree.NumNodes())
	}
	// Supports preserved.
	if a.support[0] != 3 || a.support[1] != 5 || a.support[2] != 6 {
		t.Errorf("supports = %v", a.support)
	}
	// Item 2 has three nodes reachable via the node list, each with a
	// consistent parent chain.
	if len(a.nodeList[2]) != 3 {
		t.Fatalf("item 2 node list = %d entries, want 3", len(a.nodeList[2]))
	}
	for _, idx := range a.nodeList[2] {
		prev := a.items[idx]
		for q := a.parents[idx]; q != noParent; q = a.parents[q] {
			if a.items[q] >= prev {
				t.Fatalf("parent items not strictly decreasing")
			}
			prev = a.items[q]
		}
	}
}

func TestUnrollDFSOrderKeepsPathsContiguous(t *testing.T) {
	// A single path must occupy consecutive array slots — the
	// cache-consciousness the FP-array is about.
	tree := fptree.New(make([]uint32, 5), make([]uint64, 5))
	tree.Insert([]uint32{0, 1, 2, 3, 4}, 1)
	a := unroll(tree)
	for i := 0; i < len(a.items); i++ {
		if a.items[i] != uint32(i) {
			t.Fatalf("path not contiguous: %v", a.items)
		}
		if i > 0 && a.parents[i] != uint32(i-1) {
			t.Fatalf("parent of slot %d = %d", i, a.parents[i])
		}
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
	if d := mine.Diff("fparray", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestDatasetResidentDuringBuild(t *testing.T) {
	// The PARSEC FP-array loads the whole dataset during the first
	// scan; its peak must therefore include the dataset bytes.
	db := dataset.Slice{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	for i := 0; i < 9; i++ {
		db = append(db, db[0])
	}
	var tr mine.Control
	if err := (Miner{Ctl: &tr}).Mine(db, 10, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	wantMin := int64(10 * 10 * DatasetBytesPerOccurrence)
	if tr.PeakBytes() < wantMin {
		t.Errorf("peak %d below resident dataset size %d", tr.PeakBytes(), wantMin)
	}
}
