package fptree

import (
	"math/rand"
	"testing"

	"cfpgrowth/internal/dataset"
)

// buildFrom constructs a tree over the given database at the given
// minimum support, returning the tree and recoder-equivalent mappings.
func buildFrom(t *testing.T, db dataset.Slice, minSup uint64) *Tree {
	t.Helper()
	counts, err := dataset.CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	rec := dataset.NewRecoder(counts, minSup)
	itemName, itemCount := rec.Frequent()
	tree := New(itemName, itemCount)
	var buf []uint32
	_ = db.Scan(func(tx []uint32) error {
		buf = rec.Encode(tx, buf[:0])
		tree.Insert(buf, 1)
		return nil
	})
	return tree
}

func TestInsertSharedPrefix(t *testing.T) {
	tree := New([]uint32{10, 20, 30}, []uint64{3, 2, 1})
	tree.Insert([]uint32{0, 1, 2}, 1)
	tree.Insert([]uint32{0, 1}, 1)
	tree.Insert([]uint32{0, 2}, 1)
	if tree.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4 (shared prefix 0,1)", tree.NumNodes())
	}
	// Node for rank 0 must have count 3.
	n0 := tree.Heads[0]
	if tree.Nodes[n0].Count != 3 {
		t.Errorf("count of rank-0 node = %d, want 3", tree.Nodes[n0].Count)
	}
	// Two nodes for rank 2 (under 0,1 and under 0).
	cnt := 0
	for n := tree.Heads[2]; n != 0; n = tree.Nodes[n].Nodelink {
		cnt++
	}
	if cnt != 2 {
		t.Errorf("rank-2 nodelink chain length = %d, want 2", cnt)
	}
}

func TestInsertBSTSiblingOrder(t *testing.T) {
	tree := New(make([]uint32, 5), make([]uint64, 5))
	// Insert depth-1 nodes out of order; BST search must find each.
	tree.Insert([]uint32{3}, 1)
	tree.Insert([]uint32{1}, 1)
	tree.Insert([]uint32{4}, 1)
	tree.Insert([]uint32{1}, 1) // existing
	tree.Insert([]uint32{0}, 1)
	if tree.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", tree.NumNodes())
	}
	if got := tree.ItemSupport(1); got != 2 {
		t.Errorf("support of rank 1 = %d, want 2", got)
	}
	// Root BST: 3 at root, 1 left, 4 right, 0 left of 1.
	r := tree.Root
	if tree.Nodes[r].Item != 3 {
		t.Fatalf("BST root item = %d, want 3", tree.Nodes[r].Item)
	}
	l := tree.Nodes[r].Left
	if tree.Nodes[l].Item != 1 || tree.Nodes[tree.Nodes[r].Right].Item != 4 {
		t.Error("BST shape wrong at depth 1")
	}
	if tree.Nodes[tree.Nodes[l].Left].Item != 0 {
		t.Error("BST shape wrong for item 0")
	}
}

func TestParentLinks(t *testing.T) {
	tree := New(make([]uint32, 3), make([]uint64, 3))
	tree.Insert([]uint32{0, 1, 2}, 1)
	leaf := tree.Heads[2]
	mid := tree.Nodes[leaf].Parent
	top := tree.Nodes[mid].Parent
	if tree.Nodes[mid].Item != 1 || tree.Nodes[top].Item != 0 {
		t.Error("parent chain does not walk back through the prefix")
	}
	if tree.Nodes[top].Parent != 0 {
		t.Error("depth-1 node must have null parent")
	}
}

func TestSinglePath(t *testing.T) {
	tree := New(make([]uint32, 4), make([]uint64, 4))
	tree.Insert([]uint32{0, 1, 2}, 5)
	path, ok := tree.SinglePath()
	if !ok || len(path) != 3 {
		t.Fatalf("SinglePath = (%v, %v), want 3-node path", path, ok)
	}
	tree.Insert([]uint32{0, 3}, 1) // branch below rank 0
	if _, ok := tree.SinglePath(); ok {
		t.Error("branched tree reported as single path")
	}
}

func TestSinglePathEmptyTree(t *testing.T) {
	tree := New(nil, nil)
	path, ok := tree.SinglePath()
	if !ok || len(path) != 0 {
		t.Errorf("empty tree SinglePath = (%v,%v), want (empty, true)", path, ok)
	}
}

func TestItemSupportSumsChains(t *testing.T) {
	tree := New(make([]uint32, 3), make([]uint64, 3))
	tree.Insert([]uint32{0, 2}, 4)
	tree.Insert([]uint32{1, 2}, 3)
	tree.Insert([]uint32{2}, 2)
	if got := tree.ItemSupport(2); got != 9 {
		t.Errorf("ItemSupport(2) = %d, want 9", got)
	}
}

func TestBuildFromDatabaseCountsMatchRecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := make(dataset.Slice, 200)
	for i := range db {
		tx := make([]uint32, 1+rng.Intn(8))
		for j := range tx {
			tx[j] = uint32(rng.Intn(20))
		}
		db[i] = tx
	}
	tree := buildFrom(t, db, 5)
	for rk := range tree.Heads {
		if got, want := tree.ItemSupport(uint32(rk)), tree.ItemCount[rk]; got != want {
			t.Errorf("rank %d: nodelink support %d != recoder support %d", rk, got, want)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	tree := New(make([]uint32, 2), make([]uint64, 2))
	tree.Insert([]uint32{0, 1}, 1)
	if tree.Bytes() != 2*NodeSize {
		t.Errorf("Bytes = %d, want %d", tree.Bytes(), 2*NodeSize)
	}
	if tree.BaselineBytes() != 2*BaselineNodeSize {
		t.Errorf("BaselineBytes = %d, want %d", tree.BaselineBytes(), 2*BaselineNodeSize)
	}
}

// TestFigure1Shape rebuilds the structure of the paper's Figure 1 FP-tree
// from a database engineered to produce its counts at the depth-1 level.
func TestFigure1Shape(t *testing.T) {
	// Four items with supports f1 > f3 > f2 > f4 in rank order
	// 1,3,2,4 after recoding. We use a small analogue: transactions
	// over items 1..4 where item 1 is most frequent.
	db := dataset.Slice{
		{1, 2, 3, 4},
		{1, 2, 3},
		{1, 2},
		{1, 3},
		{1},
		{2, 3},
		{3, 4},
	}
	tree := buildFrom(t, db, 1)
	// Rank 0 must be item 1 (support 5) and must sit at depth 1 with
	// count 5: every transaction containing 1 shares that node.
	n0 := tree.Heads[0]
	if tree.ItemName[0] != 1 {
		t.Fatalf("rank 0 = item %d, want 1", tree.ItemName[0])
	}
	if tree.Nodes[n0].Count != 5 || tree.Nodes[n0].Parent != 0 {
		t.Errorf("rank-0 node count=%d parent=%d, want 5, 0", tree.Nodes[n0].Count, tree.Nodes[n0].Parent)
	}
	// Summing prefix counts along item 4's nodelinks gives support 2.
	if got := tree.ItemSupport(3); got != 2 {
		t.Errorf("support(4) via nodelinks = %d, want 2", got)
	}
}
