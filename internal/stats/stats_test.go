package stats

import (
	"math/rand"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/synth"
)

func buildTree(t *testing.T, db dataset.Slice, minSup uint64) *fptree.Tree {
	t.Helper()
	counts, err := dataset.CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	rec := dataset.NewRecoder(counts, minSup)
	names, sups := rec.Frequent()
	tree := fptree.New(names, sups)
	var buf []uint32
	_ = db.Scan(func(tx []uint32) error {
		buf = rec.Encode(tx, buf[:0])
		tree.Insert(buf, 1)
		return nil
	})
	return tree
}

func TestAnalyzeCountsEveryNode(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {2, 3}}
	tree := buildTree(t, db, 1)
	tab := AnalyzeFPTree(tree)
	if tab.Nodes != tree.NumNodes() {
		t.Errorf("Nodes = %d, want %d", tab.Nodes, tree.NumNodes())
	}
	for _, row := range tab.Rows() {
		if got := row.Hist.Total(); got != uint64(tab.Nodes) {
			t.Errorf("field %s tallied %d values, want %d", row.Name, got, tab.Nodes)
		}
	}
}

func TestZeroByteShareBounds(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {2, 3}, {3}}
	tab := AnalyzeFPTree(buildTree(t, db, 1))
	if tab.ZeroByteShare <= 0 || tab.ZeroByteShare >= 1 {
		t.Errorf("ZeroByteShare = %v, want in (0,1)", tab.ZeroByteShare)
	}
}

// TestTable1Shape reproduces the qualitative content of Table 1 on a
// webdocs-like dataset: item and count fields nearly always have ≥3
// leading zero bytes, and a majority of all bytes are zero.
func TestTable1Shape(t *testing.T) {
	p, ok := synth.ByName("webdocs")
	if !ok {
		t.Fatal("webdocs profile missing")
	}
	db := p.Generate(2000) // ~846 long transactions
	counts, _ := dataset.CountItems(db)
	minSup := dataset.AbsoluteSupport(0.10, counts.NumTx)
	tree := buildTree(t, db, minSup)
	if tree.NumNodes() < 100 {
		t.Skipf("tree too small for shape checks: %d nodes", tree.NumNodes())
	}
	tab := AnalyzeFPTree(tree)
	if got := tab.Item.Percent(3) + tab.Item.Percent(2) + tab.Item.Percent(4); got < 95 {
		t.Errorf("item field small-values share = %.1f%%, want ≥95%% (Table 1)", got)
	}
	if got := tab.Count.Percent(3) + tab.Count.Percent(2) + tab.Count.Percent(4); got < 95 {
		t.Errorf("count field small-values share = %.1f%%", got)
	}
	if tab.ZeroByteShare < 0.40 {
		t.Errorf("zero-byte share = %.2f, paper reports ~0.53 on webdocs", tab.ZeroByteShare)
	}
	t.Logf("zero-byte share: %.1f%% over %d nodes", 100*tab.ZeroByteShare, tab.Nodes)
}

func TestAnalyzeRandomTreeTotalsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := make(dataset.Slice, 300)
	for i := range db {
		tx := make([]uint32, 1+rng.Intn(10))
		for j := range tx {
			tx[j] = uint32(rng.Intn(40))
		}
		db[i] = tx
	}
	tree := buildTree(t, db, 3)
	tab := AnalyzeFPTree(tree)
	// The share must equal the histogram-weighted average.
	var zeros, total uint64
	for _, row := range tab.Rows() {
		for z := 0; z <= 4; z++ {
			zeros += uint64(z) * row.Hist[z]
			total += 4 * row.Hist[z]
		}
	}
	want := float64(zeros) / float64(total)
	if diff := tab.ZeroByteShare - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ZeroByteShare %v inconsistent with histograms %v", tab.ZeroByteShare, want)
	}
}
