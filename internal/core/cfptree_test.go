package core

import (
	"math/rand"
	"reflect"
	"testing"

	"cfpgrowth/internal/arena"
)

// collectVisitor materializes the walk as (rank, pcount, depth) tuples.
type collectVisitor struct {
	nodes []walkedNode
	depth int
}

type walkedNode struct {
	rank   uint32
	pcount uint32
	depth  int
}

func (c *collectVisitor) Enter(rank uint32, pcount uint32) {
	c.nodes = append(c.nodes, walkedNode{rank, pcount, c.depth})
	c.depth++
}

func (c *collectVisitor) Leave() { c.depth-- }

func newTestTree(cfg Config, numItems int) *Tree {
	names := make([]uint32, numItems)
	for i := range names {
		names[i] = uint32(i)
	}
	return NewTree(arena.New(), cfg, names)
}

func walkAll(t *Tree) []walkedNode {
	var c collectVisitor
	t.Walk(&c)
	return c.nodes
}

func TestInsertSingleTransaction(t *testing.T) {
	tree := newTestTree(Config{}, 10)
	tree.Insert([]uint32{0, 3, 7}, 2)
	if tree.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", tree.NumNodes())
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	want := []walkedNode{{0, 0, 0}, {3, 0, 1}, {7, 2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v, want %v", got, want)
	}
	// A fresh 3-node path with small deltas becomes one chain node.
	std, chains, emb := tree.PhysNodes()
	if std != 0 || chains != 1 || emb != 0 {
		t.Errorf("phys nodes = (%d,%d,%d), want (0,1,0)", std, chains, emb)
	}
}

func TestInsertSingleItemEmbeds(t *testing.T) {
	tree := newTestTree(Config{}, 10)
	tree.Insert([]uint32{4}, 3)
	std, chains, emb := tree.PhysNodes()
	if std != 0 || chains != 0 || emb != 1 {
		t.Fatalf("phys nodes = (%d,%d,%d), want (0,0,1)", std, chains, emb)
	}
	if tree.Bytes() != 0 {
		t.Errorf("embedded leaf used %d arena bytes, want 0", tree.Bytes())
	}
	got := walkAll(tree)
	if !reflect.DeepEqual(got, []walkedNode{{4, 3, 0}}) {
		t.Errorf("walk = %v", got)
	}
}

func TestInsertRepeatIncrementsPcountOnly(t *testing.T) {
	tree := newTestTree(Config{}, 10)
	tree.Insert([]uint32{0, 1, 2}, 1)
	tree.Insert([]uint32{0, 1, 2}, 1)
	tree.Insert([]uint32{0, 1}, 1)
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	// pcount of node 1 is 1 (one transaction ends there); node 2 has 2.
	want := []walkedNode{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v, want %v", got, want)
	}
	if tree.NumTx() != 3 {
		t.Errorf("NumTx = %d, want 3", tree.NumTx())
	}
}

// TestFigure3PartialCounts checks the paper's §3.2 identity on its
// running example: the FP count of a node equals the sum of the pcounts
// of its subtree, and the sum of all pcounts equals the number of
// transactions.
func TestFigure3PartialCounts(t *testing.T) {
	tree := newTestTree(Config{}, 4)
	// Build a small analogue of Figure 3's shape.
	txs := [][]uint32{
		{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0, 2}, {0}, {1, 2}, {2, 3}, {0, 1, 2, 3},
	}
	for _, tx := range txs {
		tree.Insert(tx, 1)
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	if tree.NumTx() != uint64(len(txs)) {
		t.Errorf("NumTx = %d, want %d", tree.NumTx(), len(txs))
	}
	// FP count of the rank-0 depth-1 node must equal the number of
	// transactions starting with 0.
	counts := subtreeCounts(tree)
	want := 0
	for _, tx := range txs {
		if tx[0] == 0 {
			want++
		}
	}
	if counts[0].rank != 0 || counts[0].count != uint64(want) {
		t.Errorf("root-0 count = %+v, want rank 0 count %d", counts[0], want)
	}
}

type rankCount struct {
	rank  uint32
	count uint64
}

// subtreeCounts returns, per walked node in order, its full FP count.
func subtreeCounts(t *Tree) []rankCount {
	cp := &countPass{}
	t.Walk(cp)
	var c collectVisitor
	t.Walk(&c)
	out := make([]rankCount, len(cp.counts))
	for i := range out {
		out[i] = rankCount{c.nodes[i].rank, cp.counts[i]}
	}
	return out
}

func TestBSTSiblingsAscending(t *testing.T) {
	tree := newTestTree(Config{}, 20)
	// Insert siblings in scrambled order; the walk must see them
	// ascending.
	for _, r := range []uint32{9, 2, 15, 0, 7, 11} {
		tree.Insert([]uint32{r}, 1)
	}
	got := walkAll(tree)
	prev := int64(-1)
	for _, n := range got {
		if n.depth != 0 {
			t.Fatalf("unexpected depth %d", n.depth)
		}
		if int64(n.rank) <= prev {
			t.Fatalf("siblings out of order: %v", got)
		}
		prev = int64(n.rank)
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
}

func TestChainSplitOnDivergence(t *testing.T) {
	tree := newTestTree(Config{}, 20)
	tree.Insert([]uint32{0, 1, 2, 3, 4}, 1) // one chain of 5
	tree.Insert([]uint32{0, 1, 9}, 1)       // diverges after element 1
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	want := []walkedNode{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 2}, {3, 0, 3}, {4, 1, 4}, {9, 1, 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v\nwant %v", got, want)
	}
	if tree.NumNodes() != 6 {
		t.Errorf("NumNodes = %d, want 6", tree.NumNodes())
	}
}

func TestChainSplitOnMidEnd(t *testing.T) {
	tree := newTestTree(Config{}, 20)
	tree.Insert([]uint32{0, 1, 2, 3, 4}, 1)
	tree.Insert([]uint32{0, 1, 2}, 5) // ends mid-chain
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	want := []walkedNode{
		{0, 0, 0}, {1, 0, 1}, {2, 5, 2}, {3, 0, 3}, {4, 1, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v\nwant %v", got, want)
	}
}

func TestChainExtendBelowTail(t *testing.T) {
	tree := newTestTree(Config{}, 30)
	tree.Insert([]uint32{0, 1}, 1)
	tree.Insert([]uint32{0, 1, 2, 3}, 1) // continues below the chain tail
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	want := []walkedNode{{0, 0, 0}, {1, 1, 1}, {2, 0, 2}, {3, 1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v\nwant %v", got, want)
	}
}

func TestChainDivergeAtFirstElement(t *testing.T) {
	tree := newTestTree(Config{}, 30)
	tree.Insert([]uint32{5, 6, 7}, 1)
	tree.Insert([]uint32{2, 3}, 1) // diverges at chain element 0
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	want := []walkedNode{{2, 0, 0}, {3, 1, 1}, {5, 0, 0}, {6, 0, 1}, {7, 1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v\nwant %v", got, want)
	}
}

func TestLongPathSplitsIntoMultipleChains(t *testing.T) {
	tree := newTestTree(Config{}, 40)
	tx := make([]uint32, 40)
	for i := range tx {
		tx[i] = uint32(i)
	}
	tree.Insert(tx, 1)
	_, chains, _ := tree.PhysNodes()
	// 40 nodes at max chain length 15: ceil(40/15) = 3 chains.
	if chains != 3 {
		t.Errorf("chains = %d, want 3", chains)
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
}

func TestLargeDeltaBreaksChain(t *testing.T) {
	tree := newTestTree(Config{}, 1000)
	tree.Insert([]uint32{0, 1, 900, 901}, 1) // Δ=899 cannot join a chain
	std, chains, emb := tree.PhysNodes()
	if std != 1 {
		t.Errorf("std = %d, want 1 (the Δ=899 node)", std)
	}
	if chains != 1 {
		t.Errorf("chains = %d, want 1 (the [0,1] run)", chains)
	}
	if emb != 1 {
		t.Errorf("embedded = %d, want 1 (trailing node 901)", emb)
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
}

func TestEmbeddedLeafPromotionOnChild(t *testing.T) {
	tree := newTestTree(Config{}, 10)
	tree.Insert([]uint32{3}, 1)    // embedded leaf
	tree.Insert([]uint32{3, 5}, 1) // must promote to standard node
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	want := []walkedNode{{3, 1, 0}, {5, 1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v\nwant %v", got, want)
	}
	std, _, emb := tree.PhysNodes()
	if std != 1 || emb != 1 {
		t.Errorf("phys = std %d emb %d, want 1 and 1", std, emb)
	}
}

func TestEmbeddedLeafPromotionOnSibling(t *testing.T) {
	tree := newTestTree(Config{}, 10)
	tree.Insert([]uint32{3}, 1)
	tree.Insert([]uint32{6}, 1) // sibling: 3 promotes, 6 embeds under it
	tree.Insert([]uint32{1}, 1) // another sibling on the other side
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	got := walkAll(tree)
	want := []walkedNode{{1, 1, 0}, {3, 1, 0}, {6, 1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk = %v\nwant %v", got, want)
	}
}

func TestEmbeddedLeafPcountOverflowPromotes(t *testing.T) {
	tree := newTestTree(Config{DisableChains: true}, 4)
	tree.Insert([]uint32{2}, embedMaxPcount)
	tree.Insert([]uint32{2}, 1) // pcount exceeds 2^24-1: must promote
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	std, _, emb := tree.PhysNodes()
	if std != 1 || emb != 0 {
		t.Errorf("phys = std %d emb %d, want promotion to standard", std, emb)
	}
	got := walkAll(tree)
	if got[0].pcount != embedMaxPcount+1 {
		t.Errorf("pcount = %d, want %d", got[0].pcount, embedMaxPcount+1)
	}
}

func TestLargeWeightNeverEmbeds(t *testing.T) {
	tree := newTestTree(Config{}, 4)
	tree.Insert([]uint32{1}, embedMaxPcount+1)
	std, _, emb := tree.PhysNodes()
	if emb != 0 || std != 1 {
		t.Errorf("phys = std %d emb %d", std, emb)
	}
}

func TestDisableChains(t *testing.T) {
	tree := newTestTree(Config{DisableChains: true}, 20)
	tree.Insert([]uint32{0, 1, 2, 3}, 1)
	_, chains, _ := tree.PhysNodes()
	if chains != 0 {
		t.Errorf("chains = %d with chains disabled", chains)
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
}

func TestDisableEmbed(t *testing.T) {
	tree := newTestTree(Config{DisableEmbed: true}, 20)
	tree.Insert([]uint32{4}, 1)
	_, _, emb := tree.PhysNodes()
	if emb != 0 {
		t.Errorf("embedded = %d with embedding disabled", emb)
	}
}

func TestMaxChainLenConfig(t *testing.T) {
	tree := newTestTree(Config{MaxChainLen: 4}, 20)
	tx := make([]uint32, 8)
	for i := range tx {
		tx[i] = uint32(i)
	}
	tree.Insert(tx, 1)
	_, chains, _ := tree.PhysNodes()
	if chains != 2 {
		t.Errorf("chains = %d, want 2 at max length 4", chains)
	}
}

func TestSinglePathDetection(t *testing.T) {
	tree := newTestTree(Config{}, 20)
	tree.Insert([]uint32{0, 1, 2}, 3)
	tree.Insert([]uint32{0, 1}, 1)
	path, ok := tree.SinglePath()
	if !ok {
		t.Fatal("single path not detected")
	}
	want := []PathNode{{0, 0}, {1, 1}, {2, 3}}
	if !reflect.DeepEqual(path, want) {
		t.Errorf("path = %v, want %v", path, want)
	}
	tree.Insert([]uint32{0, 5}, 1)
	if _, ok := tree.SinglePath(); ok {
		t.Error("branched tree reported as single path")
	}
}

func TestEmptyTree(t *testing.T) {
	tree := newTestTree(Config{}, 5)
	if path, ok := tree.SinglePath(); !ok || len(path) != 0 {
		t.Error("empty tree must be a trivial single path")
	}
	if got := walkAll(tree); len(got) != 0 {
		t.Errorf("walk of empty tree = %v", got)
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
}

func TestInsertEmptyTransactionNoop(t *testing.T) {
	tree := newTestTree(Config{}, 5)
	tree.Insert(nil, 1)
	if tree.NumNodes() != 0 || tree.NumTx() != 0 {
		t.Error("empty insert changed the tree")
	}
}

// TestRandomizedAgainstReference inserts random transaction sets into
// both the CFP-tree and the baseline FP-tree and checks that the
// logical trees agree: same per-item supports and same node count.
func TestRandomizedAgainstReference(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{DisableChains: true},
		{DisableEmbed: true},
		{DisableChains: true, DisableEmbed: true},
		{MaxChainLen: 3},
	} {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 25; trial++ {
			numItems := 3 + rng.Intn(15)
			tree := newTestTree(cfg, numItems)
			// Reference: per-item total pcount-weighted support and
			// exact prefix structure via a map of paths.
			type pathKey string
			refCount := map[pathKey]uint64{}
			refItems := make([]uint64, numItems)
			for i := 0; i < 60; i++ {
				var tx []uint32
				last := -1
				for r := 0; r < numItems; r++ {
					if rng.Intn(3) == 0 {
						tx = append(tx, uint32(r))
						last = r
					}
				}
				_ = last
				if len(tx) == 0 {
					continue
				}
				w := uint32(1 + rng.Intn(3))
				tree.Insert(tx, w)
				key := make([]byte, len(tx))
				for j, r := range tx {
					key[j] = byte(r)
				}
				refCount[pathKey(key)] += uint64(w)
				for _, r := range tx {
					refItems[r] += uint64(w)
				}
			}
			if s := tree.CheckInvariants(); s != "" {
				t.Fatalf("cfg %+v trial %d: %s", cfg, trial, s)
			}
			// Walk and recompute per-item support from subtree counts.
			counts := subtreeCounts(tree)
			gotItems := make([]uint64, numItems)
			for _, rc := range counts {
				gotItems[rc.rank] += rc.count
			}
			if !reflect.DeepEqual(gotItems, refItems) {
				t.Fatalf("cfg %+v trial %d: item supports %v, want %v", cfg, trial, gotItems, refItems)
			}
			// Leaf pcount sums: total pcount mass equals total weight.
			var totW uint64
			for _, w := range refCount {
				totW += w
			}
			if tree.NumTx() != totW {
				t.Fatalf("cfg %+v trial %d: NumTx %d, want %d", cfg, trial, tree.NumTx(), totW)
			}
		}
	}
}

// TestCompressionEffectiveness: on a chain-friendly workload the
// CFP-tree must be far below the 28-byte FP-tree node and reasonably
// close to the paper's ~2 bytes/node.
func TestCompressionEffectiveness(t *testing.T) {
	tree := newTestTree(Config{}, 256)
	rng := rand.New(rand.NewSource(31))
	tx := make([]uint32, 0, 64)
	for i := 0; i < 500; i++ {
		tx = tx[:0]
		// Long transactions over a moderate item space → long chains.
		start := rng.Intn(8)
		for r := start; r < 256; r += 1 + rng.Intn(4) {
			tx = append(tx, uint32(r))
		}
		tree.Insert(tx, 1)
	}
	if s := tree.CheckInvariants(); s != "" {
		t.Fatal(s)
	}
	avg := float64(tree.Bytes()) / float64(tree.NumNodes())
	if avg > 8 {
		t.Errorf("average node size %.2f bytes, expected well under 8", avg)
	}
	t.Logf("avg node size: %.2f bytes over %d nodes", avg, tree.NumNodes())
}
