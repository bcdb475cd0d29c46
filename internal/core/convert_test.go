package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cfpgrowth/internal/encoding"
)

func TestConvertTinyTree(t *testing.T) {
	tree := newTestTree(Config{}, 3)
	tree.Insert([]uint32{0, 1, 2}, 2)
	tree.Insert([]uint32{0, 2}, 1)
	tree.Insert([]uint32{1, 2}, 3)
	a := Convert(tree)
	if a.NumNodes() != tree.NumNodes() {
		t.Fatalf("array nodes %d, tree nodes %d", a.NumNodes(), tree.NumNodes())
	}
	// Supports: item 0 appears in 3 transactions (weights 2+1),
	// item 1 in 2+3, item 2 in 2+1+3.
	wantSup := []uint64{3, 5, 6}
	for rk, want := range wantSup {
		if got := a.Support(uint32(rk)); got != want {
			t.Errorf("support[%d] = %d, want %d", rk, got, want)
		}
	}
	// Subarrays are item-clustered: item 2 has 3 nodes (under 0-1,
	// under 0, under 1).
	if a.Nodes(2) != 3 {
		t.Errorf("nodes(2) = %d, want 3", a.Nodes(2))
	}
}

func TestConvertBackwardTraversal(t *testing.T) {
	tree := newTestTree(Config{}, 4)
	tree.Insert([]uint32{0, 1, 2, 3}, 1)
	tree.Insert([]uint32{0, 2, 3}, 1)
	tree.Insert([]uint32{1, 3}, 1)
	tree.Insert([]uint32{3}, 1)
	a := Convert(tree)
	// Collect, per node of item 3, its full ancestor rank path.
	var paths [][]uint32
	a.ScanItem(3, func(e Element) bool {
		p := a.PathTo(e, nil)
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		paths = append(paths, p)
		return true
	})
	want := [][]uint32{{0, 1, 2}, {0, 2}, {1}, {}}
	sortPaths := func(ps [][]uint32) {
		sort.Slice(ps, func(i, j int) bool {
			return len(ps[i]) > len(ps[j])
		})
	}
	sortPaths(paths)
	sortPaths(want)
	if len(paths) != len(want) {
		t.Fatalf("got %d paths, want %d: %v", len(paths), len(want), paths)
	}
	for i := range want {
		if len(paths[i]) == 0 && len(want[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(paths[i], want[i]) {
			t.Errorf("path %d = %v, want %v", i, paths[i], want[i])
		}
	}
}

func TestConvertCountsAreFPCounts(t *testing.T) {
	// Figure 5 analogue: full counts in the array even though the tree
	// stores partial counts.
	tree := newTestTree(Config{}, 2)
	tree.Insert([]uint32{0, 1}, 4)
	tree.Insert([]uint32{0}, 6)
	a := Convert(tree)
	var counts []uint64
	a.ScanItem(0, func(e Element) bool {
		counts = append(counts, e.Count)
		return true
	})
	if len(counts) != 1 || counts[0] != 10 {
		t.Errorf("item-0 counts = %v, want [10]", counts)
	}
}

func TestConvertParentlessMarker(t *testing.T) {
	tree := newTestTree(Config{}, 5)
	tree.Insert([]uint32{2, 4}, 1)
	a := Convert(tree)
	a.ScanItem(2, func(e Element) bool {
		if e.HasParent() {
			t.Error("depth-1 node claims a parent")
		}
		if e.Delta != 3 {
			t.Errorf("parentless Δitem = %d, want rank+1 = 3", e.Delta)
		}
		return true
	})
	a.ScanItem(4, func(e Element) bool {
		if !e.HasParent() || e.ParentRank() != 2 {
			t.Error("child node lost its parent")
		}
		return true
	})
}

func TestConvertEmptyTree(t *testing.T) {
	tree := newTestTree(Config{}, 3)
	a := Convert(tree)
	if a.NumNodes() != 0 || a.DataBytes() != 0 {
		t.Errorf("empty conversion: nodes=%d bytes=%d", a.NumNodes(), a.DataBytes())
	}
}

// TestConvertRandomizedRoundTrip rebuilds the multiset of (path →
// count) facts from the array and compares with ground truth collected
// during insertion.
func TestConvertRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		numItems := 3 + rng.Intn(12)
		tree := newTestTree(Config{}, numItems)
		type fact struct {
			items string
			w     uint64
		}
		ref := map[string]uint64{} // sorted item path -> total weight
		for i := 0; i < 50; i++ {
			var tx []uint32
			for r := 0; r < numItems; r++ {
				if rng.Intn(3) == 0 {
					tx = append(tx, uint32(r))
				}
			}
			if len(tx) == 0 {
				continue
			}
			w := uint64(1 + rng.Intn(4))
			tree.Insert(tx, uint32(w))
			key := make([]byte, len(tx))
			for j, r := range tx {
				key[j] = byte(r)
			}
			ref[string(key)] += w
		}
		a := Convert(tree)
		if a.NumNodes() != tree.NumNodes() {
			t.Fatalf("trial %d: node count mismatch", trial)
		}
		// Per-item support from the array must match per-item support
		// from ground truth.
		wantSup := make([]uint64, numItems)
		for key, w := range ref {
			for _, b := range []byte(key) {
				wantSup[b] += w
			}
		}
		for rk := 0; rk < numItems; rk++ {
			if got := a.Support(uint32(rk)); got != wantSup[rk] {
				t.Fatalf("trial %d: support[%d] = %d, want %d", trial, rk, got, wantSup[rk])
			}
		}
		// Every leaf-to-root backward path must reconstruct a known
		// prefix: for each element, path ∪ self must be a prefix of
		// some inserted transaction, and counts must aggregate: the
		// count of an element equals the summed weight of transactions
		// whose encoding passes through it. We verify total count mass
		// per item instead (the support check above) plus path
		// validity.
		for rk := 0; rk < numItems; rk++ {
			a.ScanItem(uint32(rk), func(e Element) bool {
				p := a.PathTo(e, nil)
				// Ancestor ranks must be strictly decreasing from the
				// element.
				prev := uint32(rk)
				for _, ar := range p {
					if ar >= prev {
						t.Fatalf("trial %d: non-decreasing ancestor path %v for rank %d", trial, p, rk)
					}
					prev = ar
				}
				return true
			})
		}
	}
}

func TestArrayStatsFieldBytes(t *testing.T) {
	tree := newTestTree(Config{}, 3)
	tree.Insert([]uint32{0, 1, 2}, 1)
	a := Convert(tree)
	s := a.Stats()
	if s.DeltaItemBytes+s.DposBytes+s.CountBytes != s.DataBytes {
		t.Errorf("field bytes %d+%d+%d != data bytes %d",
			s.DeltaItemBytes, s.DposBytes, s.CountBytes, s.DataBytes)
	}
	if s.Nodes != 3 {
		t.Errorf("nodes = %d, want 3", s.Nodes)
	}
	// Small values: one byte per field per node.
	if s.AvgNodeSize != 3 {
		t.Errorf("avg node size = %v, want 3", s.AvgNodeSize)
	}
}

func TestTreeStatsTable2Shape(t *testing.T) {
	// pcount is zero for every interior node: with long transactions,
	// the pcount histogram must concentrate at 4 leading zero bytes,
	// the paper's Table 2 signature.
	tree := newTestTree(Config{}, 64)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		var tx []uint32
		for r := 0; r < 64; r++ {
			if rng.Intn(2) == 0 {
				tx = append(tx, uint32(r))
			}
		}
		if len(tx) > 0 {
			tree.Insert(tx, 1)
		}
	}
	s := tree.Stats()
	if s.Pcount.Percent(4)+s.Pcount.Percent(3) < 95 {
		t.Errorf("small pcounts = %.1f%%, expected Table-2-like concentration",
			s.Pcount.Percent(4)+s.Pcount.Percent(3))
	}
	if s.DeltaItem.Percent(3) < 95 {
		t.Errorf("one-byte Δitem = %.1f%%, expected Table-2-like concentration", s.DeltaItem.Percent(3))
	}
	if s.Nodes != tree.NumNodes() {
		t.Errorf("stats nodes %d != tree nodes %d", s.Nodes, tree.NumNodes())
	}
}

// convertThreeWalk is the three-walk converter that Convert replaced,
// kept as the test reference: a counting walk keeps every node's full
// count in walk order, then a sizing walk and a writing walk place each
// triple when they enter its node.
func convertThreeWalk(t *Tree) *Array {
	numItems := t.NumItems()
	a := &Array{
		itemName: t.itemName,
		support:  make([]uint64, numItems),
		nodes:    make([]int, numItems),
		starts:   make([]uint64, numItems+1),
		numNodes: t.NumNodes(),
	}
	cp := &countPass{}
	t.Walk(cp)
	sp := &refPlacePass{a: a, counts: cp.counts, acc: make([]uint64, numItems)}
	t.Walk(sp)
	var total uint64
	for i := 0; i < numItems; i++ {
		a.starts[i] = total
		total += sp.acc[i]
	}
	a.starts[numItems] = total
	a.data = make([]byte, total)
	t.Walk(&refPlacePass{a: a, counts: cp.counts, acc: make([]uint64, numItems), write: true})
	return a
}

// refPlacePass is convertThreeWalk's sizing and writing walk.
type refPlacePass struct {
	a      *Array
	counts []uint64
	next   int
	acc    []uint64
	stack  []placeFrame
	write  bool
}

func (p *refPlacePass) Enter(rank uint32, pcount uint32) {
	cnt := p.counts[p.next]
	p.next++
	local := p.acc[rank]
	delta, dpos := rank+1, int64(0)
	if len(p.stack) > 0 {
		parent := p.stack[len(p.stack)-1]
		delta = rank - parent.rank
		dpos = int64(local) - int64(parent.local)
	}
	var buf [3 * encoding.MaxVarintLen64]byte
	n := encoding.PutUvarint(buf[:], uint64(delta))
	n += encoding.PutUvarint(buf[n:], encoding.Zigzag(dpos))
	n += encoding.PutUvarint(buf[n:], cnt)
	if p.write {
		copy(p.a.data[p.a.starts[rank]+local:], buf[:n])
	} else {
		p.a.support[rank] += cnt
		p.a.nodes[rank]++
	}
	p.acc[rank] += uint64(n)
	p.stack = append(p.stack, placeFrame{rank: rank, local: local})
}

func (p *refPlacePass) Leave() { p.stack = p.stack[:len(p.stack)-1] }

// convertAblations are the CFP-tree configurations the converter is
// held to its reference under: every physical node format appears in
// some of them and is missing from others.
var convertAblations = []Config{
	{},
	{DisableChains: true},
	{DisableEmbed: true},
	{MaxChainLen: 2},
	{MaxChainLen: 255},
}

// sameArray describes the first difference between two CFP-arrays'
// triples, item index and element counts, or returns "".
func sameArray(got, want *Array) string {
	switch {
	case !bytes.Equal(got.data, want.data):
		return fmt.Sprintf("data differs:\ngot  %x\nwant %x", got.data, want.data)
	case !slices.Equal(got.starts, want.starts):
		return fmt.Sprintf("starts %v, want %v", got.starts, want.starts)
	case !slices.Equal(got.support, want.support):
		return fmt.Sprintf("support %v, want %v", got.support, want.support)
	case !slices.Equal(got.nodes, want.nodes):
		return fmt.Sprintf("nodes %v, want %v", got.nodes, want.nodes)
	case got.numNodes != want.numNodes || !slices.Equal(got.itemName, want.itemName):
		return fmt.Sprintf("%d nodes over %d items, want %d over %d", got.numNodes, len(got.itemName), want.numNodes, len(want.itemName))
	}
	return ""
}

// TestConvertMatchesThreeWalk holds the two-walk converter to the
// three-walk reference, byte for byte, over random trees under every
// configuration ablation. The trees mix dense and wide rank gaps (chains
// and multi-byte Δitem), and small and 2^24-plus weights (embedded
// leaves and wide counts).
func TestConvertMatchesThreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		numItems := 2 + rng.Intn(40)
		stride := uint32(1 + rng.Intn(2)*rng.Intn(300))
		txs := make([][]uint32, 1+rng.Intn(80))
		weights := make([]uint32, len(txs))
		for i := range txs {
			for r := 0; r < numItems; r++ {
				if rng.Intn(4) == 0 {
					txs[i] = append(txs[i], uint32(r)*stride)
				}
			}
			weights[i] = uint32(1 + rng.Intn(3))
			if rng.Intn(10) == 0 {
				weights[i] = 1<<24 + uint32(rng.Intn(1000))
			}
		}
		for _, cfg := range convertAblations {
			tree := newTestTree(cfg, (numItems-1)*int(stride)+1)
			for i, tx := range txs {
				tree.Insert(tx, weights[i])
			}
			if d := sameArray(Convert(tree), convertThreeWalk(tree)); d != "" {
				t.Fatalf("trial %d cfg %+v: %s", trial, cfg, d)
			}
		}
	}
}

// FuzzConvert is TestConvertMatchesThreeWalk over fuzzer-shaped trees.
// Bytes are ranks and 0xFF separates transactions; each transaction is
// sorted and deduplicated. mode's low three bits pick the configuration
// ablation, bit 3 spreads the ranks 97 apart (multi-byte Δitem, broken
// chains), and bit 4 weighs every other transaction 2^24 (pcounts no
// embedded leaf can hold).
func FuzzConvert(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xFF, 1, 2, 0xFF, 2}, uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0xFF, 0, 1, 2, 0xFF, 0, 1, 7}, uint8(3))
	f.Add([]byte{3, 1, 3, 0xFF, 200, 0xFF, 1, 200}, uint8(8|16|1))
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		cfg := convertAblations[int(mode&7)%len(convertAblations)]
		stride := uint32(1)
		if mode&8 != 0 {
			stride = 97
		}
		var txs [][]uint32
		var tx []uint32
		numItems := 1
		for i := 0; i <= len(data); i++ {
			if i < len(data) && data[i] != 0xFF {
				r := uint32(data[i]) * stride
				tx = append(tx, r)
				numItems = max(numItems, int(r)+1)
				continue
			}
			if len(tx) > 0 {
				slices.Sort(tx)
				txs = append(txs, slices.Compact(tx))
				tx = nil
			}
		}
		tree := newTestTree(cfg, numItems)
		for i, tx := range txs {
			w := uint32(1)
			if mode&16 != 0 && i%2 == 0 {
				w = 1 << 24
			}
			tree.Insert(tx, w)
		}
		if d := sameArray(Convert(tree), convertThreeWalk(tree)); d != "" {
			t.Fatalf("cfg %+v: %s", cfg, d)
		}
	})
}
