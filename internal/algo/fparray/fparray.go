// Package fparray implements an FP-growth variant in the style of the
// cache-conscious FP-array (PARSEC's freqmine kernel; §5's class (2)):
// after the build phase the FP-tree is unrolled into flat arrays laid
// out in depth-first order, so that leaf-to-root walks touch
// consecutive memory. The defining costs, which the paper measures in
// §4.5, are that the complete dataset is loaded into main memory during
// the first scan, and that the array form does not reduce (and slightly
// increases) the tree's footprint.
package fparray

import (
	"sort"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

// Miner is the FP-array-style miner.
type Miner struct {
	// Ctl, when non-nil, is polled at every emission, so a stopped run
	// (cancellation, deadline, budget, failing sink) emits nothing
	// further and aborts with its cause. It is also the run's byte
	// ledger: the resident raw dataset during the initial build (6
	// bytes per item occurrence, the paper's storage estimate in
	// §4.1), plus NodeEntrySize per array node.
	Ctl *mine.Control
}

// NodeEntrySize is the modeled per-node array cost: item, count,
// parent index, and one per-item node-list entry (4 bytes each).
const NodeEntrySize = 16

// DatasetBytesPerOccurrence models the in-memory raw data (§4.1: below
// 6 bytes per item occurrence in FIMI text form).
const DatasetBytesPerOccurrence = 6

// Name implements mine.Miner.
func (Miner) Name() string { return "fparray" }

// array is the unrolled depth-first representation.
type array struct {
	items   []uint32
	counts  []uint32
	parents []uint32 // index into the same arrays; noParent for roots
	// nodeList[i] holds the array indices of item i's nodes (replaces
	// nodelink chains with a cache-friendly index vector).
	nodeList [][]uint32
	support  []uint64
	names    []uint32
}

const noParent = ^uint32(0)

func (a *array) bytes() int64 { return int64(len(a.items)) * NodeEntrySize }

// Mine implements mine.Miner.
func (m Miner) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	counts, err := dataset.CountItems(src)
	if err != nil {
		return err
	}
	if minSupport == 0 {
		minSupport = 1
	}
	rec := dataset.NewRecoder(counts, minSupport)
	n := rec.NumFrequent()
	if n == 0 {
		return nil
	}
	// Model the dataset being resident during the first scan: the
	// implementation the paper measured keeps the raw transactions in
	// memory and builds the tree from them in a second, in-memory pass.
	var occurrences int64
	err = src.Scan(func(tx []uint32) error {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		occurrences += int64(len(tx))
		return nil
	})
	if err != nil {
		return err
	}
	dataBytes := occurrences * DatasetBytesPerOccurrence
	m.Ctl.Alloc(dataBytes)

	itemName, itemCount := rec.Frequent()
	tree := fptree.New(itemName, itemCount)
	var buf []uint32
	err = src.Scan(func(tx []uint32) error {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		buf = rec.Encode(tx, buf[:0])
		tree.Insert(buf, 1)
		return nil
	})
	if err != nil {
		m.Ctl.Free(dataBytes)
		return err
	}
	g := &grower{minSup: minSupport, sink: sink, ctl: m.Ctl}
	err = g.mineTree(tree, nil)
	m.Ctl.Free(dataBytes)
	return err
}

type grower struct {
	minSup  uint64
	sink    mine.Sink
	ctl     *mine.Control // nil = never canceled
	emitBuf []uint32
}

func (g *grower) emit(prefix []uint32, support uint64) error {
	if err := g.ctl.Err(); err != nil {
		return err
	}
	g.emitBuf = append(g.emitBuf[:0], prefix...)
	sort.Slice(g.emitBuf, func(i, j int) bool { return g.emitBuf[i] < g.emitBuf[j] })
	return g.sink.Emit(g.emitBuf, support)
}

func (g *grower) mineTree(t *fptree.Tree, prefix []uint32) error {
	treeBytes := t.BaselineBytes()
	g.ctl.Alloc(treeBytes)
	a := unroll(t)
	g.ctl.Free(treeBytes)
	g.ctl.Alloc(a.bytes())
	err := g.mineArray(a, prefix)
	g.ctl.Free(a.bytes())
	return err
}

// unroll lays the tree out in depth-first order so each path occupies
// (mostly) consecutive array entries.
func unroll(t *fptree.Tree) *array {
	numItems := len(t.Heads)
	a := &array{
		nodeList: make([][]uint32, numItems),
		support:  make([]uint64, numItems),
		names:    t.ItemName,
	}
	// Iterative DFS over the ternary tree: push BST roots, expanding
	// left/right in place so positions follow tree order.
	type frame struct {
		node   uint32
		parent uint32 // array index of tree parent
	}
	var stack []frame
	var pushBST func(bst uint32, parent uint32)
	pushBST = func(bst uint32, parent uint32) {
		// Collect the BST in reverse in-order so the stack pops
		// ascending items.
		var nodes []uint32
		var walk func(u uint32)
		walk = func(u uint32) {
			if u == 0 {
				return
			}
			walk(t.Nodes[u].Right)
			nodes = append(nodes, u)
			walk(t.Nodes[u].Left)
		}
		walk(bst)
		for _, u := range nodes {
			stack = append(stack, frame{node: u, parent: parent})
		}
	}
	pushBST(t.Root, noParent)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[f.node]
		idx := uint32(len(a.items))
		a.items = append(a.items, nd.Item)
		a.counts = append(a.counts, nd.Count)
		a.parents = append(a.parents, f.parent)
		a.nodeList[nd.Item] = append(a.nodeList[nd.Item], idx)
		a.support[nd.Item] += uint64(nd.Count)
		pushBST(nd.Suffix, idx)
	}
	return a
}

func (g *grower) mineArray(a *array, prefix []uint32) error {
	for rk := len(a.nodeList) - 1; rk >= 0; rk-- {
		if len(a.nodeList[rk]) == 0 {
			continue
		}
		sup := a.support[rk]
		if sup < g.minSup {
			continue
		}
		prefix = append(prefix, a.names[rk])
		if err := g.emit(prefix, sup); err != nil {
			return err
		}
		if rk > 0 {
			cond := g.conditional(a, uint32(rk))
			if cond != nil {
				if err := g.mineTree(cond, prefix); err != nil {
					return err
				}
			}
		}
		prefix = prefix[:len(prefix)-1]
	}
	return nil
}

func (g *grower) conditional(a *array, rk uint32) *fptree.Tree {
	condCount := make([]uint64, rk)
	for _, idx := range a.nodeList[rk] {
		w := uint64(a.counts[idx])
		for q := a.parents[idx]; q != noParent; q = a.parents[q] {
			condCount[a.items[q]] += w
		}
	}
	any := false
	for _, c := range condCount {
		if c >= g.minSup {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	cond := fptree.New(a.names[:rk], condCount)
	var path []uint32
	for _, idx := range a.nodeList[rk] {
		w := a.counts[idx]
		path = path[:0]
		for q := a.parents[idx]; q != noParent; q = a.parents[q] {
			it := a.items[q]
			if condCount[it] >= g.minSup {
				path = append(path, it)
			}
		}
		if len(path) == 0 {
			continue
		}
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		cond.Insert(path, w)
	}
	if cond.NumNodes() == 0 {
		return nil
	}
	return cond
}
