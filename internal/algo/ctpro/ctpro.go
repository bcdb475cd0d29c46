// Package ctpro implements an FP-growth variant in the style of CT-PRO
// (Sucahyo–Gopalan, FIMI'04): the tree is a compact trie stored in
// flat arrays with first-child/next-sibling links and a per-item node
// index replacing nodelink chains. Its nodes are smaller than the
// ternary FP-tree's but — as the paper notes (§5) — its compression
// ratio is well below the CFP-tree's, which is what Figure 8(a)/(b)
// measure.
package ctpro

import (
	"sort"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// Miner is the CT-PRO-style miner.
type Miner struct {
	// Ctl, when non-nil, is polled at every emission, so a stopped run
	// (cancellation, deadline, budget, failing sink) emits nothing
	// further and aborts with its cause. It is also the run's byte
	// ledger, charged NodeBytes per trie node plus 4 bytes per
	// item-index entry.
	Ctl *mine.Control
}

// NodeBytes is the modeled per-node size: item, count, parent,
// first-child and next-sibling fields at 4 bytes each.
const NodeBytes = 20

// Name implements mine.Miner.
func (Miner) Name() string { return "ctpro" }

// node is one compact-trie node.
type node struct {
	item    uint32
	count   uint32
	parent  uint32
	child   uint32 // first child
	sibling uint32 // next sibling (same parent)
}

// tree is the compact trie. Node 0 is the virtual root.
type tree struct {
	nodes     []node
	itemNodes [][]uint32 // per item rank: node indices
	support   []uint64
	names     []uint32
}

func newTree(names []uint32, support []uint64) *tree {
	return &tree{
		nodes:     make([]node, 1, 64),
		itemNodes: make([][]uint32, len(names)),
		support:   support,
		names:     names,
	}
}

func (t *tree) numNodes() int { return len(t.nodes) - 1 }

func (t *tree) bytes() int64 {
	return int64(t.numNodes())*NodeBytes + int64(t.numNodes())*4
}

// insert adds a path of strictly increasing ranks with multiplicity w.
func (t *tree) insert(ranks []uint32, w uint32) {
	cur := uint32(0)
	for _, rk := range ranks {
		found := uint32(0)
		for c := t.nodes[cur].child; c != 0; c = t.nodes[c].sibling {
			if t.nodes[c].item == rk {
				found = c
				break
			}
		}
		if found == 0 {
			found = uint32(len(t.nodes))
			t.nodes = append(t.nodes, node{item: rk, parent: cur, sibling: t.nodes[cur].child})
			t.nodes[cur].child = found
			t.itemNodes[rk] = append(t.itemNodes[rk], found)
		}
		t.nodes[found].count += w
		cur = found
	}
}

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
	itemName, itemCount := rec.Frequent()
	tr := newTree(itemName, itemCount)
	var buf []uint32
	err = src.Scan(func(tx []uint32) error {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		buf = rec.Encode(tx, buf[:0])
		tr.insert(buf, 1)
		return nil
	})
	if err != nil {
		return err
	}
	g := &grower{minSup: minSupport, sink: sink, ctl: m.Ctl}
	return g.mine(tr, nil)
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

func (g *grower) mine(t *tree, prefix []uint32) error {
	g.ctl.Alloc(t.bytes())
	defer g.ctl.Free(t.bytes())
	for rk := len(t.itemNodes) - 1; rk >= 0; rk-- {
		if len(t.itemNodes[rk]) == 0 {
			continue
		}
		var sup uint64
		for _, nd := range t.itemNodes[rk] {
			sup += uint64(t.nodes[nd].count)
		}
		if sup < g.minSup {
			continue
		}
		prefix = append(prefix, t.names[rk])
		if err := g.emit(prefix, sup); err != nil {
			return err
		}
		if rk > 0 {
			cond := g.conditional(t, uint32(rk))
			if cond != nil {
				if err := g.mine(cond, prefix); err != nil {
					return err
				}
			}
		}
		prefix = prefix[:len(prefix)-1]
	}
	return nil
}

func (g *grower) conditional(t *tree, rk uint32) *tree {
	condCount := make([]uint64, rk)
	for _, nd := range t.itemNodes[rk] {
		w := uint64(t.nodes[nd].count)
		for p := t.nodes[nd].parent; p != 0; p = t.nodes[p].parent {
			condCount[t.nodes[p].item] += w
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
	cond := newTree(t.names[:rk], condCount)
	var path []uint32
	for _, nd := range t.itemNodes[rk] {
		w := t.nodes[nd].count
		path = path[:0]
		for p := t.nodes[nd].parent; p != 0; p = t.nodes[p].parent {
			it := t.nodes[p].item
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
		cond.insert(path, w)
	}
	if cond.numNodes() == 0 {
		return nil
	}
	return cond
}
