// Package tiny implements an FP-growth variant in the style of
// FP-growth-Tiny (Özkural–Aykanat): conditional FP-trees are never
// materialized; all mining works directly on the initial FP-tree, with
// conditional databases represented as lists of (node, weight)
// occurrences pointing into the big tree. This trades the memory of
// conditional trees for repeated ancestor walks — and, as the paper
// observes (§4.5), on large data the initial tree itself is too large
// to fit in memory, which is where the approach breaks down.
package tiny

import (
	"sort"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

// Miner is the FP-growth-Tiny-style miner.
type Miner struct {
	// Ctl, when non-nil, is polled at every emission, so a stopped run
	// (cancellation, deadline, budget, failing sink) emits nothing
	// further and aborts with its cause. It is also the run's byte
	// ledger: the big tree at the 40-byte baseline node size for the
	// whole run, plus 8 bytes per live occurrence entry.
	Ctl *mine.Control
}

// OccEntrySize is the modeled size of one occurrence (node reference
// plus weight).
const OccEntrySize = 8

// Name implements mine.Miner.
func (Miner) Name() string { return "tiny" }

// occurrence is one pattern-base element: a tree node and the weight
// with which the current prefix reaches it.
type occurrence struct {
	node   uint32
	weight uint32
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
		return err
	}
	treeBytes := tree.BaselineBytes()
	m.Ctl.Alloc(treeBytes)
	defer m.Ctl.Free(treeBytes)
	g := &grower{t: tree, minSup: minSupport, sink: sink, ctl: m.Ctl}
	// Top level: each item's occurrences are its nodelink chain.
	for rk := n - 1; rk >= 0; rk-- {
		sup := tree.ItemCount[rk]
		if sup < minSupport {
			continue
		}
		if err := g.emit([]uint32{itemName[rk]}, sup); err != nil {
			return err
		}
		var occ []occurrence
		for nd := tree.Heads[rk]; nd != 0; nd = tree.Nodes[nd].Nodelink {
			occ = append(occ, occurrence{node: nd, weight: tree.Nodes[nd].Count})
		}
		if err := g.mine([]uint32{itemName[rk]}, uint32(rk), occ); err != nil {
			return err
		}
	}
	return nil
}

type grower struct {
	t       *fptree.Tree
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

// mine extends prefix (whose pattern base is occ, all with items below
// bound) by every conditionally frequent item, never building a
// conditional tree: the new pattern base is the merged set of ancestor
// nodes carrying that item.
func (g *grower) mine(prefix []uint32, bound uint32, occ []occurrence) error {
	if len(occ) == 0 || bound == 0 {
		return nil
	}
	condCount := make([]uint64, bound)
	for _, o := range occ {
		w := uint64(o.weight)
		for p := g.t.Nodes[o.node].Parent; p != 0; p = g.t.Nodes[p].Parent {
			condCount[g.t.Nodes[p].Item] += w
		}
	}
	for rk := int(bound) - 1; rk >= 0; rk-- {
		if condCount[rk] < g.minSup {
			continue
		}
		prefix = append(prefix, g.t.ItemName[rk])
		if err := g.emit(prefix, condCount[rk]); err != nil {
			return err
		}
		// New pattern base: ancestors of item rk, weights merged when
		// several occurrences share an ancestor.
		merged := make(map[uint32]uint32)
		for _, o := range occ {
			for p := g.t.Nodes[o.node].Parent; p != 0; p = g.t.Nodes[p].Parent {
				if g.t.Nodes[p].Item == uint32(rk) {
					merged[p] += o.weight
					break // ancestors above carry smaller items only once
				}
			}
		}
		next := make([]occurrence, 0, len(merged))
		for nd, w := range merged {
			next = append(next, occurrence{node: nd, weight: w})
		}
		bytes := int64(len(next)) * OccEntrySize
		g.ctl.Alloc(bytes)
		err := g.mine(prefix, uint32(rk), next)
		g.ctl.Free(bytes)
		if err != nil {
			return err
		}
		prefix = prefix[:len(prefix)-1]
	}
	return nil
}
