// Package nonordfp implements an FP-growth variant in the style of
// nonordfp (Rácz, FIMI'04), the algorithm whose core data structure
// inspired the CFP-array (§5): after the build phase, the FP-tree's
// count and parent fields are stored in two parallel arrays with nodes
// clustered by item, making nodelinks unnecessary. Unlike the
// CFP-array, the arrays are uncompressed fixed-width fields, and —
// matching the paper's observation that "nonordfp does not reduce
// memory in the build phase" — the build phase uses a full
// pointer-based FP-tree.
package nonordfp

import (
	"sort"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

// Miner is the nonordfp-style miner.
type Miner struct {
	// Ctl, when non-nil, is polled at every emission, so a stopped run
	// (cancellation, deadline, budget, failing sink) emits nothing
	// further and aborts with its cause. It is also the run's byte
	// ledger: BaselineNodeSize per node while a build tree is alive,
	// EntrySize per node per array.
	Ctl *mine.Control
}

// EntrySize is the modeled per-node size of the mine-phase arrays: a
// 4-byte count and a 4-byte parent position.
const EntrySize = 8

// Name implements mine.Miner.
func (Miner) Name() string { return "nonordfp" }

// table is the mine-phase representation: parallel arrays clustered by
// item.
type table struct {
	counts  []uint32
	parents []uint32 // global node position; ^uint32(0) for the root
	starts  []uint32 // len numItems+1: item i occupies [starts[i], starts[i+1])
	support []uint64 // per item
	names   []uint32 // item rank -> external identifier
}

const noParent = ^uint32(0)

func (t *table) bytes() int64 { return int64(len(t.counts)) * EntrySize }

// itemOf returns the item rank of the node at global position pos: the
// largest i with starts[i] <= pos. Hand-rolled binary search — this
// sits on the hot path of every parent walk (the cost nonordfp pays for
// dropping the per-node item field).
func (t *table) itemOf(pos uint32) uint32 {
	lo, hi := 0, len(t.starts)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if t.starts[mid] <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return uint32(lo)
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
	g := &grower{minSup: minSupport, sink: sink, ctl: m.Ctl}
	return g.mineTree(tree, nil)
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

// mineTree flattens a build tree into the array table and recurses.
// The build tree is modeled at the 40-byte baseline node size — the
// defining memory weakness of this algorithm family.
func (g *grower) mineTree(t *fptree.Tree, prefix []uint32) error {
	buildBytes := t.BaselineBytes()
	g.ctl.Alloc(buildBytes)
	tab := flatten(t)
	g.ctl.Free(buildBytes) // build tree discarded after flattening
	g.ctl.Alloc(tab.bytes())
	err := g.mineTable(tab, prefix)
	g.ctl.Free(tab.bytes())
	return err
}

// flatten converts an FP-tree into item-clustered parallel arrays.
func flatten(t *fptree.Tree) *table {
	numItems := len(t.Heads)
	tab := &table{
		starts:  make([]uint32, numItems+1),
		support: make([]uint64, numItems),
		names:   t.ItemName,
	}
	// Per-item node totals via nodelink chains.
	perItem := make([]uint32, numItems)
	for rk := 0; rk < numItems; rk++ {
		for n := t.Heads[rk]; n != 0; n = t.Nodes[n].Nodelink {
			perItem[rk]++
		}
	}
	var total uint32
	for i := 0; i < numItems; i++ {
		tab.starts[i] = total
		total += perItem[i]
	}
	tab.starts[numItems] = total
	tab.counts = make([]uint32, total)
	tab.parents = make([]uint32, total)
	// Assign positions: per item, nodes in nodelink order; record the
	// mapping so children can reference parent positions.
	pos := make(map[uint32]uint32, total)
	next := make([]uint32, numItems)
	copy(next, tab.starts[:numItems])
	for rk := 0; rk < numItems; rk++ {
		for n := t.Heads[rk]; n != 0; n = t.Nodes[n].Nodelink {
			p := next[rk]
			next[rk]++
			pos[n] = p
			tab.counts[p] = t.Nodes[n].Count
			tab.support[rk] += uint64(t.Nodes[n].Count)
		}
	}
	for rk := 0; rk < numItems; rk++ {
		for n := t.Heads[rk]; n != 0; n = t.Nodes[n].Nodelink {
			par := t.Nodes[n].Parent
			if par == 0 {
				tab.parents[pos[n]] = noParent
			} else {
				tab.parents[pos[n]] = pos[par]
			}
		}
	}
	return tab
}

// mineTable runs the FP-growth recursion over the array form.
func (g *grower) mineTable(tab *table, prefix []uint32) error {
	numItems := len(tab.starts) - 1
	for rk := numItems - 1; rk >= 0; rk-- {
		lo, hi := tab.starts[rk], tab.starts[rk+1]
		if lo == hi {
			continue
		}
		sup := tab.support[rk]
		if sup < g.minSup {
			continue
		}
		prefix = append(prefix, tab.names[rk])
		if err := g.emit(prefix, sup); err != nil {
			return err
		}
		if rk > 0 {
			cond := g.conditional(tab, uint32(rk))
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

// conditional assembles the conditional pattern base of item rk from
// the arrays and rebuilds it as a (small) FP-tree.
func (g *grower) conditional(tab *table, rk uint32) *fptree.Tree {
	lo, hi := tab.starts[rk], tab.starts[rk+1]
	condCount := make([]uint64, rk)
	for p := lo; p < hi; p++ {
		w := uint64(tab.counts[p])
		for q := tab.parents[p]; q != noParent; q = tab.parents[q] {
			condCount[tab.itemOf(q)] += w
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
	cond := fptree.New(tab.names[:rk], condCount)
	var path []uint32
	for p := lo; p < hi; p++ {
		w := tab.counts[p]
		path = path[:0]
		for q := tab.parents[p]; q != noParent; q = tab.parents[q] {
			it := tab.itemOf(q)
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
