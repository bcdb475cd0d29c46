package cfpgrowth

import (
	"fmt"
	"slices"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
)

// UpdatableIndex supports incremental mining: transactions are added
// over time and the index can be mined at any moment, at any support.
// This is the CanTree idea (Leung et al.) applied to the CFP-tree:
// items are kept in a *fixed, frequency-independent* order (arrival
// order of first occurrence), so insertions never require
// restructuring, at the cost of a prefix tree that compresses less
// than the frequency-ordered one (deep, rarely shared prefixes no
// longer bubble to the top). The arrival-order tree is only ever
// ingested into: reads go through an Index snapshot (Snapshot), which
// projects it onto the items frequent at the requested support, in
// frequency order, exactly as BuildIndex would build it. Mine caches
// its snapshot until the next Add.
//
// Not safe for concurrent use. A snapshot is independent of the index
// it came from and, like any Index, safe for concurrent readers.
type UpdatableIndex struct {
	cfg     core.Config
	arena   *arena.Arena
	tree    *core.Tree
	ids     map[Item]uint32 // item -> fixed dense rank
	names   []uint32        // rank -> item
	counts  []uint64        // rank -> support so far
	numTx   uint64
	rankBuf []uint32
	snap    *Index // Mine's cached snapshot; nil when stale
}

// NewUpdatableIndex returns an empty updatable index.
func NewUpdatableIndex(tree TreeConfig) *UpdatableIndex {
	cfg := tree.config()
	u := &UpdatableIndex{
		cfg:   cfg,
		arena: arena.New(),
		ids:   make(map[Item]uint32),
	}
	u.tree = core.NewTree(u.arena, cfg, u.names)
	return u
}

// Add ingests one transaction (a set; duplicates ignored).
func (u *UpdatableIndex) Add(tx []Item) {
	u.snap = nil
	u.numTx++
	u.rankBuf = u.rankBuf[:0]
	for _, it := range tx {
		rk, ok := u.ids[it]
		if !ok {
			rk = uint32(len(u.names))
			u.ids[it] = rk
			u.names = append(u.names, it)
			u.counts = append(u.counts, 0)
			// The tree shares the backing slices; re-point them after
			// growth.
			u.refreshTreeSlices()
		}
		u.rankBuf = append(u.rankBuf, rk)
	}
	slices.Sort(u.rankBuf)
	u.rankBuf = slices.Compact(u.rankBuf)
	for _, rk := range u.rankBuf {
		u.counts[rk]++
	}
	u.tree.Insert(u.rankBuf, 1)
}

// refreshTreeSlices re-links the tree's item metadata after the
// universe grows (append may reallocate the backing arrays).
func (u *UpdatableIndex) refreshTreeSlices() {
	u.tree.SetItemSpace(u.names)
}

// NumTx returns the number of transactions added.
func (u *UpdatableIndex) NumTx() uint64 { return u.numTx }

// NumItems returns the number of distinct items seen.
func (u *UpdatableIndex) NumItems() int { return len(u.names) }

// TreeBytes returns the live compressed-tree footprint.
func (u *UpdatableIndex) TreeBytes() int64 { return u.tree.Bytes() }

// Snapshot returns an Index over the transactions added so far, built
// at base support minSupport (0 means 1). Its bytes equal those of
// BuildIndex over the same transactions at that support with this
// index's TreeConfig, so it answers SupportOf, can be saved with
// SaveIndex, and is unaffected by later Adds.
func (u *UpdatableIndex) Snapshot(minSupport uint64) *Index {
	minSupport = max(minSupport, 1)
	sup := make(map[Item]uint64, len(u.names))
	for rk, it := range u.names {
		sup[it] = u.counts[rk]
	}
	r := dataset.NewRecoder(dataset.Counts{Support: sup, NumTx: u.numTx}, minSupport)
	return newIndex(core.Convert(core.BuildProjected(u.tree, r, u.cfg)), minSupport, u.numTx)
}

// snapshotAt returns the cached snapshot when its base support is at
// most minSupport, and otherwise replaces it with one built at
// minSupport.
func (u *UpdatableIndex) snapshotAt(minSupport uint64) *Index {
	if u.snap == nil || minSupport < u.snap.BaseSupport {
		u.snap = u.Snapshot(minSupport)
	}
	return u.snap
}

// Mine emits every itemset whose support reaches minSupport (0 means
// 1). The support may differ between calls: a snapshot serves every
// support at or above the one it was built at until the next Add, and
// a lower support rebuilds it.
func (u *UpdatableIndex) Mine(minSupport uint64, fn Handler) error {
	minSupport = max(minSupport, 1)
	return u.snapshotAt(minSupport).Mine(minSupport, fn)
}

// MineAll materializes the result at minSupport.
func (u *UpdatableIndex) MineAll(minSupport uint64) ([]Itemset, error) {
	minSupport = max(minSupport, 1)
	return u.snapshotAt(minSupport).MineAll(minSupport)
}

// Support returns the current exact support of a single item.
func (u *UpdatableIndex) Support(it Item) uint64 {
	if rk, ok := u.ids[it]; ok {
		return u.counts[rk]
	}
	return 0
}

// String summarizes the index state.
func (u *UpdatableIndex) String() string {
	return fmt.Sprintf("UpdatableIndex{tx: %d, items: %d, tree: %d B}",
		u.numTx, len(u.names), u.TreeBytes())
}
