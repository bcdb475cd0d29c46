package cfpgrowth

import (
	"fmt"
	"slices"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/mine"
)

// UpdatableIndex supports incremental mining: transactions are added
// over time and the index can be mined at any moment, at any support.
// This is the CanTree idea (Leung et al.) applied to the CFP-tree:
// items are kept in a *fixed, frequency-independent* order (arrival
// order of first occurrence), so insertions never require
// restructuring, at the cost of a prefix tree that compresses less
// than the frequency-ordered one (deep, rarely shared prefixes no
// longer bubble to the top). Mining converts the current tree to a
// CFP-array on demand; conversions are cached until the next Add.
//
// Not safe for concurrent use.
type UpdatableIndex struct {
	cfg     core.Config
	arena   *arena.Arena
	tree    *core.Tree
	ids     map[Item]uint32 // item -> fixed dense rank
	names   []uint32        // rank -> item
	counts  []uint64        // rank -> support so far
	numTx   uint64
	rankBuf []uint32
	arr     *core.Array // cached conversion; nil when stale
}

// NewUpdatableIndex returns an empty updatable index.
func NewUpdatableIndex(tree TreeConfig) *UpdatableIndex {
	cfg := tree.config()
	u := &UpdatableIndex{
		cfg:   cfg,
		arena: arena.New(),
		ids:   make(map[Item]uint32),
	}
	u.tree = core.NewTree(u.arena, cfg, u.names, u.counts)
	return u
}

// Add ingests one transaction (a set; duplicates ignored).
func (u *UpdatableIndex) Add(tx []Item) {
	u.arr = nil
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
	u.tree.SetItemSpace(u.names, u.counts)
}

// NumTx returns the number of transactions added.
func (u *UpdatableIndex) NumTx() uint64 { return u.numTx }

// NumItems returns the number of distinct items seen.
func (u *UpdatableIndex) NumItems() int { return len(u.names) }

// TreeBytes returns the live compressed-tree footprint.
func (u *UpdatableIndex) TreeBytes() int64 { return u.tree.Bytes() }

// Mine emits every itemset whose support reaches minSupport. The
// support may differ between calls — lower thresholds need no rebuild.
func (u *UpdatableIndex) Mine(minSupport uint64, fn Handler) error {
	if minSupport == 0 {
		minSupport = 1
	}
	if u.numTx == 0 {
		return nil
	}
	if u.arr == nil {
		u.arr = core.Convert(u.tree)
	}
	return core.MineArrayItems(u.arr, u.cfg, minSupport, handlerSink{fn: fn}, nil, 0, core.AllRanks(u.arr), nil, nil)
}

// MineAll materializes the result at minSupport.
func (u *UpdatableIndex) MineAll(minSupport uint64) ([]Itemset, error) {
	var sink mine.CollectSink
	if err := u.Mine(minSupport, func(items []Item, sup uint64) error {
		cp := make([]Item, len(items))
		copy(cp, items)
		sink.Sets = append(sink.Sets, Itemset{Items: cp, Support: sup})
		return nil
	}); err != nil {
		return nil, err
	}
	mine.Canonicalize(sink.Sets)
	return sink.Sets, nil
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
