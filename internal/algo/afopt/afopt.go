// Package afopt implements an FP-growth variant in the style of AFOPT
// (Liu et al., FIMI'03): a prefix tree over items sorted in *ascending*
// frequency order, mined top-down. Placing infrequent items near the
// root keeps conditional databases small at the cost of a larger
// initial tree; with its array-backed nodes the algorithm sits between
// FP-growth and the compressed structures in memory, matching the
// paper's §4.5 observation that AFOPT scales further than LCM and
// nonordfp but goes out-of-core well before CFP-growth.
package afopt

import (
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

// Miner is the AFOPT-style miner.
type Miner struct {
	// Ctl, when non-nil, is polled during the build scan and at every
	// emission of the shared FP-growth recursion, so a stopped run
	// emits nothing further and aborts with its cause. It is also the
	// run's byte ledger, charged NodeBytes per tree node.
	Ctl *mine.Control
}

// NodeBytes is the modeled per-node size: AFOPT's array-based nodes
// need no nodelink or BST pointers (item, count, parent, child, sibling
// at 4 bytes each).
const NodeBytes = 20

// Name implements mine.Miner.
func (Miner) Name() string { return "afopt" }

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
	// Ascending-frequency order: local rank r corresponds to recoder
	// rank n-1-r, so rank 0 is the LEAST frequent item and transactions
	// are inserted least-frequent-first.
	itemName := make([]uint32, n)
	itemCount := make([]uint64, n)
	for r := 0; r < n; r++ {
		orig := uint32(n - 1 - r)
		itemName[r] = rec.Decode(orig)
		itemCount[r] = rec.Support(orig)
	}
	tree := fptree.New(itemName, itemCount)
	var buf, rev []uint32
	err = src.Scan(func(tx []uint32) error {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		buf = rec.Encode(tx, buf[:0])
		rev = rev[:0]
		for i := len(buf) - 1; i >= 0; i-- {
			rev = append(rev, uint32(n-1)-buf[i])
		}
		tree.Insert(rev, 1)
		return nil
	})
	if err != nil {
		return err
	}
	return fptree.MineTree(tree, minSupport, sink, NodeBytes, m.Ctl)
}
