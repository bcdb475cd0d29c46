package eclat

import (
	"sort"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// ClosedMiner mines the closed frequent itemsets directly, in the style
// of LCM (Uno et al.): a depth-first search over closures with
// prefix-preserving closure extension (ppc-extension), which guarantees
// every closed itemset is generated exactly once without storing
// previously found sets. This is the algorithmic core that made LCM the
// FIMI'04 winner and is the natural companion to the tidlist miner in
// this package.
type ClosedMiner struct {
	// Ctl, when non-nil, is polled during the vertical build and at
	// every closure expansion, so a stopped run emits nothing further
	// and aborts with its cause. It is also the run's byte ledger,
	// charged the tidlists.
	Ctl *mine.Control
}

// Name implements mine.Miner.
func (ClosedMiner) Name() string { return "eclat-closed" }

// Mine implements mine.Miner: it emits exactly the closed frequent
// itemsets (each itemset's support is its exact support; non-closed
// itemsets are not emitted).
func (m ClosedMiner) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
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
	tids := make([][]uint32, n)
	for rk := 0; rk < n; rk++ {
		tids[rk] = make([]uint32, 0, rec.Support(uint32(rk)))
	}
	var numTx uint32
	var buf []uint32
	err = src.Scan(func(tx []dataset.Item) error {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		buf = rec.Encode(tx, buf[:0])
		for _, rk := range buf {
			tids[rk] = append(tids[rk], numTx)
		}
		numTx++
		return nil
	})
	if err != nil {
		return err
	}
	var vert int64
	for _, l := range tids {
		vert += int64(len(l)) * 4
	}
	m.Ctl.Alloc(vert)
	defer m.Ctl.Free(vert)

	c := &closedMiner{
		minSup: minSupport,
		sink:   sink,
		ctl:    m.Ctl,
		rec:    rec,
		tids:   tids,
		n:      n,
	}
	// Root: the closure of the empty set is the set of items contained
	// in every transaction; handled uniformly by treating the full
	// transaction-id range as the root tidset with core item -1.
	all := make([]uint32, numTx)
	for i := range all {
		all[i] = uint32(i)
	}
	return c.expand(all, nil, -1)
}

type closedMiner struct {
	minSup uint64
	sink   mine.Sink
	ctl    *mine.Control // nil = never canceled
	rec    *dataset.Recoder
	tids   [][]uint32
	n      int
}

// closure returns the items (ranks) contained in every transaction of
// tidset T, i.e. those whose tidlist is a superset of T.
func (c *closedMiner) closure(T []uint32) []uint32 {
	var out []uint32
	for rk := 0; rk < c.n; rk++ {
		if len(c.tids[rk]) < len(T) {
			continue
		}
		if containsAll(c.tids[rk], T) {
			out = append(out, uint32(rk))
		}
	}
	return out
}

// containsAll reports whether sorted superset contains every element of
// sorted sub.
func containsAll(superset, sub []uint32) bool {
	i := 0
	for _, v := range sub {
		for i < len(superset) && superset[i] < v {
			i++
		}
		if i == len(superset) || superset[i] != v {
			return false
		}
		i++
	}
	return true
}

// expand processes the closed set determined by tidset T reached by
// adding core item `core` (-1 at the root). prevClosure is the parent's
// closure, used only for documentation of the recursion; correctness
// rests on the ppc check below.
func (c *closedMiner) expand(T []uint32, prevClosure []uint32, core int) error {
	if err := c.ctl.Err(); err != nil {
		return err
	}
	clo := c.closure(T)
	// ppc-extension check: if the closure gained an item smaller than
	// the core item, this closed set is generated (with a smaller
	// core) elsewhere in the search tree — skip to avoid duplicates.
	for _, rk := range clo {
		if int(rk) < core && !contains(prevClosure, rk) {
			return nil
		}
	}
	if len(clo) > 0 && uint64(len(T)) >= c.minSup {
		items := c.rec.DecodeSet(clo)
		if err := c.sink.Emit(items, uint64(len(T))); err != nil {
			return err
		}
	}
	// Extensions: items beyond the core that are not already implied.
	for rk := core + 1; rk < c.n; rk++ {
		if contains(clo, uint32(rk)) {
			continue
		}
		T2 := intersect(T, c.tids[rk])
		if uint64(len(T2)) < c.minSup {
			continue
		}
		c.ctl.Alloc(int64(len(T2)) * 4)
		err := c.expand(T2, clo, rk)
		c.ctl.Free(int64(len(T2)) * 4)
		if err != nil {
			return err
		}
	}
	return nil
}

func contains(sorted []uint32, v uint32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	return i < len(sorted) && sorted[i] == v
}
