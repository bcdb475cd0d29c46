// Package dataset provides transaction databases in the standard FIMI
// text format (one transaction per line, space-separated item
// identifiers), the two-pass access pattern required by prefix-tree
// miners, asynchronous double-buffered file input (§4.1), and the
// frequency recoding of items used when building FP-trees.
package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Item is an item identifier as it appears in the input data.
type Item = uint32

// Source is a transaction database that can be scanned multiple times.
// FP-growth-style algorithms perform exactly two scans: one to count
// item supports and one to build the prefix tree.
type Source interface {
	// Scan invokes fn once per transaction, in database order. The
	// slice passed to fn is only valid for the duration of the call.
	Scan(fn func(tx []Item) error) error
}

// Slice is an in-memory Source.
type Slice [][]Item

// Scan implements Source.
func (s Slice) Scan(fn func(tx []Item) error) error {
	for _, tx := range s {
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// Counts holds the result of the first database pass.
type Counts struct {
	Support map[Item]uint64 // item -> number of transactions containing it
	NumTx   uint64          // total number of transactions
}

// ModelBytes returns the modeled footprint of the first-pass count
// table: one (item, count) entry of 12 bytes — a 4-byte identifier and
// an 8-byte count — per distinct item, the same C-layout modeling used
// for the CFP structures (the convention of mine.Control.Alloc).
func (c Counts) ModelBytes() int64 { return int64(len(c.Support)) * 12 }

// CountItems performs the first pass over the database: it counts, for
// each distinct item, the number of transactions that contain it.
// Duplicate occurrences of an item within one transaction are counted
// once, matching the set semantics of the mining problem.
func CountItems(src Source) (Counts, error) {
	var c Counter
	err := src.Scan(func(tx []Item) error {
		c.Add(tx)
		return nil
	})
	if err != nil {
		return Counts{}, err
	}
	return c.Counts(), nil
}

// denseLimit bounds the item identifiers that Counter and Recoder index
// directly in a table; larger identifiers go through a map. Real item
// universes are small and numbered from zero, so the tables stay as
// short as the largest identifier seen.
const denseLimit = 1 << 20

// Counter is the first-pass counting kernel with set semantics: it
// counts, for each distinct item, the transactions added that contain
// it, counting repeats within one transaction once. Identifiers below
// denseLimit are counted in a table and deduplicated with a per-item
// stamp of the last transaction that counted them; larger ones fall
// back to a map. The zero value is ready to use.
type Counter struct {
	numTx    uint64
	dense    []uint64 // support by identifier, below denseLimit
	stamp    []uint32 // transaction stamp that last counted each dense identifier
	sparse   map[Item]sparseCount
	cur      uint32 // stamp of the current transaction; 0 is never current
	distinct []Item
}

type sparseCount struct {
	n     uint64
	stamp uint32
}

// Add counts one transaction and returns its distinct items in order
// of first occurrence. The result is valid until the next Add.
func (c *Counter) Add(tx []Item) []Item {
	c.numTx++
	if c.cur++; c.cur == 0 {
		c.resetStamps()
	}
	out := c.distinct[:0]
	for _, it := range tx {
		if it < denseLimit {
			if it >= Item(len(c.dense)) {
				c.grow(it)
			}
			if c.stamp[it] == c.cur {
				continue
			}
			c.stamp[it] = c.cur
			c.dense[it]++
		} else {
			e := c.sparse[it]
			if e.stamp == c.cur {
				continue
			}
			if c.sparse == nil {
				c.sparse = make(map[Item]sparseCount)
			}
			c.sparse[it] = sparseCount{n: e.n + 1, stamp: c.cur}
		}
		out = append(out, it)
	}
	c.distinct = out
	return out
}

// grow extends the dense tables to cover it, at least doubling them.
func (c *Counter) grow(it Item) {
	n := min(max(int(it)+1, 2*len(c.dense), 1024), denseLimit)
	c.dense = append(c.dense, make([]uint64, n-len(c.dense))...)
	c.stamp = append(c.stamp, make([]uint32, n-len(c.stamp))...)
}

// resetStamps restarts the stamps when the transaction stamp wraps, so
// no stale stamp can equal a current one.
func (c *Counter) resetStamps() {
	clear(c.stamp)
	for it, e := range c.sparse {
		c.sparse[it] = sparseCount{n: e.n}
	}
	c.cur = 1
}

// NumTx returns the number of transactions added.
func (c *Counter) NumTx() uint64 { return c.numTx }

// Counts returns the supports counted so far.
func (c *Counter) Counts() Counts {
	n := len(c.sparse)
	for _, s := range c.dense {
		if s > 0 {
			n++
		}
	}
	sup := make(map[Item]uint64, n)
	for it, s := range c.dense {
		if s > 0 {
			sup[Item(it)] = s
		}
	}
	for it, e := range c.sparse {
		sup[it] = e.n
	}
	return Counts{Support: sup, NumTx: c.numTx}
}

// Recoder maps original item identifiers to dense ranks in descending
// order of support (rank 0 = most frequent item), drops infrequent
// items, and sorts transactions into FP-tree insertion order. All
// prefix-tree miners in this repository operate on ranks; results are
// translated back with Decode.
type Recoder struct {
	dense   []uint32        // rank+1 by identifier below denseLimit; 0 = infrequent
	rank    map[Item]uint32 // ranks of frequent identifiers from denseLimit up
	orig    []Item
	support []uint64
	numTx   uint64
	minSup  uint64
}

// NewRecoder builds a Recoder from first-pass counts and the minimum
// support threshold ξ (absolute count). Items with support < minSupport
// are infrequent and dropped. Ties in support break by ascending
// original identifier so the recoding is deterministic.
func NewRecoder(c Counts, minSupport uint64) *Recoder {
	if minSupport == 0 {
		minSupport = 1
	}
	type entry struct {
		it  Item
		sup uint64
	}
	var freq []entry
	denseLen := 0
	for it, sup := range c.Support {
		if sup >= minSupport {
			freq = append(freq, entry{it, sup})
			if it < denseLimit {
				denseLen = max(denseLen, int(it)+1)
			}
		}
	}
	slices.SortFunc(freq, func(a, b entry) int {
		if a.sup != b.sup {
			return cmp.Compare(b.sup, a.sup)
		}
		return cmp.Compare(a.it, b.it)
	})
	r := &Recoder{
		dense:   make([]uint32, denseLen),
		orig:    make([]Item, len(freq)),
		support: make([]uint64, len(freq)),
		numTx:   c.NumTx,
		minSup:  minSupport,
	}
	for rk, e := range freq {
		r.orig[rk], r.support[rk] = e.it, e.sup
		if e.it < denseLimit {
			r.dense[e.it] = uint32(rk) + 1
			continue
		}
		if r.rank == nil {
			r.rank = make(map[Item]uint32)
		}
		r.rank[e.it] = uint32(rk)
	}
	return r
}

// NumFrequent returns the number of frequent items.
func (r *Recoder) NumFrequent() int { return len(r.orig) }

// NumTx returns the number of transactions counted in the first pass.
func (r *Recoder) NumTx() uint64 { return r.numTx }

// MinSupport returns the absolute minimum support threshold.
func (r *Recoder) MinSupport() uint64 { return r.minSup }

// Support returns the support of the item with the given rank.
func (r *Recoder) Support(rank uint32) uint64 { return r.support[rank] }

// Frequent returns the frequent items' original identifiers and
// supports, indexed by rank: the item metadata a prefix tree over the
// rank space is built with. Both slices are fresh copies.
func (r *Recoder) Frequent() (names []Item, sups []uint64) {
	return slices.Clone(r.orig), slices.Clone(r.support)
}

// Decode maps a rank back to the original item identifier.
func (r *Recoder) Decode(rank uint32) Item { return r.orig[rank] }

// DecodeSet maps a rank itemset back to original identifiers, sorted
// ascending.
func (r *Recoder) DecodeSet(ranks []uint32) []Item {
	out := make([]Item, len(ranks))
	for i, rk := range ranks {
		out[i] = r.orig[rk]
	}
	slices.Sort(out)
	return out
}

// Encode filters tx down to its frequent items, maps them to ranks,
// removes duplicates, and sorts ascending by rank (descending support),
// which is FP-tree insertion order. The result is appended to buf and
// returned, so callers can reuse a scratch buffer across transactions.
func (r *Recoder) Encode(tx []Item, buf []uint32) []uint32 {
	out := buf[:0]
	for _, it := range tx {
		if it < Item(len(r.dense)) {
			if rk := r.dense[it]; rk != 0 {
				out = append(out, rk-1)
			}
		} else if rk, ok := r.rank[it]; ok {
			out = append(out, rk)
		}
	}
	slices.Sort(out)
	// Deduplicate in place (set semantics).
	return slices.Compact(out)
}

// AbsoluteSupport converts a relative minimum support (fraction of
// transactions, e.g. 0.01 for 1%) into an absolute count, rounding up
// and clamping to at least 1.
func AbsoluteSupport(rel float64, numTx uint64) uint64 {
	if rel <= 0 {
		return 1
	}
	s := uint64(rel * float64(numTx))
	if float64(s) < rel*float64(numTx) {
		s++
	}
	if s == 0 {
		s = 1
	}
	return s
}

// Validate checks structural invariants of an in-memory database and is
// used by tests and tools: no zero-length allocation anomalies, items
// fit in 32 bits (guaranteed by the type), and reports basic shape.
func Validate(db Slice) (numTx int, distinct int, avgLen float64, err error) {
	items := make(map[Item]struct{})
	total := 0
	for i, tx := range db {
		if tx == nil {
			return 0, 0, 0, fmt.Errorf("dataset: transaction %d is nil", i)
		}
		total += len(tx)
		for _, it := range tx {
			items[it] = struct{}{}
		}
	}
	if len(db) == 0 {
		return 0, 0, 0, errors.New("dataset: empty database")
	}
	return len(db), len(items), float64(total) / float64(len(db)), nil
}
