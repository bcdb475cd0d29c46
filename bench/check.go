package main

import (
	"fmt"
	"math/bits"

	"cfpgrowth"
	"cfpgrowth/internal/dataset"
)

// op is one checked public call of a repetition: a mining call with the
// size and checksum of its result, or a load whose only check is that
// it succeeded.
type op struct {
	Name     string `json:"name"`
	Itemsets uint64 `json:"itemsets"`
	Sum      uint64 `json:"sum"`
}

// tally folds a result set into its size and an order-independent
// checksum: the sum over itemsets of FNV-1a of the items XOR the
// support. Emission order differs between miners and between parallel
// runs; the sum does not.
type tally struct{ n, sum uint64 }

func (t *tally) add(items []uint32, support uint64) {
	h := uint64(14695981039346656037)
	for _, it := range items {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(it>>s) & 0xff
			h *= 1099511628211
		}
	}
	t.sum += h ^ support
	t.n++
}

func (t *tally) op(name string) op {
	return op{Name: name, Itemsets: t.n, Sum: t.sum}
}

// expected holds the reference answers of one workload's job: the
// checked calls in the order a repetition makes them, and the answers
// of its point queries.
type expected struct {
	ops     []op
	answers []uint64
}

// reference computes the expected answers from the in-memory inputs
// with algorithms that share no code with CFP-growth: FP-growth for
// mining calls and tid-bitset intersection for point queries.
func reference(w *workload, in *input) (expected, error) {
	var e expected
	switch w.kind {
	case kindBatch:
		t, err := fpgrowth(in.db, in.spec.MinSup)
		if err != nil {
			return e, err
		}
		e.ops = append(e.ops, t.op("mine"))
		if w.parallel {
			e.ops = append(e.ops, t.op("mine_par2"))
		}
	case kindIndex:
		t, err := fpgrowth(in.db, in.spec.MinSup)
		if err != nil {
			return e, err
		}
		e.ops = []op{{Name: "load"}, t.op("remine")}
		e.answers = bruteSupports(in.db, in.queries, in.spec.MinSup)
	case kindStream:
		for k := 1; k <= streamBatches; k++ {
			n := batchEnd(k, len(in.db))
			t, err := fpgrowth(in.db[:n], dataset.AbsoluteSupport(w.relSup, uint64(n)))
			if err != nil {
				return e, err
			}
			e.ops = append(e.ops, t.op("refresh"))
		}
	}
	return e, nil
}

// batchEnd returns the number of transactions added once batch k of a
// stream of numTx transactions is in.
func batchEnd(k, numTx int) int { return k * numTx / streamBatches }

func fpgrowth(db dataset.Slice, minSup uint64) (tally, error) {
	var t tally
	err := cfpgrowth.Mine(db, cfpgrowth.Options{MinSupport: minSup, Algorithm: "fpgrowth"},
		func(items []uint32, support uint64) error {
			t.add(items, support)
			return nil
		})
	if err != nil {
		return t, fmt.Errorf("fpgrowth reference: %w", err)
	}
	return t, nil
}

// bruteSupports answers every query by intersecting the transaction-id
// bitsets of its items. An index built at base support minSup holds no
// item below it, so a query with such an item has support 0 there.
func bruteSupports(db dataset.Slice, queries dataset.Slice, minSup uint64) []uint64 {
	// Bitsets only for queried items that can reach minSup: one per item
	// of the database would take hundreds of megabytes.
	occ := make(map[uint32]uint64)
	for _, q := range queries {
		for _, it := range q {
			occ[it] = 0
		}
	}
	for _, tx := range db {
		for _, it := range tx {
			if _, ok := occ[it]; ok {
				occ[it]++
			}
		}
	}
	words := (len(db) + 63) / 64
	tids := make(map[uint32][]uint64)
	for it, n := range occ {
		if n >= minSup {
			tids[it] = make([]uint64, words)
		}
	}
	for tid, tx := range db {
		for _, it := range tx {
			if bs, ok := tids[it]; ok {
				bs[tid/64] |= 1 << (tid % 64)
			}
		}
	}
	support := func(bs []uint64) (n uint64) {
		for _, w := range bs {
			n += uint64(bits.OnesCount64(w))
		}
		return n
	}
	for it, bs := range tids {
		if support(bs) < minSup {
			delete(tids, it)
		}
	}
	and := make([]uint64, words)
	out := make([]uint64, len(queries))
	for i, q := range queries {
		ok := true
		for _, it := range q {
			if _, frequent := tids[it]; !frequent {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		copy(and, tids[q[0]])
		for _, it := range q[1:] {
			for j, w := range tids[it] {
				and[j] &= w
			}
		}
		out[i] = support(and)
	}
	return out
}

// check compares one repetition with the reference and returns how
// many ops it attempted and how many failed. A repetition that did not
// finish (err != nil) fails every op it was due to make.
func (e expected) check(r *repResult, err error) (attempted, failed int) {
	attempted = len(e.ops) + len(e.answers)
	if err != nil {
		return attempted, attempted
	}
	for i, want := range e.ops {
		if i >= len(r.Ops) {
			failed++
			continue
		}
		got := r.Ops[i]
		if got.Name != want.Name || got.Itemsets != want.Itemsets || got.Sum != want.Sum {
			failed++
		}
	}
	for i, want := range e.answers {
		if i >= len(r.Answers) || r.Answers[i] != want {
			failed++
		}
	}
	return attempted, failed
}
