package core

import (
	"math/rand"
	"slices"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/synth"
)

// TestSupportOfMatchesMining: for every frequent itemset found by
// mining, the point query on the array must return the same support;
// for infrequent/absent combinations it must return the true (possibly
// zero) support.
func TestSupportOfMatchesMining(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 15; trial++ {
		nItems := 4 + rng.Intn(8)
		db := make(dataset.Slice, 30+rng.Intn(60))
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(nItems))
			for j := range tx {
				tx[j] = uint32(rng.Intn(nItems))
			}
			db[i] = tx
		}
		// Build the array over ALL items (minSup 1) so every set is
		// representable.
		counts, _ := dataset.CountItems(db)
		rec := dataset.NewRecoder(counts, 1)
		names, _ := rec.Frequent()
		n := len(names)
		tree := newTestTree(Config{}, n)
		var buf []uint32
		_ = db.Scan(func(tx []uint32) error {
			buf = rec.Encode(tx, buf[:0])
			tree.Insert(buf, 1)
			return nil
		})
		a := Convert(tree)
		// Oracle: brute force over the same database.
		all, err := mine.Run(mine.BruteForce{}, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range all {
			ranks := make([]uint32, len(s.Items))
			for i, orig := range s.Items {
				found := false
				for rk := 0; rk < n; rk++ {
					if names[rk] == orig {
						ranks[i] = uint32(rk)
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("item %d missing from rank space", orig)
				}
			}
			// ranks must be ascending for SupportOf.
			for i := 1; i < len(ranks); i++ {
				for j := i; j > 0 && ranks[j] < ranks[j-1]; j-- {
					ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
				}
			}
			if got := a.SupportOf(ranks); got != s.Support {
				t.Fatalf("trial %d: SupportOf(%v / ranks %v) = %d, want %d",
					trial, s.Items, ranks, got, s.Support)
			}
		}
		// A few random never-co-occurring probes must not crash and
		// must match brute-force zero-or-more semantics.
		if a.SupportOf(nil) != 0 {
			t.Error("SupportOf(nil) != 0")
		}
		if a.SupportOf([]uint32{uint32(n + 5)}) != 0 {
			t.Error("SupportOf(out of range) != 0")
		}
	}
}

// pointQueries is a top-level CFP-array with point queries on it.
type pointQueries struct {
	a       *Array
	queries [][]uint32
}

// newPointQueries builds db's CFP-array at minSup and draws n point
// queries of 2–4 distinct items, each taken from one random
// transaction, so most ask about items that occur together. A draw with
// an item below minSup is drawn again: Index.SupportOf answers it
// without reaching the array. Each query is its ranks in ascending
// order, as Array.SupportOf takes them.
func newPointQueries(tb testing.TB, db dataset.Slice, minSup uint64, n int) *pointQueries {
	tb.Helper()
	tree, _, err := Build(db, minSup, Config{}, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	p := &pointQueries{a: Convert(tree)}
	rankOf := make(map[uint32]uint32, p.a.NumItems())
	for rk := 0; rk < p.a.NumItems(); rk++ {
		rankOf[p.a.ItemName(uint32(rk))] = uint32(rk)
	}
	rng := rand.New(rand.NewSource(1))
draw:
	for len(p.queries) < n {
		tx := db[rng.Intn(len(db))]
		if len(tx) < 2 {
			continue
		}
		q := make([]uint32, 0, 4)
		for _, i := range rng.Perm(len(tx))[:min(2+rng.Intn(3), len(tx))] {
			rk, ok := rankOf[tx[i]]
			if !ok || slices.Contains(q, rk) {
				continue draw
			}
			q = append(q, rk)
		}
		slices.Sort(q)
		p.queries = append(p.queries, q)
	}
	return p
}

// BenchmarkSupportOf is the point query stage: one op answers every
// query of a fixture on its CFP-array. The retail fixture is the
// retail-index workload's input and query mix (synth retail at
// ξ = 0.35%), whose subarrays are laid out so that consecutive elements
// share the top of their paths; the quest fixture is the quest-mine
// workload's input, whose walks share almost nothing.
func BenchmarkSupportOf(b *testing.B) {
	for _, fx := range []struct {
		name string
		load func() (dataset.Slice, uint64)
	}{
		{"retail", func() (dataset.Slice, uint64) {
			p, ok := synth.ByName("retail")
			if !ok {
				b.Fatal("no retail profile")
			}
			db := p.Generate(1)
			return db, dataset.AbsoluteSupport(0.0035, uint64(len(db)))
		}},
		{"quest", questMineSample},
	} {
		b.Run(fx.name, func(b *testing.B) {
			db, minSup := fx.load()
			p := newPointQueries(b, db, minSup, 3000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sum uint64
				for _, q := range p.queries {
					sum += p.a.SupportOf(q)
				}
				supportSum = sum
			}
		})
	}
}

// supportSum keeps BenchmarkSupportOf's answers live.
var supportSum uint64

// supportOfWalk is the point query without the walk memo: every element
// of the last item's subarray walks its ancestors until it has matched
// the rest of the set, overshot one of its items or reached the root.
// It is the reference the memoized Array.SupportOf must agree with.
func supportOfWalk(a *Array, ranks []uint32) uint64 {
	if len(ranks) == 0 || int(ranks[len(ranks)-1]) >= a.NumItems() {
		return 0
	}
	rest := ranks[:len(ranks)-1]
	var sup uint64
	a.ScanItem(ranks[len(ranks)-1], func(e Element) bool {
		need := len(rest) - 1
		rk, local, delta, dpos := e.Rank, e.Local, e.Delta, e.Dpos
		for need >= 0 && int64(rk)-int64(delta) >= 0 {
			rk -= delta
			local = uint64(int64(local) - dpos)
			if rk == rest[need] {
				need--
			} else if rk < rest[need] {
				break
			}
			delta, dpos = a.ParentFields(rk, local)
		}
		if need < 0 {
			sup += e.Count
		}
		return true
	})
	return sup
}

// TestSupportOfMemoExact checks the walk memo of Array.SupportOf
// against the unmemoized walk (supportOfWalk) and against tid-set
// supports, on a tree built to reach the memo's edges: more ranks than
// memo slots, on paths where ranks memoSlots apart share a slot; walks
// far longer than trailLen; and walks that reach one node through
// different items of the query. The walks from one leaf's elements
// climb the same spine nodes, so the memo answers most of the spine
// queries. One-item queries, answered from the item's support, are
// checked too.
func TestSupportOfMemoExact(t *testing.T) {
	const spineLen, leaves = 3 * memoSlots, 40
	n := spineLen + leaves
	var txs [][]uint32
	// A spine of every rank below spineLen, with each leaf rank hung
	// below it at four depths: a walk from a leaf element climbs up to
	// 768 nodes of the spine, three ranks to a memo slot, and the walks
	// from one leaf's elements share the spine's top.
	spine := make([]uint32, spineLen)
	for i := range spine {
		spine[i] = uint32(i)
	}
	for k := 0; k < leaves; k++ {
		for _, depth := range []int{k + 1, 100 + k, 300 + 3*k, spineLen - k} {
			txs = append(txs, append(slices.Clone(spine[:depth]), uint32(spineLen+k)))
		}
	}
	// Below a root child of rank 5, walks from rank last climb to it
	// through rank 20, rank 30 or both. Within one query, the number of
	// items a walk still needs at a node is fixed by the node's rank
	// (every item above it is matched), so for {5, 20, last} the walk
	// through 30 alone still needs 20 and overshoots at 5, and the
	// walks through 20 reach 5 needing only 5 itself.
	last := uint32(n - 1)
	txs = append(txs, []uint32{5, 20, last}, []uint32{5, 30, last}, []uint32{5, 20, 30, last}, []uint32{5, 20, last})
	// Random transactions: a spine prefix, then random ranks above it.
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		tx := slices.Clone(spine[:rng.Intn(spineLen)])
		lo := len(tx)
		for j := rng.Intn(40); j > 0; j-- {
			tx = append(tx, uint32(lo+rng.Intn(n-lo)))
		}
		slices.Sort(tx[lo:])
		txs = append(txs, slices.Compact(tx))
	}
	tree := newTestTree(Config{}, n)
	for _, tx := range txs {
		tree.Insert(tx, 1)
	}
	a := Convert(tree)

	var queries [][]uint32
	for k := 0; k < leaves; k++ {
		leaf := uint32(spineLen + k)
		r := uint32(k)
		queries = append(queries,
			[]uint32{0, leaf}, []uint32{r, leaf}, []uint32{r, r + memoSlots, leaf},
			[]uint32{r, r + memoSlots, r + 2*memoSlots, leaf}, []uint32{r + 2*memoSlots, leaf})
	}
	queries = append(queries, []uint32{5, 20, last}, []uint32{5, 30, last}, []uint32{20, 30, last}, []uint32{5, 20, 30, last})
	for r := 0; r < n; r += 37 {
		queries = append(queries, []uint32{uint32(r)})
	}
	for i := 0; i < 2000; i++ {
		tx := txs[rng.Intn(len(txs))]
		q := make([]uint32, 0, 5)
		for _, j := range rng.Perm(len(tx))[:min(2+rng.Intn(4), len(tx))] {
			q = append(q, tx[j])
		}
		if i%4 == 0 {
			q = append(q, uint32(rng.Intn(n))) // most likely absent together
		}
		slices.Sort(q)
		queries = append(queries, slices.Compact(q))
	}

	for _, q := range queries {
		got, walk, tid := a.SupportOf(q), supportOfWalk(a, q), tidSupport(txs, q)
		if got != walk || got != tid {
			t.Fatalf("SupportOf(%v) = %d, unmemoized walk %d, tid-set support %d", q, got, walk, tid)
		}
	}
}

// tidSupport counts the transactions that hold every rank of q.
func tidSupport(txs [][]uint32, q []uint32) uint64 {
	var sup uint64
	for _, tx := range txs {
		all := true
		for _, r := range q {
			if !slices.Contains(tx, r) {
				all = false
				break
			}
		}
		if all {
			sup++
		}
	}
	return sup
}
