package core

import (
	"math/rand"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
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
