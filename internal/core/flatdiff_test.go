package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
)

// funcSink adapts a function to mine.Sink.
type funcSink func(items []uint32, support uint64) error

func (f funcSink) Emit(items []uint32, support uint64) error { return f(items, support) }

// The three mining paths that must agree itemset-for-itemset: the
// legacy byte-at-a-time traversal (the differential-testing reference,
// per Config.DisableFlatDecode), the flat-decode serial miner, and the
// sharded parallel miner on top of the flat decode.
func minerPaths(workers int) []struct {
	name string
	mk   func() mine.Miner
} {
	return []struct {
		name string
		mk   func() mine.Miner
	}{
		{"serial-legacy", func() mine.Miner {
			return Growth{Config: Config{DisableFlatDecode: true}}
		}},
		{"serial-flat", func() mine.Miner {
			return Growth{}
		}},
		{"sharded-parallel", func() mine.Miner {
			return Growth{Workers: workers, Shards: 2 * workers}
		}},
		{"sharded-parallel-legacy", func() mine.Miner {
			return Growth{
				Config:  Config{DisableFlatDecode: true},
				Workers: workers,
				Shards:  2 * workers,
			}
		}},
	}
}

// questFixtures are laptop-scale Quest workloads: the plain generator
// configuration plus deliberately hostile variants — near-total
// pattern corruption (long sparse noise paths), and heavy correlation
// with long patterns (deep shared prefixes that stress the chain and
// embed machinery the decoder flattens).
func questFixtures() []struct {
	name string
	db   dataset.Slice
} {
	return []struct {
		name string
		db   dataset.Slice
	}{
		{"quest-small", quest.Generate(quest.Config{
			NumTx: 1200, AvgTxLen: 10, NumItems: 250, Seed: 7,
		})},
		{"quest-corrupted", quest.Generate(quest.Config{
			NumTx: 1000, AvgTxLen: 8, NumItems: 150,
			CorruptionMean: 0.95, Seed: 11,
		})},
		{"quest-correlated-deep", quest.Generate(quest.Config{
			NumTx: 800, AvgTxLen: 12, NumItems: 120,
			AvgPatternLen: 9, Correlation: 0.9, Seed: 13,
		})},
	}
}

// TestFlatDecodeDifferential requires the legacy, flat-decode, and
// sharded parallel miners to emit exactly the same itemsets with the
// same supports on every fixture, across support thresholds that span
// dense and sparse result sets.
func TestFlatDecodeDifferential(t *testing.T) {
	for _, fx := range questFixtures() {
		minSups := []uint64{5, 24}
		if !testing.Short() {
			// The deep-recursion regime: dense result sets that reach
			// every branch of the conditional machinery.
			minSups = append(minSups, 2)
		}
		for _, minSup := range minSups {
			var want []mine.Itemset
			for i, p := range minerPaths(4) {
				got, err := mine.Run(p.mk(), fx.db, minSup)
				if err != nil {
					t.Fatalf("%s minSup %d %s: %v", fx.name, minSup, p.name, err)
				}
				if i == 0 {
					want = got
					if len(want) == 0 {
						t.Fatalf("%s minSup %d: reference found nothing; fixture too weak", fx.name, minSup)
					}
					continue
				}
				if d := mine.Diff(p.name, got, "serial-legacy", want); d != "" {
					t.Fatalf("%s minSup %d:\n%s", fx.name, minSup, d)
				}
			}
		}
	}
}

// TestFlatDecodeDifferentialMaxLen repeats the agreement check under
// cardinality pruning, which exercises the early-return edges of the
// conditional recursion.
func TestFlatDecodeDifferentialMaxLen(t *testing.T) {
	db := questFixtures()[0].db
	for _, maxLen := range []int{1, 2, 3} {
		want, err := mine.Run(Growth{Config: Config{DisableFlatDecode: true}, MaxLen: maxLen}, db, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []func() ([]mine.Itemset, error){
			func() ([]mine.Itemset, error) { return mine.Run(Growth{MaxLen: maxLen}, db, 4) },
			func() ([]mine.Itemset, error) {
				return mine.Run(Growth{Workers: 3, MaxLen: maxLen}, db, 4)
			},
		} {
			sets, err := got()
			if err != nil {
				t.Fatal(err)
			}
			if d := mine.Diff("variant", sets, "serial-legacy", want); d != "" {
				t.Fatalf("maxLen %d:\n%s", maxLen, d)
			}
		}
	}
}

// TestFlatDecodeMaxItemsets checks the MaxItemsets budget on every
// path: the run stops with ErrBudgetExceeded, and the inner sink never
// sees an itemset past the limit — even with several workers in
// flight, since the check-then-emit pair is atomic under the parallel
// miner's sink mutex.
func TestFlatDecodeMaxItemsets(t *testing.T) {
	db := questFixtures()[0].db
	for _, p := range minerPaths(4) {
		for _, max := range []uint64{1, 10, 100} {
			ctl := &mine.Control{}
			var inner mine.CountSink
			sink := &mine.ControlSink{Inner: &mine.SyncSink{Inner: &inner}, Ctl: ctl, Max: max}
			var m mine.Miner
			switch g := p.mk().(type) {
			case Growth:
				g.Ctl = ctl
				m = g
			}
			err := m.Mine(db, 2, sink)
			if !errors.Is(err, mine.ErrBudgetExceeded) {
				t.Fatalf("%s max %d: err = %v, want ErrBudgetExceeded", p.name, max, err)
			}
			if inner.N > max {
				t.Errorf("%s max %d: inner sink saw %d itemsets", p.name, max, inner.N)
			}
		}
	}
}

// TestFlatDecodeCancellationMidMine stops the run from inside the sink
// after a handful of emissions and requires every path to return the
// stop cause with no emissions after the stop.
func TestFlatDecodeCancellationMidMine(t *testing.T) {
	db := questFixtures()[0].db
	cause := fmt.Errorf("flatdiff: induced mid-mine stop")
	for _, p := range minerPaths(4) {
		ctl := &mine.Control{}
		var seen, after atomic.Uint64
		sink := funcSink(func(items []uint32, support uint64) error {
			if ctl.Err() != nil {
				after.Add(1)
				return ctl.Err()
			}
			if seen.Add(1) == 5 {
				ctl.Stop(cause)
			}
			return nil
		})
		var m mine.Miner
		switch g := p.mk().(type) {
		case Growth:
			g.Ctl = ctl
			m = g
		}
		err := m.Mine(db, 2, sink)
		if !errors.Is(err, cause) {
			t.Fatalf("%s: err = %v, want the induced stop cause", p.name, err)
		}
		if after.Load() != 0 {
			t.Errorf("%s: %d emissions reached the sink after the stop", p.name, after.Load())
		}
	}
}

// TestSupportOfAgreesWithMinedSupports cross-checks the SupportOf
// point query (with its batch-decoded run scan and length guard)
// against every itemset the miner emits, plus guard edge cases.
func TestSupportOfAgreesWithMinedSupports(t *testing.T) {
	db := questFixtures()[1].db
	arr := buildArrayFor(t, db)
	sets, err := mine.Run(Growth{}, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	rank := rankIndex(arr)
	checked := 0
	for _, s := range sets {
		ranks := make([]uint32, len(s.Items))
		for i, it := range s.Items {
			ranks[i] = rank[it]
		}
		sortRanks(ranks)
		if got := arr.SupportOf(ranks); got != s.Support {
			t.Fatalf("SupportOf(%v) = %d, mined support %d", s.Items, got, s.Support)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no itemsets to cross-check")
	}
	// Length guard: more members than last+1 can never be covered.
	if got := arr.SupportOf([]uint32{0, 1, 2, 2}); got != 0 {
		// ranks[3]=2 < len-1=3: guard must reject without scanning.
		t.Errorf("length guard missed: got %d", got)
	}
	if got := arr.SupportOf(nil); got != 0 {
		t.Errorf("SupportOf(nil) = %d", got)
	}
	if got := arr.SupportOf([]uint32{uint32(arr.NumItems())}); got != 0 {
		t.Errorf("out-of-range rank: got %d", got)
	}
}

// buildArrayFor builds db's CFP-array at minimum support 4, matching
// the mining threshold the cross-check runs at.
func buildArrayFor(t *testing.T, db dataset.Slice) *Array {
	t.Helper()
	tree, _, err := Build(db, 4, Config{}, nil, mine.NullTracker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Convert(tree)
}

func rankIndex(a *Array) map[uint32]uint32 {
	m := make(map[uint32]uint32, a.NumItems())
	for rk := 0; rk < a.NumItems(); rk++ {
		m[a.ItemName(uint32(rk))] = uint32(rk)
	}
	return m
}

func sortRanks(r []uint32) {
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j] < r[j-1]; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}
