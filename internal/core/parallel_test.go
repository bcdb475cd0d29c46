package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		db := make(dataset.Slice, 40+rng.Intn(60))
		nItems := 5 + rng.Intn(12)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(nItems))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(nItems))
			}
			db[i] = tx
		}
		for _, workers := range []int{1, 2, 4} {
			for _, minSup := range []uint64{1, 3} {
				want, err := mine.Run(Growth{}, db, minSup)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mine.Run(Growth{Workers: workers}, db, minSup)
				if err != nil {
					t.Fatal(err)
				}
				if d := mine.Diff("parallel", got, "serial", want); d != "" {
					t.Fatalf("trial %d workers %d minSup %d:\n%s", trial, workers, minSup, d)
				}
			}
		}
	}
}

func TestParallelEmptyDatabase(t *testing.T) {
	var sink mine.CountSink
	if err := (Growth{Workers: 2}).Mine(dataset.Slice{}, 1, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Error("emitted from empty database")
	}
}

func TestParallelSinkErrorPropagates(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}}
	s := &stopSink{}
	err := (Growth{Workers: 2}).Mine(db, 1, &mine.SyncSink{Inner: s})
	if err == nil {
		t.Fatal("sink error not propagated")
	}
}

// failNSink fails on its nth emission (1-based) with a unique error and
// counts any emissions that arrive after the failure. It is mutex-
// guarded so it can be shared by workers without an outer SyncSink.
type failNSink struct {
	n uint64 // fail on this emission

	mu    sync.Mutex
	seen  uint64
	err   error  // the error the sink issued
	after uint64 // emissions after the failure — must stay 0
}

func (s *failNSink) Emit([]uint32, uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		s.after++
		return s.err
	}
	s.seen++
	if s.seen == s.n {
		s.err = fmt.Errorf("failNSink: induced failure at emission %d", s.n)
		return s.err
	}
	return nil
}

// Regression test for the parallel error-propagation bug: workers used
// to keep draining the buffered jobs channel after a sink failure, so
// later itemsets were still emitted and a different worker's error
// could be returned. Now the first error stops every worker and is the
// error Mine returns, with no emissions past the failure.
func TestParallelFirstSinkErrorWinsNoLaterEmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := make(dataset.Slice, 120)
	for i := range db {
		tx := make([]uint32, 2+rng.Intn(10))
		for j := range tx {
			tx[j] = uint32(1 + rng.Intn(20))
		}
		db[i] = tx
	}
	for _, failAt := range []uint64{1, 2, 7, 25} {
		for _, workers := range []int{2, 4, 8} {
			s := &failNSink{n: failAt}
			err := (Growth{Workers: workers}).Mine(db, 2, &mine.SyncSink{Inner: s})
			if err == nil {
				t.Fatalf("failAt=%d workers=%d: sink error not propagated", failAt, workers)
			}
			if !errors.Is(err, s.err) {
				t.Errorf("failAt=%d workers=%d: Mine returned %v, want the sink's own error %v",
					failAt, workers, err, s.err)
			}
			if s.after != 0 {
				t.Errorf("failAt=%d workers=%d: %d emissions after the sink failed",
					failAt, workers, s.after)
			}
		}
	}
}

func TestParallelMemTracking(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}}
	var tr mine.Control
	if err := (Growth{Workers: 3, Ctl: &tr}).Mine(db, 2, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if tr.PeakBytes() <= 0 {
		t.Error("no memory tracked")
	}
	if tr.Bytes() != 0 {
		t.Errorf("tracker imbalance: %d", tr.Bytes())
	}
}

func TestParallelMaxLen(t *testing.T) {
	db := dataset.Slice{{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}}
	var sink mine.CollectSink
	ss := &mine.SyncSink{Inner: &sink}
	if err := (Growth{Workers: 2, MaxLen: 2}).Mine(db, 2, ss); err != nil {
		t.Fatal(err)
	}
	for _, s := range sink.Sets {
		if len(s.Items) > 2 {
			t.Errorf("itemset %v exceeds MaxLen", s.Items)
		}
	}
	// All 1- and 2-itemsets over 4 items: 4 + 6 = 10.
	if len(sink.Sets) != 10 {
		t.Errorf("got %d itemsets, want 10", len(sink.Sets))
	}
}

func TestParallelMoreWorkersThanItems(t *testing.T) {
	db := dataset.Slice{{1}, {1}, {2}, {2}}
	got, err := mine.Run(Growth{Workers: 16}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("got %v", got)
	}
}

func BenchmarkParallelVsSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := make(dataset.Slice, 2000)
	for i := range db {
		tx := make([]uint32, 3+rng.Intn(15))
		for j := range tx {
			tx[j] = uint32(1 + rng.Intn(60))
		}
		db[i] = tx
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := (Growth{}).Mine(db, 30, &mine.CountSink{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink := &mine.SyncSink{Inner: &mine.CountSink{}}
			if err := (Growth{Workers: 4}).Mine(db, 30, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
}
