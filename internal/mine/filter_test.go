package mine

import (
	"math/rand"
	"reflect"
	"testing"

	"cfpgrowth/internal/dataset"
)

func TestFilterClosed(t *testing.T) {
	// {1} sup 4, {1,2} sup 4 (equal: {1} not closed), {2} sup 5.
	sets := []Itemset{
		{Items: []uint32{1}, Support: 4},
		{Items: []uint32{2}, Support: 5},
		{Items: []uint32{1, 2}, Support: 4},
	}
	got := FilterClosed(sets)
	Canonicalize(got)
	want := []Itemset{
		{Items: []uint32{2}, Support: 5},
		{Items: []uint32{1, 2}, Support: 4},
	}
	Canonicalize(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FilterClosed = %v, want %v", got, want)
	}
}

func TestFilterMaximal(t *testing.T) {
	sets := []Itemset{
		{Items: []uint32{1}, Support: 4},
		{Items: []uint32{2}, Support: 5},
		{Items: []uint32{3}, Support: 2},
		{Items: []uint32{1, 2}, Support: 3},
	}
	got := FilterMaximal(sets)
	Canonicalize(got)
	want := []Itemset{
		{Items: []uint32{3}, Support: 2},
		{Items: []uint32{1, 2}, Support: 3},
	}
	Canonicalize(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FilterMaximal = %v, want %v", got, want)
	}
}

// TestFilterDefinitionsOnRandomData checks both filters against their
// definitions by exhaustive pairwise comparison.
func TestFilterDefinitionsOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		db := make(dataset.Slice, 30)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(6))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(7))
			}
			db[i] = tx
		}
		all, err := Run(BruteForce{}, db, 2)
		if err != nil {
			t.Fatal(err)
		}
		isSubset := func(a, b []uint32) bool {
			if len(a) >= len(b) {
				return false
			}
			m := map[uint32]bool{}
			for _, v := range b {
				m[v] = true
			}
			for _, v := range a {
				if !m[v] {
					return false
				}
			}
			return true
		}
		closed := FilterClosed(all)
		inClosed := map[string]bool{}
		for _, s := range closed {
			inClosed[ikey(s.Items)] = true
		}
		for _, s := range all {
			wantClosed := true
			for _, t2 := range all {
				if isSubset(s.Items, t2.Items) && t2.Support == s.Support {
					wantClosed = false
					break
				}
			}
			if inClosed[ikey(s.Items)] != wantClosed {
				t.Fatalf("trial %d: closed(%v) = %v, want %v", trial, s.Items, inClosed[ikey(s.Items)], wantClosed)
			}
		}
		maximal := FilterMaximal(all)
		inMax := map[string]bool{}
		for _, s := range maximal {
			inMax[ikey(s.Items)] = true
		}
		for _, s := range all {
			wantMax := true
			for _, t2 := range all {
				if isSubset(s.Items, t2.Items) {
					wantMax = false
					break
				}
			}
			if inMax[ikey(s.Items)] != wantMax {
				t.Fatalf("trial %d: maximal(%v) = %v, want %v", trial, s.Items, inMax[ikey(s.Items)], wantMax)
			}
		}
		// Maximal ⊆ closed ⊆ all.
		if len(maximal) > len(closed) || len(closed) > len(all) {
			t.Fatalf("trial %d: |maximal|=%d |closed|=%d |all|=%d", trial, len(maximal), len(closed), len(all))
		}
	}
}

func TestTopKSink(t *testing.T) {
	s := &TopKSink{K: 3}
	_ = s.Emit([]uint32{1}, 10)
	_ = s.Emit([]uint32{2}, 5)
	_ = s.Emit([]uint32{3}, 20)
	_ = s.Emit([]uint32{4}, 1)
	_ = s.Emit([]uint32{5}, 15)
	got := s.Result()
	if len(got) != 3 {
		t.Fatalf("kept %d, want 3", len(got))
	}
	if got[0].Support != 20 || got[1].Support != 15 || got[2].Support != 10 {
		t.Errorf("top-3 supports = %d,%d,%d", got[0].Support, got[1].Support, got[2].Support)
	}
}

func TestTopKSinkMinLen(t *testing.T) {
	s := &TopKSink{K: 2, MinLen: 2}
	_ = s.Emit([]uint32{1}, 100)
	_ = s.Emit([]uint32{1, 2}, 5)
	got := s.Result()
	if len(got) != 1 || len(got[0].Items) != 2 {
		t.Errorf("MinLen not honored: %v", got)
	}
}

func TestTopKSinkCopies(t *testing.T) {
	s := &TopKSink{K: 1}
	buf := []uint32{7}
	_ = s.Emit(buf, 3)
	buf[0] = 9
	if s.Result()[0].Items[0] != 7 {
		t.Error("TopKSink retained caller's buffer")
	}
}

func TestSyncSink(t *testing.T) {
	inner := &CountSink{}
	s := &SyncSink{Inner: inner}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				_ = s.Emit([]uint32{1}, 1)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if inner.N != 800 {
		t.Errorf("N = %d, want 800", inner.N)
	}
}
