package mine

import (
	"container/heap"
	"sync"
)

// FilterClosed returns the closed itemsets: those with no proper
// superset of equal support. Because complete mining results are
// downward closed and support is antitone, it suffices to check
// immediate supersets: for every result T, each (|T|-1)-subset with the
// same support is non-closed. Runs in O(n·k) for n itemsets of size ≤ k.
func FilterClosed(sets []Itemset) []Itemset {
	sup := make(map[string]uint64, len(sets))
	for _, s := range sets {
		sup[ikey(s.Items)] = s.Support
	}
	open := make(map[string]bool)
	sub := make([]uint32, 0, 16)
	for _, t := range sets {
		if len(t.Items) < 2 {
			continue
		}
		for drop := range t.Items {
			sub = sub[:0]
			sub = append(sub, t.Items[:drop]...)
			sub = append(sub, t.Items[drop+1:]...)
			k := ikey(sub)
			if sup[k] == t.Support {
				open[k] = true
			}
		}
	}
	var out []Itemset
	for _, s := range sets {
		if !open[ikey(s.Items)] {
			out = append(out, s)
		}
	}
	return out
}

// FilterMaximal returns the maximal frequent itemsets: those with no
// frequent proper superset. By downward closure, an itemset is
// non-maximal exactly when some immediate superset is in the result.
func FilterMaximal(sets []Itemset) []Itemset {
	nonMax := make(map[string]bool)
	sub := make([]uint32, 0, 16)
	for _, t := range sets {
		if len(t.Items) < 2 {
			continue
		}
		for drop := range t.Items {
			sub = sub[:0]
			sub = append(sub, t.Items[:drop]...)
			sub = append(sub, t.Items[drop+1:]...)
			nonMax[ikey(sub)] = true
		}
	}
	var out []Itemset
	for _, s := range sets {
		if !nonMax[ikey(s.Items)] {
			out = append(out, s)
		}
	}
	return out
}

func ikey(items []uint32) string {
	b := make([]byte, 4*len(items))
	for i, v := range items {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// TopKSink retains the K itemsets of highest support (ties broken
// arbitrarily). MinLen optionally ignores short itemsets, which
// otherwise dominate any top-k by support antitonicity.
type TopKSink struct {
	K      int
	MinLen int
	h      topkHeap
}

// Emit implements Sink.
func (s *TopKSink) Emit(items []uint32, support uint64) error {
	if len(items) < s.MinLen {
		return nil
	}
	if s.K <= 0 {
		return nil
	}
	if len(s.h) < s.K {
		cp := make([]uint32, len(items))
		copy(cp, items)
		heap.Push(&s.h, Itemset{Items: cp, Support: support})
		return nil
	}
	if support > s.h[0].Support {
		cp := make([]uint32, len(items))
		copy(cp, items)
		s.h[0] = Itemset{Items: cp, Support: support}
		heap.Fix(&s.h, 0)
	}
	return nil
}

// Result returns the retained itemsets sorted by descending support.
func (s *TopKSink) Result() []Itemset {
	out := make([]Itemset, len(s.h))
	copy(out, s.h)
	// Simple selection sort by descending support (k is small).
	for i := range out {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Support > out[best].Support {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out
}

type topkHeap []Itemset

func (h topkHeap) Len() int           { return len(h) }
func (h topkHeap) Less(i, j int) bool { return h[i].Support < h[j].Support }
func (h topkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)        { *h = append(*h, x.(Itemset)) }
func (h *topkHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// SyncSink serializes concurrent Emit calls onto an inner sink, for
// parallel miners.
type SyncSink struct {
	mu    sync.Mutex
	Inner Sink
}

// Emit implements Sink.
func (s *SyncSink) Emit(items []uint32, support uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Inner.Emit(items, support)
}
