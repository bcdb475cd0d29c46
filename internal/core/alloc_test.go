package core

import (
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
)

// TestHotPathsDoNotAllocate pins the per-call allocations of the mine
// path's leaf functions, called with warm buffers. Each runs once per
// element, emission or conditional subproblem, so a single allocation
// per call multiplies into millions; SupportOf runs once per point
// query, of which a served index answers millions too. Insert runs once
// per transaction and per conditional path.
func TestHotPathsDoNotAllocate(t *testing.T) {
	small := buildArrayAt(t, obsDB(300, 8, 30), 5)
	wide := buildArrayAt(t, quest.Generate(quest.Config{NumTx: 1500, AvgTxLen: 10, NumItems: 400, Seed: 17}), 5)
	// The wide array decodes to the 3-byte word; the 4-byte one is
	// forced.
	var ds, d3, d4 Decode
	if !ds.From(small) || !d3.From(wide) || !d4.fromLayout(wide, layoutLocal4) || ds.layout != layoutSmall || d3.layout != layoutLocal3 {
		t.Fatal("fixtures do not decode to the small and the 3-byte rank-local layout")
	}
	rk, wrk := uint32(small.NumItems()-1), uint32(wide.NumItems()-1)
	lo, hi := ds.Run(rk)
	wlo, whi := d3.Run(wrk)
	sup, wsup := small.runCounts(rk, nil), wide.runCounts(wrk, nil)
	condCount := make([]uint64, wide.NumItems())
	var e Element
	small.ScanItem(rk, func(x Element) bool { e = x; return false })
	var path []uint32
	// A two-item point query, so SupportOf sweeps the run with its walk
	// memo; the memo is a fixed-size array on the stack, whether or not
	// a walk hits it.
	query := []uint32{0, rk}
	m := &cfpGrower{sink: &mine.CountSink{}}
	prefix := []uint32{9, 3, 7}
	offs, start, cur := &walkSlots{w4: []uint32{0, 3, 5, 9}}, []int32{0, 4}, []int32{0}
	// The path chase's grower, with every rank the count chases reach
	// frequent, and a visitor that takes every path.
	pm := &cfpGrower{minSup: 1}
	visit := func([]uint32, uint64) bool { return false }
	// A single-path tree, and a conditional of three items that the
	// pair chase proves a leaf: 70 chased paths, past one full pair
	// batch, make every pair 70 < 100, so a flush runs in the call.
	pathTree, _, err := Build(dataset.Slice{{1, 2, 3}, {1, 2}, {1}}, 1, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, ok := pathTree.SinglePath()
	if !ok {
		t.Fatal("fixture is not a single path")
	}
	leaf := &cfpGrower{minSup: 100, ctl: &mine.Control{}}
	leafCounts, leafPath := []uint64{100, 100, 100}, []uint32{2, 1, 0}
	chase := func(visit func(path []uint32, c uint64) bool) bool {
		for i := 0; i < batchPaths+6; i++ {
			if visit(leafPath, 1) {
				return true
			}
		}
		return false
	}
	// Inserts that build a chain, extend it below its tail, split it at
	// a divergence and at a transaction's end, and count on a chain's
	// last element, into a tree emptied first.
	chains := newTestTree(Config{}, 8)
	chainTxs := [][]uint32{{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5, 6}, {0, 1, 2, 7}, {0, 1}, {0, 1}}
	for _, tc := range []struct {
		name   string
		allocs float64
		fn     func()
	}{
		{"cfpGrower.emit", 0, func() { _ = m.emit(prefix, 1) }},
		{"Array.ScanItem", 0, func() { small.ScanItem(rk, func(Element) bool { return true }) }},
		{"Array.ParentFields", 0, func() { small.ParentFields(e.Rank, e.Local) }},
		{"Array.SupportOf", 0, func() { small.SupportOf(query) }},
		{"Array.PathTo", 0, func() { path = small.PathTo(e, path[:0]) }},
		{"Array.runCounts", 0, func() { sup = small.runCounts(rk, sup) }},
		{"findParent", 0, func() { findParent(offs, start, cur, 0, 5) }},
		{"countSmall", 0, func() { countSmall(ds.walk, sup, lo, hi, condCount) }},
		{"countLocal3", 0, func() { countLocal3(d3.walk3, d3.start, wsup, wlo, whi, condCount) }},
		{"countLocal", 0, func() { countLocal(d4.walk, d4.start, wsup, wlo, whi, condCount) }},
		{"pathsSmall", 0, func() { pathsSmall(pm, ds.walk, sup, lo, hi, condCount, 0, visit) }},
		{"pathsLocal3", 0, func() { pathsLocal3(pm, d3.walk3, d3.start, wsup, wlo, whi, condCount, 0, visit) }},
		{"pathsLocal", 0, func() { pathsLocal(pm, d4.walk, d4.start, wsup, wlo, whi, condCount, 0, visit) }},
		{"cfpGrower.leafVerdict", 0, func() {
			if leaf.leafVerdict(leafCounts, 200, false, chase) != condLeaf {
				t.Fatal("the pair chase found a frequent pair")
			}
		}},
		{"cfpGrower.minePath", 0, func() { _ = m.minePath(pathTree, single, prefix) }},
		{"Tree.Insert", 0, func() {
			chains.arena.Reset()
			chains.root = slotVal{}
			for _, tx := range chainTxs {
				chains.Insert(tx, 1)
			}
		}},
	} {
		tc.fn() // warm the buffers
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.allocs {
			t.Errorf("%s: %v allocations per call, want %v", tc.name, got, tc.allocs)
		}
	}
}
