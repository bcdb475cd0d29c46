package core

import (
	"testing"

	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
)

// TestHotPathsDoNotAllocate pins the per-call allocations of the mine
// path's leaf functions, called with warm buffers. Each runs once per
// element, emission or conditional subproblem, so a single allocation
// per call multiplies into millions; SupportOf allocates only its run
// buffer, once per query.
func TestHotPathsDoNotAllocate(t *testing.T) {
	small := buildArrayAt(t, obsDB(300, 8, 30), 5)
	wide := buildArrayAt(t, quest.Generate(quest.Config{NumTx: 1500, AvgTxLen: 10, NumItems: 400, Seed: 17}), 5)
	var ds, dw Decode
	if !ds.From(small) || !dw.From(wide) || ds.layout != layoutSmall || dw.layout != layoutLocal4 {
		t.Fatal("fixtures do not decode to the small and the rank-local layout")
	}
	rk, wrk := uint32(small.NumItems()-1), uint32(wide.NumItems()-1)
	lo, hi := ds.Run(rk)
	wlo, whi := dw.Run(wrk)
	sup, wsup := small.runCounts(rk, nil), wide.runCounts(wrk, nil)
	condCount := make([]uint64, wide.NumItems())
	elems := small.AppendRun(rk, nil)
	e := elems[0]
	var path []uint32
	query := []uint32{0, rk}
	m := &cfpGrower{sink: &mine.CountSink{}}
	prefix := []uint32{9, 3, 7}
	offs, start, cur := []uint32{0, 3, 5, 9}, []int32{0, 4}, []int32{0}
	for _, tc := range []struct {
		name   string
		allocs float64
		fn     func()
	}{
		{"cfpGrower.emit", 0, func() { _ = m.emit(prefix, 1) }},
		{"Array.ScanItem", 0, func() { small.ScanItem(rk, func(Element) bool { return true }) }},
		{"Array.ParentFields", 0, func() { small.ParentFields(e.Rank, e.Local) }},
		{"Array.SupportOf", 1, func() { small.SupportOf(query) }},
		{"Array.PathTo", 0, func() { path = small.PathTo(e, path[:0]) }},
		{"Array.runCounts", 0, func() { sup = small.runCounts(rk, sup) }},
		{"Array.AppendRun", 0, func() { elems = small.AppendRun(rk, elems[:0]) }},
		{"findParent", 0, func() { findParent(offs, start, cur, 0, 5) }},
		{"countSmall", 0, func() { countSmall(ds.walk, sup, lo, hi, condCount) }},
		{"countLocal", 0, func() { countLocal(dw.walk, dw.start, wsup, wlo, whi, condCount) }},
	} {
		tc.fn() // warm the buffers
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.allocs {
			t.Errorf("%s: %v allocations per call, want %v", tc.name, got, tc.allocs)
		}
	}
}
