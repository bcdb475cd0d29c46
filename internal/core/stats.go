package core

import (
	"math"

	"cfpgrowth/internal/encoding"
	"cfpgrowth/internal/obs"
)

// FieldHistogram tallies, for one logical field, how many nodes have
// 0–4 leading zero bytes in the field's 32-bit representation. This is
// the quantity reported in the paper's Tables 1 and 2.
type FieldHistogram [5]uint64

// Total returns the number of tallied values.
func (h *FieldHistogram) Total() uint64 {
	var t uint64
	for _, v := range h {
		t += v
	}
	return t
}

// Percent returns the share (0–100) of values with exactly z leading
// zero bytes.
func (h *FieldHistogram) Percent(z int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(h[z]) / float64(t)
}

// TreeStats summarizes the compression-relevant properties of a
// CFP-tree.
type TreeStats struct {
	// DeltaItem and Pcount are the leading-zero-byte histograms of the
	// two data fields across all logical nodes (Table 2).
	DeltaItem FieldHistogram
	Pcount    FieldHistogram
	// Nodes is the number of logical FP-tree nodes.
	Nodes int
	// Bytes is the live arena footprint.
	Bytes int64
	// AvgNodeSize is Bytes per logical node — the paper's Fig 6(a)
	// metric.
	AvgNodeSize float64
	// StdNodes, ChainNodes, EmbeddedLeaves count the physical
	// representations.
	StdNodes, ChainNodes, EmbeddedLeaves int
}

// Stats computes TreeStats by walking the tree. When a recorder is
// attached (Observe), the walk is charged to the "stats" phase so
// statistics passes are distinguishable from mining time in traces.
func (t *Tree) Stats() TreeStats {
	sp := t.rec.Start(obs.PhaseStats)
	s := TreeStats{
		Nodes: t.NumNodes(),
		Bytes: t.Bytes(),
	}
	s.StdNodes, s.ChainNodes, s.EmbeddedLeaves = t.PhysNodes()
	v := &statsVisitor{s: &s, prev: -1}
	t.Walk(v)
	if s.Nodes > 0 {
		s.AvgNodeSize = float64(s.Bytes) / float64(s.Nodes)
	}
	sp.End()
	return s
}

type statsVisitor struct {
	s     *TreeStats
	stack []int64
	prev  int64
}

func (v *statsVisitor) Enter(rank uint32, pcount uint32) {
	parent := int64(-1)
	if len(v.stack) > 0 {
		parent = v.stack[len(v.stack)-1]
	}
	delta := int64(rank) - parent
	if debugChecks {
		assertf(delta >= 1 && delta <= math.MaxUint32, "core: Δitem %d outside rank space at rank %d", delta, rank)
	}
	v.s.DeltaItem[encoding.ZeroBytes32(uint32(delta))]++
	v.s.Pcount[encoding.ZeroBytes32(pcount)]++
	v.stack = append(v.stack, int64(rank))
}

func (v *statsVisitor) Leave() {
	v.stack = v.stack[:len(v.stack)-1]
}

// ArrayStats summarizes a CFP-array for Fig 6(b).
type ArrayStats struct {
	Nodes       int
	DataBytes   int64
	IndexBytes  int64
	TotalBytes  int64
	AvgNodeSize float64 // data bytes per node, the paper's metric
	// Per-field byte totals show which field dominates (the paper
	// observes Δpos dominating on webdocs/Quest).
	DeltaItemBytes, DposBytes, CountBytes int64
}

// Stats computes ArrayStats by scanning every subarray.
func (a *Array) Stats() ArrayStats {
	s := ArrayStats{
		Nodes:      a.NumNodes(),
		DataBytes:  a.DataBytes(),
		IndexBytes: int64(a.NumItems()) * IndexEntrySize,
	}
	s.TotalBytes = s.DataBytes + s.IndexBytes
	ni := int64(a.NumItems())
	if debugChecks {
		assertf(ni <= math.MaxUint32, "core: item count %d overflows rank space", ni)
	}
	for rk := int64(0); rk < ni; rk++ {
		a.ScanItem(uint32(rk), func(e Element) bool {
			s.DeltaItemBytes += int64(encoding.UvarintLen(uint64(e.Delta)))
			s.DposBytes += int64(encoding.UvarintLen(encoding.Zigzag(e.Dpos)))
			s.CountBytes += int64(encoding.UvarintLen(e.Count))
			return true
		})
	}
	if s.Nodes > 0 {
		s.AvgNodeSize = float64(s.DataBytes) / float64(s.Nodes)
	}
	return s
}
