package core

import (
	"math"
	"slices"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// DirectGrowth mines straight off the ternary CFP-tree, without ever
// converting to a CFP-array. It exists as the ablation justifying the
// CFP-array's existence (DESIGN.md §5): the compressed tree has no
// nodelinks (they were sacrificed for compression), so assembling one
// item's conditional pattern base requires a full depth-first walk of
// the tree — every conditioning step is O(tree) instead of O(item's
// nodes). The results are identical to Growth's; the point is the cost,
// which bench_ablation_test.go measures.
type DirectGrowth struct {
	// Config tunes the CFP-tree compression features.
	Config Config
	// MaxLen, when positive, prunes the search at that cardinality.
	MaxLen int
	// Ctl, when non-nil, is polled at every emission (and during the
	// build scan), so a stopped run aborts promptly with its cause. It
	// is also the run's byte ledger, charged every tree the walk holds.
	Ctl *mine.Control
}

// Name implements mine.Miner.
func (DirectGrowth) Name() string { return "cfpgrowth-direct" }

// Mine implements mine.Miner.
func (g DirectGrowth) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	tree, _, err := Build(src, minSupport, g.Config, g.Ctl, nil)
	if err != nil {
		return err
	}
	m := &directGrower{cfpGrower{cfg: g.Config, minSup: max(minSupport, 1), maxLen: g.MaxLen, sink: sink, ctl: g.Ctl}}
	return m.mine(tree, nil)
}

// directGrower reuses CFP-growth's emission and single-path
// enumeration; only the conditioning step differs.
type directGrower struct {
	cfpGrower
}

// mine mines t, a tree charged to the ledger (by Build, or by
// conditionalWalk), and releases its charge when done.
func (m *directGrower) mine(t *Tree, prefix []uint32) error {
	defer m.ctl.Free(t.Extent())
	if path, ok := t.SinglePath(); ok {
		return m.minePath(t, path, prefix)
	}
	// One walk computes per-item supports and full counts.
	cp := &countPass{counts: make([]uint64, 0, t.NumNodes())}
	t.Walk(cp)
	itemSup := make([]uint64, t.NumItems())
	sv := &supportVisitor{counts: cp.counts, itemSup: itemSup}
	t.Walk(sv)
	ni := int64(t.NumItems())
	if debugChecks {
		assertf(ni <= math.MaxUint32, "core: item count %d overflows rank space", ni)
	}
	for rk := ni - 1; rk >= 0; rk-- {
		if itemSup[rk] < m.minSup {
			continue
		}
		prefix = append(prefix, t.itemName[rk])
		if err := m.emit(prefix, itemSup[rk]); err != nil {
			return err
		}
		if rk > 0 && (m.maxLen <= 0 || len(prefix) < m.maxLen) {
			// The expensive step this ablation demonstrates: without
			// nodelinks or item clustering, the pattern base of rank
			// rk requires another full walk of the tree.
			cond := m.conditionalWalk(t, uint32(rk), cp.counts)
			if cond != nil {
				if err := m.mine(cond, prefix); err != nil {
					return err
				}
			}
		}
		prefix = prefix[:len(prefix)-1]
	}
	return nil
}

// conditionalWalk gathers rank rk's pattern base by a full tree walk and
// rebuilds it as a new CFP-tree, charged to the ledger (fresh arena:
// unlike Growth, the parent tree must stay alive through the recursion,
// which is the second cost this ablation exposes).
func (m *directGrower) conditionalWalk(t *Tree, rk uint32, counts []uint64) *Tree {
	pb := &patternBaseVisitor{target: rk, counts: counts}
	t.Walk(pb)
	if len(pb.paths) == 0 {
		return nil
	}
	condCount := make([]uint64, rk)
	for _, p := range pb.paths {
		for _, it := range p.ranks {
			condCount[it] += p.weight
		}
	}
	if !slices.ContainsFunc(condCount, func(c uint64) bool { return c >= m.minSup }) {
		return nil
	}
	cond := NewTree(arena.New(), m.cfg, t.itemName[:rk])
	for _, p := range pb.paths {
		m.insertFiltered(cond, p.ranks, condCount, p.weight)
	}
	if cond.NumNodes() == 0 {
		return nil
	}
	m.ctl.Alloc(cond.Extent())
	return cond
}

// insertFiltered filters the root-first path in place to its
// conditionally frequent items and, if any remain, inserts them into
// cond with count c.
func (m *cfpGrower) insertFiltered(cond *Tree, path []uint32, condCount []uint64, c uint64) {
	if path = m.filterFrequent(path, condCount); len(path) > 0 {
		if debugChecks {
			assertf(c <= math.MaxUint32, "core: path count %d overflows uint32", c)
		}
		cond.Insert(path, uint32(c&0xffffffff))
	}
}

// countPass computes the full FP count of every node: the sum of the
// pcounts in its subtree (§3.2), kept in walk order for the walks that
// follow.
type countPass struct {
	counts []uint64
	stack  []int
}

func (p *countPass) Enter(rank uint32, pcount uint32) {
	p.stack = append(p.stack, len(p.counts))
	p.counts = append(p.counts, uint64(pcount))
}

func (p *countPass) Leave() {
	idx := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	if len(p.stack) > 0 {
		p.counts[p.stack[len(p.stack)-1]] += p.counts[idx]
	}
}

// supportVisitor accumulates per-item full counts.
type supportVisitor struct {
	counts  []uint64
	next    int
	itemSup []uint64
}

func (v *supportVisitor) Enter(rank uint32, pcount uint32) {
	v.itemSup[rank] += v.counts[v.next]
	v.next++
}

func (v *supportVisitor) Leave() {}

// patternBaseVisitor collects, for every node of the target rank, the
// ancestor rank path (root-first) and the node's full count.
type patternBaseVisitor struct {
	target uint32
	counts []uint64
	next   int
	stack  []uint32
	paths  []weightedPath
}

type weightedPath struct {
	ranks  []uint32
	weight uint64
}

func (v *patternBaseVisitor) Enter(rank uint32, pcount uint32) {
	cnt := v.counts[v.next]
	v.next++
	if rank == v.target {
		cp := make([]uint32, len(v.stack))
		copy(cp, v.stack)
		v.paths = append(v.paths, weightedPath{ranks: cp, weight: cnt})
	}
	v.stack = append(v.stack, rank)
}

func (v *patternBaseVisitor) Leave() {
	v.stack = v.stack[:len(v.stack)-1]
}
