package fptree

import (
	"slices"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Growth is the FP-growth baseline miner (§2.1) operating on classic
// ternary FP-trees. It serves as the reference point that the paper's
// CFP-growth improves upon.
type Growth struct {
	// MaxLen, when positive, prunes the search at itemsets of that
	// cardinality.
	MaxLen int
	// Ctl, when non-nil, is polled during the build scan and the
	// recursion so a stopped run (cancellation, deadline, budget)
	// aborts promptly with the stop cause. It is also the run's byte
	// ledger, charged the modeled memory of every tree the mine holds.
	Ctl *mine.Control
	// Rec, when non-nil, records phase spans and itemset counts, and
	// its byte gauges read Ctl, making baseline runs comparable to
	// CFP-growth runs in the same trace.
	Rec *obs.Recorder
}

// Name implements mine.Miner.
func (Growth) Name() string { return "fpgrowth" }

// Mine implements mine.Miner.
func (g Growth) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	if err := g.Ctl.Err(); err != nil {
		return err
	}
	defer g.Rec.Bind(g.Ctl)()
	sp := g.Rec.Start(obs.PhasePass1)
	counts, err := dataset.CountItems(src)
	sp.End()
	if err != nil {
		return err
	}
	rec := dataset.NewRecoder(counts, minSupport)
	if minSupport == 0 {
		minSupport = 1
	}
	n := rec.NumFrequent()
	if n == 0 {
		return nil
	}
	itemName, itemCount := rec.Frequent()
	tree := New(itemName, itemCount)
	var buf []uint32
	sp = g.Rec.Start(obs.PhaseBuild)
	err = src.Scan(func(tx []uint32) error {
		if err := g.Ctl.Err(); err != nil {
			return err
		}
		buf = rec.Encode(tx, buf[:0])
		tree.Insert(buf, 1)
		return nil
	})
	sp.End()
	if err != nil {
		return err
	}
	g.Rec.Add(obs.CtrLogicalNodes, int64(tree.NumNodes()))
	sp = g.Rec.Start(obs.PhaseMine)
	err = mineTree(tree, minSupport, sink, 0, g.MaxLen, g.Ctl, g.Rec)
	sp.End()
	return err
}

// MineTree runs the FP-growth recursion over an already-built tree,
// emitting every frequent itemset (in the tree's ItemName space) whose
// support reaches minSupport. nodeBytes overrides the modeled per-node
// memory cost charged to ctl's ledger (0 means BaselineNodeSize, the 40-byte
// node of the implementations the paper compares against); variant
// algorithms with different physical layouts reuse the recursion with
// their own cost model. ctl, when non-nil, is threaded through the
// recursion: every emission sits behind a ctl stop-check, so variant
// algorithms inherit the no-emission-after-stop invariant.
func MineTree(tree *Tree, minSupport uint64, sink mine.Sink, nodeBytes int64, ctl *mine.Control) error {
	return mineTree(tree, minSupport, sink, nodeBytes, 0, ctl, nil)
}

func mineTree(tree *Tree, minSupport uint64, sink mine.Sink, nodeBytes int64, maxLen int, ctl *mine.Control, rec *obs.Recorder) error {
	if nodeBytes == 0 {
		nodeBytes = BaselineNodeSize
	}
	m := &grower{minSup: minSupport, maxLen: maxLen, sink: sink, nodeBytes: nodeBytes, ctl: ctl, rec: rec}
	ctl.Alloc(nodeBytes * int64(tree.NumNodes()))
	defer ctl.Free(nodeBytes * int64(tree.NumNodes()))
	return m.mine(tree, nil)
}

// grower carries the recursion state of FP-growth.
type grower struct {
	minSup    uint64
	maxLen    int
	sink      mine.Sink
	nodeBytes int64
	ctl       *mine.Control // nil = never canceled; the byte ledger
	rec       *obs.Recorder // nil = no observability
	emitBuf   []uint32
}

// emit sorts prefix into ascending identifier order and forwards it.
func (m *grower) emit(prefix []uint32, support uint64) error {
	if err := m.ctl.Err(); err != nil {
		return err
	}
	m.emitBuf = append(m.emitBuf[:0], prefix...)
	slices.Sort(m.emitBuf)
	if err := m.sink.Emit(m.emitBuf, support); err != nil {
		return err
	}
	// Counted after delivery so the counter matches the sink's view
	// under mid-run cancellation.
	m.rec.Add(obs.CtrItemsets, 1)
	return nil
}

// mine emits every frequent itemset that extends prefix with items of
// tree t (§2.1: pick least frequent item, recurse on its conditional
// tree, remove, repeat).
func (m *grower) mine(t *Tree, prefix []uint32) error {
	if path, ok := t.SinglePath(); ok {
		return m.minePath(t, path, prefix)
	}
	for rk := len(t.Heads) - 1; rk >= 0; rk-- {
		if err := m.ctl.Err(); err != nil {
			return err
		}
		if t.Heads[uint32(rk)] == 0 {
			continue
		}
		sup := t.ItemCount[rk]
		if sup < m.minSup {
			continue
		}
		prefix = append(prefix, t.ItemName[rk])
		if err := m.emit(prefix, sup); err != nil {
			return err
		}
		var cond *Tree
		if m.maxLen <= 0 || len(prefix) < m.maxLen {
			cond = m.conditional(t, uint32(rk))
		}
		if cond != nil {
			if m.rec != nil {
				m.rec.Add(obs.CtrCondTrees, 1)
				m.rec.Add(obs.CtrLogicalNodes, int64(cond.NumNodes()))
				m.rec.ObserveDepth(len(prefix))
			}
			bytes := m.nodeBytes * int64(cond.NumNodes())
			m.ctl.Alloc(bytes)
			err := m.mine(cond, prefix)
			m.ctl.Free(bytes)
			if err != nil {
				return err
			}
		}
		prefix = prefix[:len(prefix)-1]
	}
	return nil
}

// minePath handles a single-path tree: every non-empty subset of the
// path is frequent, with support equal to the count of its deepest
// node (counts are non-increasing along the path).
func (m *grower) minePath(t *Tree, path []uint32, prefix []uint32) error {
	var rec func(i int, prefix []uint32) error
	rec = func(i int, prefix []uint32) error {
		if m.maxLen > 0 && len(prefix) >= m.maxLen {
			return nil
		}
		for j := i; j < len(path); j++ {
			nd := &t.Nodes[path[j]]
			sup := uint64(nd.Count)
			if sup < m.minSup {
				// Counts are non-increasing: nothing deeper qualifies.
				return nil
			}
			prefix = append(prefix, t.ItemName[nd.Item])
			if err := m.emit(prefix, sup); err != nil {
				return err
			}
			if err := rec(j+1, prefix); err != nil {
				return err
			}
			prefix = prefix[:len(prefix)-1]
		}
		return nil
	}
	return rec(0, prefix)
}

// conditional builds the conditional FP-tree of item rank rk: the tree
// over the prefixes (restricted to conditionally frequent items) of all
// occurrences of rk, weighted by occurrence counts. The conditional
// item space keeps the parent tree's rank order, so paths arrive
// already sorted and no re-ranking pass is needed. Returns nil when the
// conditional tree is empty.
func (m *grower) conditional(t *Tree, rk uint32) *Tree {
	// Pass 1 over the nodelink chain: conditional item supports.
	condCount := make([]uint64, rk)
	// These walks end: addNode links each new node at the head of its
	// nodelink chain, and parents are allocated before their children,
	// so every hop visits a strictly earlier-allocated index.
	for n := t.Heads[rk]; n != 0; n = t.Nodes[n].Nodelink {
		w := uint64(t.Nodes[n].Count)
		for p := t.Nodes[n].Parent; p != 0; p = t.Nodes[p].Parent {
			condCount[t.Nodes[p].Item] += w
		}
	}
	any := false
	for _, c := range condCount {
		if c >= m.minSup {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	cond := New(t.ItemName[:rk], condCount)
	// Pass 2: insert each filtered prefix path with its weight. A
	// prefix path holds distinct ranks below rk, so rk bounds its
	// length: one allocation covers every iteration.
	path := make([]uint32, 0, rk)
	for n := t.Heads[rk]; n != 0; n = t.Nodes[n].Nodelink {
		w := t.Nodes[n].Count
		path = path[:0]
		for p := t.Nodes[n].Parent; p != 0; p = t.Nodes[p].Parent {
			it := t.Nodes[p].Item
			if condCount[it] >= m.minSup {
				path = append(path, it)
			}
		}
		if len(path) == 0 {
			continue
		}
		// The parent walk yields ranks in descending order; reverse.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		cond.Insert(path, w)
	}
	if cond.NumNodes() == 0 {
		return nil
	}
	return cond
}
