package core

import (
	"math"
	"slices"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/encoding"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Build is the CFP-tree build stage every miner and index shares: the
// paper's two database passes (§3.3, §4.1). Pass 1 counts item supports
// and recodes items to frequency ranks; pass 2 (BuildRecoded) inserts
// every recoded transaction into a fresh CFP-tree in its own arena. A
// minSupport of 0 means 1. It returns the tree and the number of
// transactions counted.
//
// Build owns the stage's run contract. The count table is charged to
// ctl's ledger inside the pass1 span and released once recoded. ctl
// (nil = never stopped, nothing counted) and rec (nil = unobserved) are
// threaded through pass 2 as BuildRecoded documents.
func Build(src dataset.Source, minSupport uint64, cfg Config, ctl *mine.Control, rec *obs.Recorder) (*Tree, uint64, error) {
	sp := rec.Start(obs.PhasePass1)
	counts, err := dataset.CountItems(src)
	if err != nil {
		sp.End()
		return nil, 0, err
	}
	// The count table is the pass's output structure; charging it
	// inside the span makes pass1's bytes_delta its footprint.
	countBytes := counts.ModelBytes()
	ctl.Alloc(countBytes)
	sp.End()
	r := dataset.NewRecoder(counts, minSupport)
	// The count table is consumed by the recoder; it is dead from here.
	ctl.Free(countBytes)
	t, err := BuildRecoded(src, r, cfg, ctl, rec)
	return t, r.NumTx(), err
}

// BuildRecoded is Build's second pass, for callers that counted the
// database themselves: it inserts src's transactions, recoded by r, into
// a fresh CFP-tree over r's frequent items. Inside the pass2-build span
// it polls ctl per transaction and probes the growing tree's extent
// against ctl's byte budget every 1024 transactions. The returned tree's
// extent is charged to ctl's ledger inside that span; the caller
// releases it (Free of t.Extent()) when it retires the tree. When nothing is
// frequent the tree is empty and src is not scanned.
func BuildRecoded(src dataset.Source, r *dataset.Recoder, cfg Config, ctl *mine.Control, rec *obs.Recorder) (*Tree, error) {
	names, _ := r.Frequent()
	if debugChecks {
		assertf(int64(len(names)) <= math.MaxUint32, "core: frequent item count %d overflows rank space", len(names))
	}
	t := NewTree(arena.New(), cfg, names)
	t.Observe(rec)
	sp := rec.Start(obs.PhaseBuild)
	if len(names) == 0 {
		// Nothing is frequent: every transaction would recode to the
		// empty set, so the tree stays empty and the scan is skipped.
		ctl.Alloc(t.Extent())
		sp.End()
		return t, nil
	}
	var buf []uint32
	var txn int
	err := src.Scan(func(tx []uint32) error {
		if err := ctl.Err(); err != nil {
			return err
		}
		buf = r.Encode(tx, buf[:0])
		t.Insert(buf, 1)
		// The tree grows throughout the build; probe its extent against
		// the byte budget periodically so a runaway build is stopped
		// long before its one-shot Alloc at phase end.
		if txn++; txn&1023 == 0 {
			ctl.Probe(t.Extent())
		}
		return nil
	})
	if err != nil {
		sp.End()
		return nil, err
	}
	FoldTreeCounters(rec, t)
	// Charge the finished tree inside the span: pass2-build's
	// bytes_delta is the initial CFP-tree footprint.
	ctl.Alloc(t.Extent())
	sp.End()
	return t, nil
}

// Insert adds a transaction given as strictly increasing item ranks
// with multiplicity weight. Per the CFP-tree's partial-count semantics
// (§3.2), only the pcount of the path's final node is increased.
func (t *Tree) Insert(ranks []uint32, weight uint32) {
	if len(ranks) == 0 {
		return
	}
	t.numTx += uint64(weight)
	pos := 0
	parentRank := int64(-1)
	ref := rootRef      // slot currently under examination
	ownerRef := rootRef // slot holding the pointer to ref.owner
	for {
		sv := t.getSlot(ref)
		switch sv.kind {
		case slotNone:
			v := t.buildPath(ranks[pos:], parentRank, weight)
			t.setSlot(ref, v, ownerRef)
			return

		case slotEmbed:
			rank := parentRank + int64(sv.eDelta)
			target := int64(ranks[pos])
			if target == rank {
				if pos == len(ranks)-1 {
					// Transaction ends at the embedded leaf.
					np := sv.ePcount + weight
					if np <= embedMaxPcount && !t.cfg.DisableEmbed {
						t.setSlot(ref, embedSlot(sv.eDelta, np), ownerRef)
					} else {
						off := t.allocStd(stdNode{delta: sv.eDelta, pcount: np})
						t.numEmbedded--
						t.numStd++
						t.setSlot(ref, ptrSlot(off), ownerRef)
					}
					return
				}
				// Matched but the transaction continues: promote the
				// leaf to a standard node with the rest as its child.
				child := t.buildPath(ranks[pos+1:], rank, weight)
				off := t.allocStd(stdNode{delta: sv.eDelta, pcount: sv.ePcount, suffix: child})
				t.numEmbedded--
				t.numStd++
				t.setSlot(ref, ptrSlot(off), ownerRef)
				return
			}
			// BST divergence at the embedded leaf: promote it and
			// attach the new branch as its BST child.
			sib := t.buildPath(ranks[pos:], parentRank, weight)
			n := stdNode{delta: sv.eDelta, pcount: sv.ePcount}
			if target < rank {
				n.left = sib
			} else {
				n.right = sib
			}
			off := t.allocStd(n)
			t.numEmbedded--
			t.numStd++
			t.setSlot(ref, ptrSlot(off), ownerRef)
			return

		default: // slotPtr
			b := t.nodeBytes(sv.ptr)
			if isChain(b[0]) {
				if t.descendChain(sv.ptr, &pos, &parentRank, &ref, &ownerRef, ranks, weight) {
					return
				}
				continue
			}
			// Fast path: the mask byte and Δitem bytes are enough to
			// steer BST descent; the node is only fully decoded when
			// its pcount must change.
			delta := encoding.Suppressed32(b[1:], int(b[0]>>6))
			rank := parentRank + int64(delta)
			target := int64(ranks[pos])
			switch {
			case target == rank:
				if pos == len(ranks)-1 {
					n, size := decodeStd(b)
					n.pcount += weight
					t.replaceStd(sv.ptr, size, n, ref)
					return
				}
				pos++
				parentRank = rank
				ownerRef = ref
				ref = slotRef{owner: sv.ptr, which: 2}
			case target < rank:
				ownerRef = ref
				ref = slotRef{owner: sv.ptr, which: 0}
			default:
				ownerRef = ref
				ref = slotRef{owner: sv.ptr, which: 1}
			}
		}
	}
}

// descendChain advances an insertion through the chain node at off.
// It returns true when the insertion completed inside the chain, or
// false when descent continues past the chain's tail suffix (pos,
// parentRank, ref and ownerRef are updated accordingly).
func (t *Tree) descendChain(off uint64, pos *int, parentRank *int64, ref, ownerRef *slotRef, ranks []uint32, weight uint32) bool {
	b := t.nodeBytes(off)
	c, size := decodeChain(b)
	L := len(c.deltas)
	j := 0
	pr := *parentRank
	for j < L && *pos < len(ranks) && int64(ranks[*pos]) == pr+int64(c.deltas[j]) {
		pr += int64(c.deltas[j])
		j++
		*pos++
	}
	if j == L && *pos < len(ranks) {
		// Consumed the whole chain; continue below its tail.
		*parentRank = pr
		*ownerRef = *ref
		*ref = slotRef{owner: off, which: 2}
		return false
	}
	// Every other case rewrites the chain, and c.deltas aliases the
	// arena memory that the rewrite frees, reuses or moves: copy them
	// out first, to the stack.
	var deltas chainDeltas
	c.deltas = deltas[:copy(deltas[:], c.deltas)]
	switch {
	case j == L:
		// The transaction ends exactly at the chain's last element.
		c.pcount += weight
		t.replaceChain(off, size, c, *ref)
		return true
	case *pos == len(ranks):
		// The transaction ends mid-chain, at element j-1 (j ≥ 1: we
		// only arrive at a slot with at least one rank left, so at
		// least one element matched).
		t.splitChainEnd(off, size, c, j, weight, *ref, *ownerRef)
		return true
	default:
		// Divergence at element j: it needs a BST sibling, which only
		// standard nodes support.
		t.splitChainDiverge(off, size, c, j, pr, ranks[*pos:], weight, *ref, *ownerRef)
		return true
	}
}

// splitChainEnd handles a transaction that ends at chain element j-1
// (0 < j < len): the chain splits into a head carrying the new pcount
// and a tail preserving the original pcount and suffix.
func (t *Tree) splitChainEnd(off uint64, size int, c chainNode, j int, weight uint32, ref, ownerRef slotRef) {
	t.rec.Add(obs.CtrChainSplits, 1)
	t.freeNode(off, size)
	t.numChains--
	tail := t.makePiece(c.deltas[j:], c.pcount, c.suffix)
	head := t.makePiece(c.deltas[:j], weight, tail)
	t.setSlot(ref, head, ownerRef)
}

// splitChainDiverge handles a transaction that diverges from the chain
// at element j (whose parent has rank pr): element j becomes a standard
// node holding the new branch as a BST child; elements before and after
// become separate pieces.
func (t *Tree) splitChainDiverge(off uint64, size int, c chainNode, j int, pr int64, rest []uint32, weight uint32, ref, ownerRef slotRef) {
	t.rec.Add(obs.CtrChainSplits, 1)
	t.freeNode(off, size)
	t.numChains--
	L := len(c.deltas)
	elem := stdNode{delta: uint32(c.deltas[j])}
	if j == L-1 {
		elem.pcount = c.pcount
		elem.suffix = c.suffix
	} else {
		elem.suffix = t.makePiece(c.deltas[j+1:], c.pcount, c.suffix)
	}
	branch := t.buildPath(rest, pr, weight)
	if int64(rest[0]) < pr+int64(elem.delta) {
		elem.left = branch
	} else {
		elem.right = branch
	}
	t.numStd++
	elemSlot := ptrSlot(t.allocStd(elem))
	head := elemSlot
	if j > 0 {
		head = t.makePiece(c.deltas[:j], 0, elemSlot)
	}
	t.setSlot(ref, head, ownerRef)
}

// makePiece materializes a run of chain elements (each Δitem a single
// byte) whose last element carries pcount and suffix. Runs of length 1
// become embedded leaves or standard nodes; longer runs stay chains.
// deltas must not alias the arena, which the allocation may move.
func (t *Tree) makePiece(deltas []byte, pcount uint32, suffix slotVal) slotVal {
	if len(deltas) == 0 {
		panic("core: empty chain piece")
	}
	if len(deltas) == 1 {
		if suffix.kind == slotNone && pcount <= embedMaxPcount && !t.cfg.DisableEmbed {
			t.numEmbedded++
			return embedSlot(uint32(deltas[0]), pcount)
		}
		t.numStd++
		return ptrSlot(t.allocStd(stdNode{delta: uint32(deltas[0]), pcount: pcount, suffix: suffix}))
	}
	t.numChains++
	return ptrSlot(t.allocChain(chainNode{deltas: deltas, pcount: pcount, suffix: suffix}))
}

// buildPath materializes a brand-new path for ranks (strictly
// increasing, non-empty) under a parent of rank parentRank, with the
// final node receiving pcount weight. Consecutive elements whose Δitem
// fits a byte coalesce into chain nodes of at most maxChain elements
// (§3.3: chains are only built when a new leaf is inserted).
func (t *Tree) buildPath(ranks []uint32, parentRank int64, weight uint32) slotVal {
	t.numNodes += len(ranks)
	return t.buildSeg(ranks, parentRank, weight)
}

func (t *Tree) buildSeg(ranks []uint32, parentRank int64, weight uint32) slotVal {
	d0 := int64(ranks[0]) - parentRank
	if debugChecks && (d0 < 1 || d0 > math.MaxUint32) {
		// Boxed only on failure: a root's parent rank, -1, would
		// allocate on every insert that reaches the root.
		assertf(false, "core: Δitem out of range in buildSeg (parent %d)", parentRank)
	}
	if len(ranks) == 1 {
		if d0 <= embedMaxDelta && weight <= embedMaxPcount && !t.cfg.DisableEmbed {
			t.numEmbedded++
			return embedSlot(uint32(d0), weight)
		}
		t.numStd++
		return ptrSlot(t.allocStd(stdNode{delta: uint32(d0), pcount: weight}))
	}
	if !t.cfg.DisableChains && d0 <= embedMaxDelta {
		// Extend the run while deltas stay single-byte.
		maxChain := t.cfg.maxChain()
		L := 1
		for L < len(ranks) && L < maxChain &&
			int64(ranks[L])-int64(ranks[L-1]) <= embedMaxDelta {
			L++
		}
		if L >= 2 {
			var tailPcount uint32
			var suffix slotVal
			if L == len(ranks) {
				tailPcount = weight
			} else {
				suffix = t.buildSeg(ranks[L:], int64(ranks[L-1]), weight)
			}
			t.numChains++
			return ptrSlot(t.allocChainOf(ranks[:L], parentRank, tailPcount, suffix))
		}
	}
	t.numStd++
	suffix := t.buildSeg(ranks[1:], int64(ranks[0]), weight)
	return ptrSlot(t.allocStd(stdNode{delta: uint32(d0), pcount: 0, suffix: suffix}))
}

// allocChainOf encodes the chain of ranks, under a parent of rank
// parentRank, into a fresh chunk and returns its offset. The Δitem bytes
// are built on this call's stack, which buildSeg enters only after its
// recursion returns, so the 255-byte buffer does not sit in every frame
// of a deep path's recursion.
func (t *Tree) allocChainOf(ranks []uint32, parentRank int64, pcount uint32, suffix slotVal) uint64 {
	var buf chainDeltas
	prev := parentRank
	for i, r := range ranks {
		buf[i] = byte(int64(r) - prev)
		prev = int64(r)
	}
	return t.allocChain(chainNode{deltas: buf[:len(ranks)], pcount: pcount, suffix: suffix})
}

// BuildProjected is BuildRecoded for a database already held in a
// CFP-tree: it projects src onto r's frequent items (the projection
// step of Grahne–Zhu) and inserts the result into a fresh CFP-tree
// over them. r recodes the item identifiers src's ranks name (the
// itemName src was built with). One walk of src keeps the frequent
// ancestors of each node on a stack; every node with pcount > 0 ends
// pcount transactions, whose projected path is inserted, sorted into
// r's rank order, with weight pcount. A tree's logical content does
// not depend on insertion order, so the result converts to the same
// CFP-array as BuildRecoded over the transactions src was built from.
func BuildProjected(src *Tree, r *dataset.Recoder, cfg Config) *Tree {
	names, _ := r.Frequent()
	t := NewTree(arena.New(), cfg, names)
	if len(names) == 0 {
		return t
	}
	p := &projectPass{t: t, rank: make([]uint32, src.NumItems())}
	var buf []uint32
	for rk, it := range src.itemName {
		if buf = r.Encode([]dataset.Item{it}, buf[:0]); len(buf) == 1 {
			p.rank[rk] = buf[0] + 1
		}
	}
	src.Walk(p)
	return t
}

// projectPass is BuildProjected's visitor.
type projectPass struct {
	t     *Tree
	rank  []uint32 // src rank -> projected rank + 1; 0 = infrequent
	path  []uint32 // projected ranks of the frequent nodes on the walk stack
	marks []int    // len(path) at each Enter, restored by the matching Leave
	buf   []uint32
}

func (p *projectPass) Enter(rank uint32, pcount uint32) {
	p.marks = append(p.marks, len(p.path))
	if pr := p.rank[rank]; pr != 0 {
		p.path = append(p.path, pr-1)
	}
	if pcount > 0 && len(p.path) > 0 {
		p.buf = append(p.buf[:0], p.path...)
		slices.Sort(p.buf)
		p.t.Insert(p.buf, pcount)
	}
}

func (p *projectPass) Leave() {
	n := len(p.marks) - 1
	p.path = p.path[:p.marks[n]]
	p.marks = p.marks[:n]
}
