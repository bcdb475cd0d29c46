package core

import (
	"cfpgrowth/internal/encoding"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Convert transforms a ternary CFP-tree into a CFP-array (§3.5). The
// paper performs two passes over the tree — one to size the subarrays,
// one to place the triples. Reconstructing full counts from partial
// counts additionally requires a post-order accumulation, which we run
// as a preliminary counting walk whose result (one count per node, in
// visit order) is kept in a transient buffer that is discarded before
// mining begins; DESIGN.md §2 records this as an implementation
// concretization.
//
// Triples are written in depth-first order with siblings ascending, so
// writes within each subarray are strictly sequential — the access
// pattern that keeps conversion cheap even under memory pressure.
//
// The returned array is the serving artifact: frozen from the moment
// Convert returns, so no write anywhere in the mining layers may reach
// memory it points to. TestIndexMineConcurrentReaders and
// TestIndexSupportOfConcurrentReaders (package cfpgrowth) enforce it:
// concurrent readers under -race, plus a byte comparison of the
// re-serialized index before and after.
func Convert(t *Tree) *Array {
	a, _ := ConvertCtl(t, nil)
	return a
}

// ConvertCtl is Convert with a cancellation/budget check threaded
// through all three passes: each walk polls ctl once per physical node
// and the conversion is abandoned with ctl's stop cause as soon as it
// fires, so a canceled or over-budget run never pays for a full
// conversion of a large tree. A nil ctl makes it equivalent to Convert.
// Like Convert, the returned array is frozen (the same tests enforce
// it).
func ConvertCtl(t *Tree, ctl *mine.Control) (*Array, error) {
	numItems := t.NumItems()
	a := &Array{
		itemName: t.itemName,
		support:  make([]uint64, numItems),
		nodes:    make([]int, numItems),
		starts:   make([]uint64, numItems+1),
		numNodes: t.NumNodes(),
	}
	stop := ctl.Stopped
	if ctl == nil {
		stop = nil
	}
	// Preliminary walk: full FP counts per node, in walk order.
	cp := &countPass{counts: make([]uint64, 0, t.NumNodes())}
	if !t.WalkUntil(cp, stop) {
		return nil, ctl.Err()
	}
	// Pass 1: sizes and local positions.
	sp := &placePass{a: a, counts: cp.counts, acc: make([]uint64, numItems)}
	if !t.WalkUntil(sp, stop) {
		return nil, ctl.Err()
	}
	// Subarray starting positions.
	var total uint64
	for i := 0; i < numItems; i++ {
		a.starts[i] = total
		total += sp.acc[i]
	}
	a.starts[numItems] = total
	// Pass 2: write triples into their final positions. The array data
	// is the conversion's one large transient allocation; probe it
	// against the budget before committing.
	ctl.Probe(int64(total))
	if err := ctl.Err(); err != nil {
		return nil, err
	}
	a.data = make([]byte, total)
	wp := &placePass{a: a, counts: cp.counts, acc: make([]uint64, numItems), write: true}
	if !t.WalkUntil(wp, stop) {
		return nil, ctl.Err()
	}
	// One triple per logical node was written; count them wholesale so
	// the hot per-node path stays untouched.
	t.rec.Add(obs.CtrTriples, int64(t.numNodes))
	return a, nil
}

// countPass computes the full FP count of every node: the sum of the
// pcounts in its subtree (§3.2).
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

// placePass assigns local positions (and, in write mode, serializes the
// triples). It runs the identical traversal in both passes, so the
// position arithmetic agrees.
type placePass struct {
	a      *Array
	counts []uint64
	next   int      // next index into counts
	acc    []uint64 // per rank: running subarray size / local offset
	stack  []placeFrame
	write  bool
	buf    [3 * encoding.MaxVarintLen64]byte
}

type placeFrame struct {
	rank  uint32
	local uint64
}

func (p *placePass) Enter(rank uint32, pcount uint32) {
	cnt := p.counts[p.next]
	p.next++
	local := p.acc[rank]
	var delta uint32
	var dpos int64
	if len(p.stack) > 0 {
		parent := p.stack[len(p.stack)-1]
		delta = rank - parent.rank
		dpos = int64(local) - int64(parent.local)
	} else {
		delta = rank + 1 // parent is the virtual root (rank -1)
		dpos = 0
	}
	n := encoding.PutUvarint(p.buf[:], uint64(delta))
	n += encoding.PutUvarint(p.buf[n:], encoding.Zigzag(dpos))
	n += encoding.PutUvarint(p.buf[n:], cnt)
	if p.write {
		if debugChecks {
			assertf(cnt > 0, "core: Convert produced zero count at rank %d local %d", rank, local)
			if len(p.stack) > 0 {
				assertf(rank > p.stack[len(p.stack)-1].rank,
					"core: Δitem ordering violated: child rank %d not above parent rank %d", rank, p.stack[len(p.stack)-1].rank)
			}
			assertf(p.a.starts[rank]+local+uint64(n) <= p.a.starts[rank+1],
				"core: triple write overruns subarray of rank %d at local %d", rank, local)
		}
		copy(p.a.data[p.a.starts[rank]+local:], p.buf[:n])
	} else {
		p.a.support[rank] += cnt
		p.a.nodes[rank]++
	}
	p.acc[rank] += uint64(n)
	p.stack = append(p.stack, placeFrame{rank: rank, local: local})
}

func (p *placePass) Leave() {
	p.stack = p.stack[:len(p.stack)-1]
}
