package core

import (
	"cfpgrowth/internal/encoding"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Convert transforms a ternary CFP-tree into a CFP-array (§3.5) in the
// paper's two depth-first passes: one to size the subarrays, one to
// place the triples. Neither keeps a per-node buffer. A node's full
// count (the sum of the pcounts in its subtree, §3.2) is known when the
// walk leaves it, so both passes handle each triple at Leave, with a
// stack of {rank, local, count} frames along the current path. Ranks
// rise strictly along a path, so no other node of a node's rank is
// visited between its Enter and its Leave: the node's local position,
// taken at Enter, is still the running size of its subarray at Leave,
// and nodes of one rank leave in the order they enter.
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
// through both passes: each walk polls ctl once per physical node and
// the conversion is abandoned with ctl's stop cause as soon as it
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
	// Pass 1: subarray sizes, supports and element counts.
	p := &placePass{a: a, acc: make([]uint64, numItems)}
	if !t.WalkUntil(p, stop) {
		return nil, ctl.Err()
	}
	// Subarray starting positions.
	var total uint64
	for i := 0; i < numItems; i++ {
		a.starts[i] = total
		total += p.acc[i]
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
	clear(p.acc)
	p.write = true
	if !t.WalkUntil(p, stop) {
		return nil, ctl.Err()
	}
	// One triple per logical node was written; count them wholesale so
	// the hot per-node path stays untouched.
	t.rec.Add(obs.CtrTriples, int64(t.numNodes))
	return a, nil
}

// placePass sizes (and, in write mode, serializes) each node's triple
// when the walk leaves it. Both passes run the identical traversal, so
// the position arithmetic agrees.
type placePass struct {
	a     *Array
	acc   []uint64 // per rank: running subarray size / local offset
	stack []placeFrame
	write bool
	buf   [3 * encoding.MaxVarintLen64]byte
}

// placeFrame is a node on the walk's current path: its rank, its local
// position, and its full count so far (its pcount plus the counts of
// the children already left).
type placeFrame struct {
	rank  uint32
	local uint64
	count uint64
}

func (p *placePass) Enter(rank uint32, pcount uint32) {
	p.stack = append(p.stack, placeFrame{rank: rank, local: p.acc[rank], count: uint64(pcount)})
}

func (p *placePass) Leave() {
	top := len(p.stack) - 1
	f := p.stack[top]
	p.stack = p.stack[:top]
	delta := f.rank + 1 // parent is the virtual root (rank -1)
	var dpos int64
	if top > 0 {
		parent := &p.stack[top-1]
		parent.count += f.count
		delta = f.rank - parent.rank
		dpos = int64(f.local) - int64(parent.local)
	}
	n := encoding.PutUvarint(p.buf[:], uint64(delta))
	n += encoding.PutUvarint(p.buf[n:], encoding.Zigzag(dpos))
	n += encoding.PutUvarint(p.buf[n:], f.count)
	if p.write {
		if debugChecks {
			assertf(f.count > 0, "core: Convert produced zero count at rank %d local %d", f.rank, f.local)
			if top > 0 {
				assertf(f.rank > p.stack[top-1].rank,
					"core: Δitem ordering violated: child rank %d not above parent rank %d", f.rank, p.stack[top-1].rank)
			}
			assertf(p.a.starts[f.rank]+f.local+uint64(n) <= p.a.starts[f.rank+1],
				"core: triple write overruns subarray of rank %d at local %d", f.rank, f.local)
		}
		copy(p.a.data[p.a.starts[f.rank]+f.local:], p.buf[:n])
	} else {
		p.a.support[f.rank] += f.count
		p.a.nodes[f.rank]++
	}
	p.acc[f.rank] += uint64(n)
}
