package core

import (
	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/obs"
)

// Config controls the optional compression features of the CFP-tree.
// The zero value enables everything at the paper's settings; fields
// exist so ablation benchmarks can switch features off (DESIGN.md §5).
type Config struct {
	// MaxChainLen caps the number of elements per chain node; 0 means
	// the paper's 15. Values are clamped to [2, 255].
	MaxChainLen int
	// DisableChains stores every logical node as a standard node or
	// embedded leaf.
	DisableChains bool
	// DisableEmbed never embeds leaves into parent slots.
	DisableEmbed bool
	// DisableFlatDecode makes the mine phase assemble conditional
	// pattern bases by byte-at-a-time backward traversal of the
	// CFP-array (ScanItem/PathTo) instead of batch-decoding each array
	// into a flat element buffer first. The flat decoding is pure
	// mine-phase scratch, so this switches speed for memory without
	// changing any output; it exists for ablation benchmarks and as
	// the differential-testing reference.
	DisableFlatDecode bool
}

func (c Config) maxChain() int {
	m := c.MaxChainLen
	if m == 0 {
		m = defaultMaxChainLen
	}
	if m < 2 {
		m = 2
	}
	if m > 255 {
		m = 255
	}
	return m
}

// Tree is a ternary CFP-tree over a dense item-rank space
// [0, NumItems). The virtual root has rank -1, so the Δitem of a
// depth-1 node is rank+1 ≥ 1; along every path ranks strictly increase,
// so Δitem ≥ 1 everywhere (§3.2).
type Tree struct {
	cfg   Config
	arena *arena.Arena
	// root is the slot holding the BST of depth-1 nodes. It lives
	// outside the arena, like the virtual root it belongs to.
	root slotVal
	// numNodes counts logical FP-tree nodes (chain elements count
	// individually, embedded leaves count once).
	numNodes int
	// numChains, numEmbedded, numStd count physical representations
	// currently in use, for the compression statistics of §4.2.
	numChains   int
	numEmbedded int
	numStd      int
	// itemName maps local ranks to external identifiers.
	itemName []uint32
	numTx    uint64 // total inserted weight; equals the sum of all pcounts
	// rec, when non-nil, receives structural-event counters (chain
	// splits/extends, conversion triples). Nil-safe per package obs.
	rec *obs.Recorder
}

// NewTree returns an empty CFP-tree using the given arena for node
// storage. The arena may be shared across consecutive trees (reset in
// between); CFP-growth keeps exactly one tree at a time (§4.1).
// itemName is retained, not copied. The tree keeps no item supports: a
// trailing supports argument is accepted and ignored, so that callers
// of the earlier NewTree(a, cfg, itemName, itemCount) still compile.
func NewTree(a *arena.Arena, cfg Config, itemName []uint32, _ ...[]uint64) *Tree {
	return &Tree{cfg: cfg, arena: a, itemName: itemName}
}

// NumNodes returns the number of logical FP-tree nodes.
func (t *Tree) NumNodes() int { return t.numNodes }

// Observe attaches a recorder to the tree's structural events (chain
// splits and extends during Insert, triples written by conversion).
// A nil rec detaches; observation is zero-cost beyond one nil check
// at each (infrequent) event site.
func (t *Tree) Observe(rec *obs.Recorder) { t.rec = rec }

// SetItemSpace re-points the tree's item metadata. Callers that grow
// the item universe incrementally (updatable indexes with a fixed,
// frequency-independent order) use this after appending ranks; the
// rank space may only grow, and existing ranks keep their meaning.
func (t *Tree) SetItemSpace(itemName []uint32) {
	if len(itemName) < len(t.itemName) {
		panic("core: item space may only grow")
	}
	t.itemName = itemName
}

// NumItems returns the size of the item-rank space.
func (t *Tree) NumItems() int { return len(t.itemName) }

// NumTx returns the total weight inserted (the sum of all pcount
// fields; §3.2 notes this equals the number of generating transactions).
func (t *Tree) NumTx() uint64 { return t.numTx }

// Bytes returns the arena bytes currently occupied by live nodes.
func (t *Tree) Bytes() int64 { return int64(t.arena.Live()) }

// Extent returns the total arena bytes carved out (live + free-queue),
// the paper's notion of the structure's memory consumption.
func (t *Tree) Extent() int64 { return int64(t.arena.Extent()) }

// PhysNodes reports the number of physical standard nodes, chain nodes,
// and embedded leaves.
func (t *Tree) PhysNodes() (std, chains, embedded int) {
	return t.numStd, t.numChains, t.numEmbedded
}

// slotRef identifies where a slot lives so it can be rewritten after
// the node it points to is reallocated.
type slotRef struct {
	owner uint64 // arena offset of the owning node; 0 = the tree root
	which int    // 0 = left, 1 = right, 2 = suffix (chains: always 2)
}

var rootRef = slotRef{}

// get reads the slot's current contents.
func (t *Tree) getSlot(r slotRef) slotVal {
	if r.owner == 0 {
		return t.root
	}
	b := t.nodeBytes(r.owner)
	if isChain(b[0]) {
		c, _ := decodeChain(b)
		return c.suffix
	}
	off := slotOffsetStd(b, r.which)
	if off < 0 {
		return slotVal{}
	}
	return readSlot(b[off : off+5])
}

// setSlot writes v into the slot. If the presence bit was previously
// unset the owning node grows by 5 bytes and may move; the caller must
// pass ownerRef (the slot holding the pointer to the owner) so the move
// can be patched. ownerRef is ignored when no move happens.
func (t *Tree) setSlot(r slotRef, v slotVal, ownerRef slotRef) {
	if r.owner == 0 {
		t.root = v
		return
	}
	b := t.nodeBytes(r.owner)
	if isChain(b[0]) {
		c, oldSize := decodeChain(b)
		if c.suffix.kind != slotNone {
			// In-place rewrite of an existing suffix slot.
			writeSlot(b[oldSize-5:oldSize], v)
			return
		}
		// c.deltas aliases the node that replaceChain moves.
		var deltas chainDeltas
		c.deltas = deltas[:copy(deltas[:], c.deltas)]
		c.suffix = v
		t.rec.Add(obs.CtrChainExtends, 1)
		t.replaceChain(r.owner, oldSize, c, ownerRef)
		return
	}
	if off := slotOffsetStd(b, r.which); off >= 0 {
		writeSlot(b[off:off+5], v)
		return
	}
	n, oldSize := decodeStd(b)
	switch r.which {
	case 0:
		n.left = v
	case 1:
		n.right = v
	default:
		n.suffix = v
	}
	t.replaceStd(r.owner, oldSize, n, ownerRef)
}

// nodeBytes returns the bytes from the node at off to the end of the
// arena's used region; decoders stop at the node's own encoded length.
func (t *Tree) nodeBytes(off uint64) []byte {
	return t.arena.Tail(off)
}

// replaceStd re-encodes n over the oldSize-byte node at off, moving it
// if the size changed, and patches ownerRef on a move. Returns the
// node's (possibly new) offset.
func (t *Tree) replaceStd(off uint64, oldSize int, n stdNode, ownerRef slotRef) uint64 {
	size := n.size()
	nu := t.arena.Realloc(off, oldSize, size)
	n.encode(t.arena.Bytes(nu, size))
	if nu != off {
		t.patch(ownerRef, off, nu)
	}
	return nu
}

// replaceChain is replaceStd for chain nodes.
func (t *Tree) replaceChain(off uint64, oldSize int, c chainNode, ownerRef slotRef) uint64 {
	size := c.size()
	nu := t.arena.Realloc(off, oldSize, size)
	c.encode(t.arena.Bytes(nu, size))
	if nu != off {
		t.patch(ownerRef, off, nu)
	}
	return nu
}

// patch rewrites the pointer in ownerRef from old to nu. The owning
// node's size does not change (the slot already exists), so no cascade
// is possible.
func (t *Tree) patch(ownerRef slotRef, old, nu uint64) {
	if ownerRef.owner == 0 {
		if t.root.kind != slotPtr || t.root.ptr != old {
			panic("core: root patch mismatch")
		}
		t.root.ptr = nu
		return
	}
	b := t.nodeBytes(ownerRef.owner)
	var off int
	if isChain(b[0]) {
		_, size := decodeChain(b)
		off = size - 5
	} else {
		off = slotOffsetStd(b, ownerRef.which)
	}
	if off < 0 {
		panic("core: patch of absent slot")
	}
	s := readSlot(b[off : off+5])
	if s.kind != slotPtr || s.ptr != old {
		panic("core: patch pointer mismatch")
	}
	writeSlot(b[off:off+5], ptrSlot(nu))
}

// allocStd encodes n into a fresh chunk and returns its offset.
func (t *Tree) allocStd(n stdNode) uint64 {
	size := n.size()
	off := t.arena.Alloc(size)
	n.encode(t.arena.Bytes(off, size))
	return off
}

// allocChain encodes c into a fresh chunk and returns its offset.
func (t *Tree) allocChain(c chainNode) uint64 {
	size := c.size()
	off := t.arena.Alloc(size)
	c.encode(t.arena.Bytes(off, size))
	return off
}

// freeNode releases the node at off.
func (t *Tree) freeNode(off uint64, size int) {
	t.arena.Free(off, size)
}
