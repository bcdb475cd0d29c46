package core

import (
	"math"

	"cfpgrowth/internal/encoding"
)

// Array is the CFP-array (§3.4): all FP-tree nodes laid out as
// variable-byte-encoded (Δitem, Δpos, count) triples, clustered into
// one consecutive subarray per item in ascending item order. The
// clustering makes nodelinks redundant: all nodes of an item are found
// by scanning its subarray, so sideways traversal is a sequential read.
//
// Δitem is the delta to the parent's item rank (the virtual root has
// rank -1, so parentless nodes carry Δitem = rank+1). Δpos is the
// zigzag-encoded difference between the node's and its parent's local
// positions (byte offsets within their respective subarrays). count is
// the full FP-tree count: partial counts are not used here because the
// array offers no efficient access to descendants (§3.4).
//
// The field order Δitem, Δpos, count lets backward traversal skip the
// count field entirely: a parent's Δitem and Δpos are read without ever
// decoding its count.
type Array struct {
	data []byte
	// starts has NumItems+1 entries; subarray of rank i is
	// data[starts[i]:starts[i+1]].
	starts []uint64
	// support is the summed count per item rank.
	support []uint64
	// nodes is the element count per item rank.
	nodes []int
	// itemName maps local ranks to external identifiers.
	itemName []uint32
	numNodes int
}

// IndexEntrySize is the modeled per-item size of the item index: a
// 40-bit starting position plus a 4-byte support, rounded to whole
// bytes. The paper stores the index as a small array (§3.4).
const IndexEntrySize = 9

// NumItems returns the size of the item-rank space.
func (a *Array) NumItems() int { return len(a.itemName) }

// NumNodes returns the number of elements (FP-tree nodes).
func (a *Array) NumNodes() int { return a.numNodes }

// Support returns the support of item rank rk.
func (a *Array) Support(rk uint32) uint64 { return a.support[rk] }

// Nodes returns the number of elements in rank rk's subarray.
func (a *Array) Nodes(rk uint32) int { return a.nodes[rk] }

// ItemName translates a local rank to its external identifier.
func (a *Array) ItemName(rk uint32) uint32 { return a.itemName[rk] }

// DataBytes returns the size of the triple storage.
func (a *Array) DataBytes() int64 { return int64(len(a.data)) }

// Bytes returns the modeled total footprint: triples plus item index.
func (a *Array) Bytes() int64 {
	return a.DataBytes() + int64(len(a.itemName))*IndexEntrySize
}

// Element is a decoded CFP-array triple.
type Element struct {
	Rank  uint32 // item rank (derived from the subarray, not stored)
	Local uint64 // local position: byte offset within the subarray
	Delta uint32 // Δitem to the parent (Rank+1 when parentless)
	Dpos  int64  // local-position delta to the parent
	Count uint64
}

// HasParent reports whether the element has a real parent node.
func (e *Element) HasParent() bool { return int64(e.Rank)-int64(e.Delta) >= 0 }

// ParentRank returns the parent's item rank; only valid if HasParent.
func (e *Element) ParentRank() uint32 { return e.Rank - e.Delta }

// ParentLocal returns the parent's local position; only valid if
// HasParent.
func (e *Element) ParentLocal() uint64 {
	p := int64(e.Local) - e.Dpos
	if debugChecks {
		assertf(p >= 0, "core: ParentLocal of parentless element at rank %d", e.Rank)
	}
	return uint64(p)
}

// ScanItem iterates rank rk's subarray in storage order, invoking fn
// for each element. This is the sideways traversal that replaces
// nodelink chains.
func (a *Array) ScanItem(rk uint32, fn func(e Element) bool) {
	lo, hi := a.starts[rk], a.starts[rk+1]
	pos := lo
	for pos < hi {
		e, n := a.decode(rk, pos-lo, a.data[pos:hi])
		if !fn(e) {
			return
		}
		pos += uint64(n)
	}
}

// At decodes the element of rank rk at the given local position.
func (a *Array) At(rk uint32, local uint64) Element {
	lo := a.starts[rk]
	e, _ := a.decode(rk, local, a.data[lo+local:a.starts[rk+1]])
	return e
}

// ParentFields decodes only Δitem and Δpos of the element at (rk,
// local) — the backward-traversal fast path that never touches count.
// Triples are validated once at their trust boundaries (Convert for
// in-process builds, ReadArray for files), so the decoders below run
// unchecked; debugchecks builds re-assert the invariants here.
func (a *Array) ParentFields(rk uint32, local uint64) (delta uint32, dpos int64) {
	b := a.data[a.starts[rk]+local:]
	d, n1 := readUvarint(b)
	if debugChecks {
		assertf(n1 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
		assertf(d >= 1 && d <= math.MaxUint32, "core: Δitem out of range at rank %d local %d", rk, local)
	}
	z, n2 := readUvarint(b[n1:])
	if debugChecks {
		assertf(n2 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
	}
	return uint32(d), encoding.Unzigzag(z)
}

// decode reads one full (Δitem, Δpos, count) triple.
func (a *Array) decode(rk uint32, local uint64, b []byte) (Element, int) {
	d, n1 := readUvarint(b)
	if debugChecks {
		assertf(n1 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
		assertf(d >= 1 && d <= math.MaxUint32, "core: Δitem out of range at rank %d local %d", rk, local)
	}
	z, n2 := readUvarint(b[n1:])
	if debugChecks {
		assertf(n2 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
	}
	c, n3 := readUvarint(b[n1+n2:])
	if debugChecks {
		assertf(n3 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
		assertf(c > 0, "core: zero count at rank %d local %d", rk, local)
	}
	return Element{
		Rank:  rk,
		Local: local,
		Delta: uint32(d),
		Dpos:  encoding.Unzigzag(z),
		Count: c,
	}, n1 + n2 + n3
}

// SupportOf returns the exact support of the itemset given as strictly
// increasing item ranks — the paper's §2.1 point query ("add up the
// counts of the prefixes that contain I and end with the least
// frequent item in I"), executed on the CFP-array: sweep the last
// item's subarray and, per element, walk the ancestor path backward
// checking that it covers the rest of the set, bailing on the first
// rank the path has overshot. Convert lays each subarray out
// depth-first, so consecutive elements share the top of their paths:
// within the call, each walk's outcome is memoized under every ancestor
// it passed, with the number of items it still needed there, and a
// later walk that reaches such a pair takes the outcome and stops. Cost
// is at most O(nodes of the least frequent item × path length) hops;
// while the memo keeps every pair, it is at most one hop per element
// plus one per distinct ancestor the walks pass. A one-item set is
// answered from the item's support without a sweep. No mining run is
// needed, and nothing is allocated.
func (a *Array) SupportOf(ranks []uint32) uint64 {
	if len(ranks) == 0 {
		return 0
	}
	last := ranks[len(ranks)-1]
	if int(last) >= a.NumItems() {
		return 0
	}
	// Length guard: ranks are strictly increasing along any tree path,
	// so a path ending at rank r holds at most r ancestors — an
	// itemset with more than last+1 members is coverable by no path,
	// and the subarray scan can be skipped outright.
	if len(ranks) > int(last)+1 {
		return 0
	}
	// Every element of the run is a prefix ending with last, and the
	// run's counts sum to its support (Convert sums them, ReadArray
	// checks the sum).
	if len(ranks) == 1 {
		return a.support[last]
	}
	// For a fixed query, whether the rest of a walk covers rest depends
	// only on the ancestor it has reached and the number of items it
	// still needs there, so a memoized pair's outcome is the walk's own.
	// A walk writes the pairs it passes as it goes, and gives them its
	// outcome when it ends; a walk never reaches one node twice, so no
	// walk reads a pair before its outcome is written.
	rest := ranks[:len(ranks)-1]
	var memo [memoSlots]memoSlot
	var trail [trailLen]uint8
	var sup uint64
	run := a.data[a.starts[last]:a.starts[last+1]]
	for pos := 0; pos < len(run); {
		// The sweep reads the fields inline; debugchecks builds also
		// decode them through decode and ParentFields, which assert
		// them.
		if debugChecks {
			a.decode(last, uint64(pos), run[pos:])
		}
		b := run[pos:]
		d, n1 := readUvarint(b)
		z, n2 := readUvarint(b[n1:])
		c, n3 := readUvarint(b[n1+n2:])
		local := uint64(pos)
		pos += n1 + n2 + n3
		// Ancestor ranks arrive strictly decreasing; rest is strictly
		// increasing, so match it from the back. The walk stops at the
		// first mismatch that can no longer be repaired: once the path
		// descends below the rank it needs next (ranks only decrease),
		// the subset check has failed for this element. nt counts the
		// pairs the walk has written.
		need := len(rest) - 1
		rk, delta, dpos := last, uint32(d), encoding.Unzigzag(z)
		found, nt := false, 0
		for int64(rk)-int64(delta) >= 0 {
			rk -= delta
			nl := int64(local) - dpos
			if debugChecks {
				assertf(nl >= 0, "core: negative parent position at rank %d", rk)
			}
			local = uint64(nl)
			if rk == rest[need] {
				if need--; need < 0 {
					found = true
					break
				}
			} else if rk < rest[need] {
				break // overshot: this path misses rest[need]
			}
			at := a.starts[rk] + local
			m := &memo[uint8(rk)]
			if m.at == at+1 && m.need == uint32(need) {
				found = m.found
				break
			}
			if nt < trailLen {
				*m = memoSlot{at: at + 1, need: uint32(need)}
				trail[nt] = uint8(rk)
				nt++
			}
			if debugChecks {
				a.ParentFields(rk, local)
			}
			p := a.data[at:]
			dd, m1 := readUvarint(p)
			zz, _ := readUvarint(p[m1:])
			delta, dpos = uint32(dd), encoding.Unzigzag(zz)
		}
		if found {
			for _, s := range trail[:nt] {
				memo[s].found = true
			}
			sup += c
		}
	}
	return sup
}

// The walk memo of one SupportOf call is a direct-mapped table of
// memoSlots pairs on the stack, one per value of the low byte of an
// ancestor's rank, which picks its slot. The ranks of one path strictly
// decrease, so a walk's ancestors fall into distinct slots unless their
// ranks are a multiple of memoSlots apart, and a slot keeps the last
// node of its ranks that a walk passed: depth-first, the next elements'
// walks are the ones to reach it again.
const (
	memoSlots = 256
	// trailLen is the number of a walk's ancestors, nearest its element
	// first, that the walk writes to the memo.
	trailLen = 64
)

// memoSlot is one pair of the walk memo and its walk's outcome.
type memoSlot struct {
	at    uint64 // the node's data offset plus one; 0 while empty
	need  uint32 // the number of query items still needed there
	found bool   // whether the walk covered the query
}

// readUvarint decodes the variable-byte value at the start of b as
// encoding.Uvarint does, for the values the array holds. Most fields
// take one or two bytes, which it reads inline; longer ones loop
// without the overflow checks, as triples are validated where they
// enter (Convert, ReadArray). It is small enough to inline into the
// decoders above. A truncated value returns n = 0, as from
// encoding.Uvarint.
func readUvarint(b []byte) (v uint64, n int) {
	if debugChecks && len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) > 1 && b[1] < 0x80 {
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	for i, c := range b {
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// PathTo appends to buf the item ranks of the element's ancestors
// (excluding the element itself), from nearest to the root, by backward
// traversal. Used to assemble conditional pattern bases.
func (a *Array) PathTo(e Element, buf []uint32) []uint32 {
	rk, local, delta, dpos := e.Rank, e.Local, e.Delta, e.Dpos
	if debugChecks {
		assertf(delta >= 1, "core: zero Δitem seed at rank %d", rk)
	}
	for int64(rk)-int64(delta) >= 0 {
		rk -= delta
		nl := int64(local) - dpos
		if debugChecks {
			assertf(nl >= 0, "core: negative parent position at rank %d", rk)
		}
		local = uint64(nl)
		buf = append(buf, rk)
		delta, dpos = a.ParentFields(rk, local)
	}
	return buf
}
