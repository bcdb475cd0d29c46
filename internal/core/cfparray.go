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
	d, n1 := encoding.Uvarint(b)
	if debugChecks {
		assertf(n1 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
		assertf(d >= 1 && d <= math.MaxUint32, "core: Δitem out of range at rank %d local %d", rk, local)
	}
	z, n2 := encoding.Uvarint(b[n1:])
	if debugChecks {
		assertf(n2 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
	}
	return uint32(d), encoding.Unzigzag(z)
}

// decode reads one full (Δitem, Δpos, count) triple.
func (a *Array) decode(rk uint32, local uint64, b []byte) (Element, int) {
	d, n1 := encoding.Uvarint(b)
	if debugChecks {
		assertf(n1 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
		assertf(d >= 1 && d <= math.MaxUint32, "core: Δitem out of range at rank %d local %d", rk, local)
	}
	z, n2 := encoding.Uvarint(b[n1:])
	if debugChecks {
		assertf(n2 > 0, "core: truncated CFP-array triple at rank %d local %d", rk, local)
	}
	c, n3 := encoding.Uvarint(b[n1+n2:])
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
// rank the path has overshot. Cost is O(nodes of the least frequent
// item × path length); no mining run is needed, and nothing is
// allocated.
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
	rest := ranks[:len(ranks)-1]
	var sup uint64
	// One sequential sweep decodes the run in place; the per-element
	// ancestor walks below need no other state from it.
	b := a.data[a.starts[last]:a.starts[last+1]]
	for pos := 0; pos < len(b); {
		d, n1 := encoding.Uvarint(b[pos:])
		if debugChecks {
			assertf(n1 > 0, "core: truncated CFP-array triple at rank %d offset %d", last, pos)
			assertf(d >= 1 && d <= math.MaxUint32, "core: Δitem out of range at rank %d offset %d", last, pos)
		}
		z, n2 := encoding.Uvarint(b[pos+n1:])
		if debugChecks {
			assertf(n2 > 0, "core: truncated CFP-array triple at rank %d offset %d", last, pos)
		}
		c, n3 := encoding.Uvarint(b[pos+n1+n2:])
		if debugChecks {
			assertf(n3 > 0, "core: truncated CFP-array triple at rank %d offset %d", last, pos)
			assertf(c > 0, "core: zero count at rank %d offset %d", last, pos)
		}
		// Ancestor ranks arrive strictly decreasing; rest is strictly
		// increasing, so match it from the back. The walk stops at the
		// first mismatch that can no longer be repaired: once the path
		// descends below the rank it needs next (ranks only decrease),
		// the subset check has failed for this element.
		need := len(rest) - 1
		rk, local, delta, dpos := last, uint64(pos), uint32(d), encoding.Unzigzag(z)
		for need >= 0 && int64(rk)-int64(delta) >= 0 {
			rk -= delta
			nl := int64(local) - dpos
			if debugChecks {
				assertf(nl >= 0, "core: negative parent position at rank %d", rk)
			}
			local = uint64(nl)
			if rk == rest[need] {
				need--
			} else if rk < rest[need] {
				break // overshot: this path misses rest[need]
			}
			if need < 0 {
				break
			}
			delta, dpos = a.ParentFields(rk, local)
		}
		if need < 0 {
			sup += c
		}
		pos += n1 + n2 + n3
	}
	return sup
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
