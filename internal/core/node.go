// Package core implements the paper's primary contribution: the
// CFP-tree (a compressed ternary prefix tree used in the build phase,
// §3.2–3.3), the CFP-array (an item-clustered array representation used
// in the mine phase, §3.4), the conversion between them (§3.5), and the
// CFP-growth mining algorithm that combines them.
package core

import (
	"fmt"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/encoding"
)

// Physical node formats of the ternary CFP-tree (§3.3 and DESIGN.md §4).
//
// Standard node: one mask byte [d1 d0 | p2 p1 p0 | L R S] followed by
// the non-zero bytes of Δitem (4-d bytes, big-endian), the non-zero
// bytes of pcount (4-p bytes), and a 5-byte slot for each set presence
// bit, in L, R, S order. p ranges over 0–4; p == 7 marks a chain node.
//
// Chain node: header byte [0 0 | 1 1 1 | S 0 0], a length byte
// (2–maxChainLen), length Δitem bytes (each 1–255), a pcount mask byte
// (suppressed zero bytes 0–4) with its 4-mask pcount bytes, and, if S,
// a 5-byte suffix slot. It represents a path of length nodes: all but
// the last have pcount 0 and exactly one child (the next element); the
// last carries the stored pcount and the optional suffix.
//
// Embedded leaf: lives inside a 5-byte slot of its parent instead of
// the arena: marker byte 0xFF, one Δitem byte, three pcount bytes.
// 40-bit arena offsets never start with 0xFF, so slots are
// self-describing.

const (
	maskChainP         = 7 // p-field value marking a chain node
	chainHeader        = byte(maskChainP << 3)
	defaultMaxChainLen = 15 // paper §4.1: longer chains are broken up

	// embedMaxPcount is the largest pcount an embedded leaf can hold
	// (three bytes).
	embedMaxPcount = 1<<24 - 1
	// embedMaxDelta is the largest Δitem an embedded leaf (or chain
	// element) can hold (one byte).
	embedMaxDelta = 255
)

// slotKind describes the contents of a 5-byte slot.
type slotKind uint8

const (
	slotNone  slotKind = iota // slot absent (presence bit 0) or empty root
	slotPtr                   // 40-bit arena offset of a node
	slotEmbed                 // embedded leaf
)

// slotVal is the decoded contents of a slot.
type slotVal struct {
	kind slotKind
	ptr  uint64 // arena offset when kind == slotPtr
	// Embedded-leaf payload when kind == slotEmbed.
	eDelta  uint32 // Δitem, 1..255
	ePcount uint32 // pcount, < 2^24
}

func ptrSlot(off uint64) slotVal { return slotVal{kind: slotPtr, ptr: off} }

func embedSlot(delta, pcount uint32) slotVal {
	return slotVal{kind: slotEmbed, eDelta: delta, ePcount: pcount}
}

// writeSlot serializes v into the 5-byte region b.
func writeSlot(b []byte, v slotVal) {
	switch v.kind {
	case slotPtr:
		off := v.ptr
		if debugChecks {
			assertf(off <= encoding.MaxPtr40, "core: arena offset %#x exceeds MaxPtr40", off)
		}
		encoding.PutPtr40(b, off)
	case slotEmbed:
		if debugChecks {
			assertf(v.eDelta >= 1 && v.eDelta <= embedMaxDelta,
				"core: embedded-leaf Δitem %d outside 1..%d", v.eDelta, embedMaxDelta)
			assertf(v.ePcount <= embedMaxPcount,
				"core: embedded-leaf pcount %d exceeds %d", v.ePcount, embedMaxPcount)
		}
		b[0] = encoding.Ptr40EmbedMarker
		b[1] = byte(v.eDelta)
		b[2] = byte(v.ePcount >> 16)
		b[3] = byte(v.ePcount >> 8)
		b[4] = byte(v.ePcount)
	default:
		panic("core: writeSlot of absent slot")
	}
}

// readSlot deserializes a present 5-byte slot.
func readSlot(b []byte) slotVal {
	if b[0] == encoding.Ptr40EmbedMarker {
		return slotVal{
			kind:    slotEmbed,
			eDelta:  uint32(b[1]),
			ePcount: uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4]),
		}
	}
	return slotVal{kind: slotPtr, ptr: encoding.Ptr40(b)}
}

// stdNode is the decoded form of a standard node.
type stdNode struct {
	delta  uint32 // Δitem ≥ 1
	pcount uint32
	left   slotVal
	right  slotVal
	suffix slotVal
}

// size returns the encoded size in bytes.
func (n *stdNode) size() int {
	s := 1 + deltaLen(n.delta) + pcountLen(n.pcount)
	if n.left.kind != slotNone {
		s += encoding.Ptr40Len
	}
	if n.right.kind != slotNone {
		s += encoding.Ptr40Len
	}
	if n.suffix.kind != slotNone {
		s += encoding.Ptr40Len
	}
	return s
}

// deltaLen is the number of stored Δitem bytes (1–4; Δitem ≥ 1).
func deltaLen(delta uint32) int {
	zb := encoding.ZeroBytes32(delta)
	if zb > 3 {
		zb = 3 // Δitem is never 0, but be defensive: store one byte
	}
	return 4 - zb
}

// pcountLen is the number of stored pcount bytes (0–4).
func pcountLen(pcount uint32) int {
	return 4 - encoding.ZeroBytes32(pcount)
}

// encode serializes n into b, which must be exactly n.size() bytes.
func (n *stdNode) encode(b []byte) {
	if debugChecks {
		assertf(n.delta >= 1, "core: standard node with zero Δitem")
	}
	dl := deltaLen(n.delta)
	pl := pcountLen(n.pcount)
	mask := byte(4-dl) << 6
	mask |= byte(4-pl) << 3
	if n.left.kind != slotNone {
		mask |= 1 << 2
	}
	if n.right.kind != slotNone {
		mask |= 1 << 1
	}
	if n.suffix.kind != slotNone {
		mask |= 1
	}
	b[0] = mask
	pos := 1
	pos += encoding.PutSuppressed32(b[pos:], n.delta, 4-dl)
	pos += encoding.PutSuppressed32(b[pos:], n.pcount, 4-pl)
	for _, s := range []slotVal{n.left, n.right, n.suffix} {
		if s.kind != slotNone {
			writeSlot(b[pos:pos+encoding.Ptr40Len], s)
			pos += encoding.Ptr40Len
		}
	}
	if pos != len(b) {
		panic(fmt.Sprintf("core: stdNode encode wrote %d of %d bytes", pos, len(b)))
	}
}

// isChain reports whether the node starting with mask byte m is a chain
// node.
func isChain(m byte) bool { return (m>>3)&7 == maskChainP }

// decodeStd parses the standard node at b (which may extend beyond the
// node) and returns it with its encoded size.
func decodeStd(b []byte) (stdNode, int) {
	m := b[0]
	if isChain(m) {
		panic("core: decodeStd on chain node")
	}
	dzb := int(m >> 6)
	pzb := int(m >> 3 & 7)
	pos := 1
	var n stdNode
	n.delta = encoding.Suppressed32(b[pos:], dzb)
	pos += 4 - dzb
	n.pcount = encoding.Suppressed32(b[pos:], pzb)
	pos += 4 - pzb
	if debugChecks {
		assertf(n.delta >= 1, "core: decoded standard node with zero Δitem")
	}
	if m&(1<<2) != 0 {
		n.left = readSlot(b[pos : pos+encoding.Ptr40Len])
		pos += encoding.Ptr40Len
	}
	if m&(1<<1) != 0 {
		n.right = readSlot(b[pos : pos+encoding.Ptr40Len])
		pos += encoding.Ptr40Len
	}
	if m&1 != 0 {
		n.suffix = readSlot(b[pos : pos+encoding.Ptr40Len])
		pos += encoding.Ptr40Len
	}
	return n, pos
}

// slotOffsetStd returns the byte offset of the given slot (0 = left,
// 1 = right, 2 = suffix) inside the encoded standard node b, or -1 if
// the presence bit is unset.
func slotOffsetStd(b []byte, which int) int {
	if debugChecks {
		assertf(which >= 0 && which <= 2, "core: slot index %d outside 0..2", which)
	}
	m := b[0]
	bit := byte(1 << (2 - which))
	if m&bit == 0 {
		return -1
	}
	pos := 1 + (4 - int(m>>6)) + (4 - int(m>>3&7))
	for w := 0; w < which; w++ {
		if m&(1<<(2-w)) != 0 {
			pos += encoding.Ptr40Len
		}
	}
	return pos
}

// chainDeltas holds the Δitem bytes of a chain node of any length,
// copied out of the arena while the node is rewritten.
type chainDeltas [255]byte

// chainNode is the decoded form of a chain node.
type chainNode struct {
	deltas []byte  // Δitem of each element, 1..255
	pcount uint32  // pcount of the last element
	suffix slotVal // child slot of the last element
}

// size returns the encoded size in bytes.
func (c *chainNode) size() int {
	s := 2 + len(c.deltas) + 1 + pcountLen(c.pcount)
	if c.suffix.kind != slotNone {
		s += encoding.Ptr40Len
	}
	return s
}

// encode serializes c into b, which must be exactly c.size() bytes.
func (c *chainNode) encode(b []byte) {
	if len(c.deltas) < 2 || len(c.deltas) > 255 {
		panic(fmt.Sprintf("core: chain of length %d", len(c.deltas)))
	}
	h := chainHeader
	if c.suffix.kind != slotNone {
		h |= 1 << 2
	}
	b[0] = h
	b[1] = byte(len(c.deltas))
	pos := 2
	copy(b[pos:], c.deltas)
	pos += len(c.deltas)
	pl := pcountLen(c.pcount)
	b[pos] = byte(4 - pl)
	pos++
	pos += encoding.PutSuppressed32(b[pos:], c.pcount, 4-pl)
	if c.suffix.kind != slotNone {
		writeSlot(b[pos:pos+encoding.Ptr40Len], c.suffix)
		pos += encoding.Ptr40Len
	}
	if pos != len(b) {
		panic(fmt.Sprintf("core: chainNode encode wrote %d of %d bytes", pos, len(b)))
	}
}

// decodeChain parses the chain node at b and returns it with its
// encoded size. The returned deltas slice aliases b.
func decodeChain(b []byte) (chainNode, int) {
	h := b[0]
	if !isChain(h) {
		panic("core: decodeChain on standard node")
	}
	l := int(b[1])
	if debugChecks {
		assertf(l >= 2, "core: decoded chain of length %d", l)
	}
	var c chainNode
	c.deltas = b[2 : 2+l]
	pos := 2 + l
	pzb := int(b[pos])
	pos++
	c.pcount = encoding.Suppressed32(b[pos:], pzb)
	pos += 4 - pzb
	if h&(1<<2) != 0 {
		c.suffix = readSlot(b[pos : pos+encoding.Ptr40Len])
		pos += encoding.Ptr40Len
	}
	return c, pos
}

// nodeSizeAt returns the encoded size of the node at offset off.
func nodeSizeAt(a *arena.Arena, off uint64) int {
	b := a.Bytes(off, 2)
	if isChain(b[0]) {
		l := int(b[1])
		full := a.Bytes(off, 2+l+1)
		pzb := int(full[2+l])
		s := 2 + l + 1 + (4 - pzb)
		if full[0]&(1<<2) != 0 {
			s += encoding.Ptr40Len
		}
		return s
	}
	m := b[0]
	s := 1 + (4 - int(m>>6)) + (4 - int(m>>3&7))
	for bit := byte(4); bit != 0; bit >>= 1 {
		if m&bit != 0 {
			s += encoding.Ptr40Len
		}
	}
	return s
}
