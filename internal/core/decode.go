package core

import (
	"math"
	"unsafe"

	"cfpgrowth/internal/encoding"
)

// This file implements batch decoding of CFP-array triple runs. The
// mining recursion walks ancestor paths constantly (two passes per
// conditional pattern base), and the byte-at-a-time ScanItem/PathTo
// traversal re-decodes the same parent triples once per descendant per
// pass — profiling shows the varint decoder dominating the whole mine
// phase. Batch decoding resolves every element's parent to an element
// index exactly once per CFP-array; after that, a path walk is an
// index chase through a dense array instead of a varint chase through
// the byte region. This is the flat-array mining layout of Grahne–Zhu's
// FPgrowth*, grafted onto the paper's compressed array: the array stays
// the compact, serializable artifact and the decode is transient
// scratch, charged to the run's modeled memory while it is live.
//
// The chase array's byte size is the whole game, twice over: ancestor
// walks are random accesses, so every extra byte per element is paid in
// cache and TLB misses on every step (a naive 16-byte struct layout
// walked ~5x slower than the packed form on the quest benchmarks), and
// the decode is the largest structure of the mine phase, so every byte
// per element is paid in the run's modeled peak. A decoding therefore
// holds nothing but one packed 4-byte walk word per element (8 bytes
// only past 4,095 items or 2^20 elements of one rank) that locates its
// parent, and the per-rank start table. Supports are not stored:
// only the run that owns them reads them, once and sequentially, so the
// miner decodes them from the run's own triples when it builds that
// run's conditional (Array.runCounts). Parent resolution needs each
// element's local byte offset, but only while From runs, so the offsets
// live in the walk slots themselves until the final words replace them.

// walkLayout selects a Decode's walk word, one of three:
//
//   - layoutSmall: walk[i] = parent<<8 | rank, 4 bytes, the parent's
//     global element index beside the element's own rank. It needs
//     fewer than 2^24-1 elements over at most 256 items.
//   - layoutLocal4: walk[i] = parentRank<<20 | parentLocal, 4 bytes,
//     where parentLocal is the parent's index inside its own rank's run;
//     a chase step finds the parent at start[parentRank] + parentLocal.
//     It needs at most 4,095 items and every run shorter than 2^20.
//   - layoutLocal8: the same rank-local word in 64 bits (32/32), for
//     anything larger (up to the 2^31-1 flat index space).
//
// Where the small word fits it stays: its chase step is one load, the
// rank-local step two (the start entry, then the parent), and the
// extra load shows on cache-resident pattern bases. Past 256 items the
// rank-local word is the only 4-byte word: a global parent index and a
// rank together need more than 32 bits. In the small layout the root
// is parent index smallRoot; in the rank-local layouts it is the
// all-ones word, whose rank field names no rank.
type walkLayout uint8

const (
	layoutSmall walkLayout = iota
	layoutLocal4
	layoutLocal8
)

// smallRoot is the small layout's parent-index sentinel marking an
// element that hangs off the virtual root.
const smallRoot = 1<<24 - 1

// Decode is a reusable flat decoding of one CFP-array: every element's
// packed walk word, in storage order (subarrays ascending by rank,
// elements in subarray order, so parents always precede children). The
// zero value is ready; From fills it, reusing the buffers of any
// previous decoding.
//
// Ownership rules (DESIGN.md §5d): a Decode is written only by From
// and is immutable until the next From; concurrent readers (parallel
// mine workers sharing the top-level decode) are safe. Each recursion
// level of the miner owns a private Decode from a per-grower free
// list, so a level's buffer is never touched by its subproblems.
type Decode struct {
	// layout selects the walk word (walkLayout): walk holds the 4-byte
	// words of layoutSmall and layoutLocal4, walkW the 8-byte words of
	// layoutLocal8. The slice not in use is empty.
	layout walkLayout
	walk   []uint32
	walkW  []uint64
	// start[rk] is the index of rank rk's first element; len
	// NumItems+1, mirroring Array.starts.
	start []int32
	// cur is From's scratch, the per-rank findParent cursors: kept only
	// so that the next From reuses it, dead outside From, and not part
	// of the modeled footprint.
	cur []int32
}

// NumElems returns the number of decoded elements.
func (d *Decode) NumElems() int { return len(d.walk) + len(d.walkW) }

// Run returns the element index range [lo, hi) of rank rk's subarray.
func (d *Decode) Run(rk uint32) (lo, hi int32) {
	return d.start[rk], d.start[rk+1]
}

// Bytes returns the modeled footprint of the decoding: the walk words
// and the start table. Charged against the run's memory ledger while
// the decode is live.
func (d *Decode) Bytes() int64 {
	return 4*int64(len(d.walk)) + 8*int64(len(d.walkW)) + 4*int64(len(d.start))
}

// layoutOf returns the walk layout a decoding of a takes. It reads
// only the array's element counts, so it is known before From runs.
func layoutOf(a *Array) walkLayout {
	numItems := a.NumItems()
	if a.NumNodes() < smallRoot && numItems <= 256 {
		return layoutSmall
	}
	if numItems >= 1<<12 {
		return layoutLocal8
	}
	for _, k := range a.nodes {
		if k >= 1<<20 {
			return layoutLocal8
		}
	}
	return layoutLocal4
}

// localShift is the width of the parent-local field of a rank-local
// walk word of type W; the parent's rank sits above it.
func localShift[W walkWord]() uint {
	if unsafe.Sizeof(W(0)) == 8 {
		return 32
	}
	return 20
}

// decodeBytes is the modeled footprint of a's decoding, known before
// From runs: Bytes() once From has filled it.
func decodeBytes(a *Array) int64 {
	per := int64(4)
	if layoutOf(a) == layoutLocal8 {
		per = 8
	}
	return int64(a.NumNodes())*per + int64(a.NumItems()+1)*4
}

// From fills d with the flat decoding of a, reusing d's buffers. It
// reports false — leaving d unusable — when the array exceeds the flat
// index space (more than 2^31-1 elements or a subarray past 4 GiB of
// triple bytes); callers fall back to the byte-chasing traversal.
// Triples are validated at their trust boundaries (Convert, ReadArray),
// so the sweeps run unchecked like Array.decode; debugchecks builds
// re-assert the invariants.
func (d *Decode) From(a *Array) bool {
	n := a.NumNodes()
	numItems := a.NumItems()
	if n > math.MaxInt32 || a.DataBytes() > math.MaxUint32 {
		return false
	}
	d.layout = layoutOf(a)
	d.start = resize(d.start, numItems+1)
	d.cur = resize(d.cur, numItems)
	clear(d.cur)
	if d.layout == layoutLocal8 {
		d.walkW = resize(d.walkW, n)
		d.walk = d.walk[:0]
		decodeFlat(a, d.walkW, d.start, d.cur, false)
		return true
	}
	d.walk = resize(d.walk, n)
	d.walkW = d.walkW[:0]
	decodeFlat(a, d.walk, d.start, d.cur, d.layout == layoutSmall)
	return true
}

// resize returns buf with length n, reusing its capacity when it
// suffices; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// decodeFlat is From's body, in two sweeps for every layout. Each
// element's parent is found among the local byte offsets of the
// parent's rank, which the walk slots hold until their final words
// replace them, so no offset array is allocated. A parent's rank is
// always lower than its child's (Δitem ≥ 1). Pass 1, ascending ranks,
// writes each element's offset into its slot; pass 2, descending ranks,
// resolves parents and overwrites the slots with their words (small
// selects layoutSmall's word, the rank-local one otherwise), so a
// rank's offsets stay in place until every rank that can point into it
// is done. cur holds the findParent cursors and must arrive zeroed.
func decodeFlat[W walkWord](a *Array, walk []W, start, cur []int32, small bool) {
	numItems := int64(len(start) - 1)
	idx := int32(0)
	for rk := int64(0); rk < numItems; rk++ {
		start[rk] = idx
		b := a.data[a.starts[rk]:a.starts[rk+1]]
		// Triple boundaries without decoding: every byte below 0x80
		// ends a varint, and every third varint ends a triple.
		pos, ends := 0, 0
		for i, c := range b {
			if c >= 0x80 {
				continue
			}
			if ends++; ends == 3 {
				walk[idx] = W(pos)
				idx++
				pos, ends = i+1, 0
			}
		}
		if debugChecks {
			assertf(ends == 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
		}
	}
	start[numItems] = idx
	for rk := numItems - 1; rk >= 0; rk-- {
		resolveRun(a, walk, start, cur, uint32(rk), small)
	}
}

// resolveRun decodes rank rk's triples, finds each one's parent, and
// overwrites each element's slot with its walk word: parent index above
// the rank when small, the parent's rank above its index in that rank's
// run otherwise.
func resolveRun[W walkWord](a *Array, walk []W, start, cur []int32, rk uint32, small bool) {
	shift := localShift[W]()
	b := a.data[a.starts[rk]:a.starts[rk+1]]
	idx := start[rk]
	pos := 0
	for pos < len(b) {
		delta, n1 := encoding.Uvarint(b[pos:])
		if debugChecks {
			assertf(n1 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
			assertf(delta >= 1, "core: zero Δitem at rank %d offset %d", rk, pos)
		}
		z, n2 := encoding.Uvarint(b[pos+n1:])
		if debugChecks {
			assertf(n2 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
		}
		c, n3 := encoding.Uvarint(b[pos+n1+n2:])
		if debugChecks {
			assertf(n3 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
			assertf(c > 0, "core: zero count at rank %d offset %d", rk, pos)
			assertf(c <= math.MaxUint32, "core: count %d overflows uint32 at rank %d offset %d", c, rk, pos)
			assertf(int64(pos) <= math.MaxUint32, "core: triple offset overflows 32 bits at rank %d", rk)
		}
		w := ^W(0)
		if small {
			w = smallRoot<<8 | W(rk)
		}
		if delta <= uint64(rk) {
			pr := rk - uint32(delta)
			pl := int64(pos) - encoding.Unzigzag(z)
			if debugChecks {
				assertf(pl >= 0 && pl <= math.MaxUint32, "core: parent local offset out of range at rank %d offset %d", rk, pos)
			}
			j := findParent(walk, start, cur, pr, uint32(pl))
			if debugChecks {
				assertf(j >= 0, "core: unresolved parent (rank %d local %d) of rank %d offset %d", pr, pl, rk, pos)
			}
			switch {
			case j < 0:
			case small:
				w = W(j)<<8 | W(rk)
			default:
				w = W(pr)<<shift | W(j-start[pr])
			}
		}
		walk[idx] = w
		idx++
		pos += n1 + n2 + n3
	}
}

// findParent resolves a parent's (rank, local byte offset) pair to its
// element index by searching rank pr's segment of walk while its slots
// still hold their strictly increasing offsets. Convert writes triples
// depth-first, so the children of one rank meet their parents of one
// rank in ascending order: the lookup gallops forward from the last
// hit cur[pr] and narrows the binary search to the bracket it finds.
// Any other order (ReadArray accepts every order in which parents
// resolve) takes the binary search below the hint.
func findParent[W walkWord](walk []W, start, cur []int32, pr uint32, local uint32) int32 {
	lo, hi := start[pr], start[pr+1]
	if c := cur[pr]; c >= lo && c < hi {
		switch v := uint32(walk[c]); {
		case v == local:
			return c
		case v > local:
			hi = c
		default:
			// Gallop: probe c+1, c+3, c+7, … until a probe reaches
			// local, then search the bracket after the last probe
			// below it.
			lo = c + 1
			end, step := int64(hi), int64(1)
			for p := int64(lo); p < end; p += step {
				if uint32(walk[p]) >= local {
					hi = int32(p + 1)
					break
				}
				lo = int32(p + 1)
				if step < 1<<30 {
					step += step
				}
			}
		}
	}
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if uint32(walk[mid]) < local {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < start[pr+1] && uint32(walk[lo]) == local {
		cur[pr] = lo
		return lo
	}
	return -1
}

// runCounts decodes the counts of rank rk's run into buf, reusing its
// capacity, in one sequential sweep that skips Δitem and Δpos; buf[k]
// is the count of the run's k-th element. Every count fits 32 bits:
// Convert builds from 32-bit tree counts, and ReadArray rejects wider
// ones.
func (a *Array) runCounts(rk uint32, buf []uint32) []uint32 {
	if cap(buf) < a.nodes[rk] {
		buf = make([]uint32, 0, a.nodes[rk])
	}
	buf = buf[:0]
	b := a.data[a.starts[rk]:a.starts[rk+1]]
	pos := 0
	for pos < len(b) {
		n1 := encoding.SkipUvarint(b[pos:])
		if debugChecks {
			assertf(n1 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
		}
		n2 := encoding.SkipUvarint(b[pos+n1:])
		if debugChecks {
			assertf(n2 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
		}
		c, n3 := encoding.Uvarint(b[pos+n1+n2:])
		if debugChecks {
			assertf(n3 > 0, "core: truncated CFP-array triple at rank %d offset %d", rk, pos)
			assertf(c > 0 && c <= math.MaxUint32, "core: count out of range at rank %d offset %d", rk, pos)
		}
		buf = append(buf, uint32(c&math.MaxUint32))
		pos += n1 + n2 + n3
	}
	return buf
}
