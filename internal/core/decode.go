package core

import (
	"math"

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
// holds nothing but one packed walk word per element that locates its
// parent — 4 bytes up to 256 items; past that 3 bytes while every run
// is under 4,096 elements, 4 bytes while every run is under 2^20, and
// 8 only past 4,095 items or such a run — and the per-rank start
// table. Supports
// are not stored: only the run that owns them reads them, once and
// sequentially, so the miner decodes them from the run's own triples
// when it builds that run's conditional (Array.runCounts). Parent
// resolution needs each element's local byte offset, but only while
// From runs, so the offsets live in the walk slots themselves until the
// final words replace them.

// walkLayout selects a Decode's walk word, one of four, listed in the
// order layoutOf prefers them:
//
//   - layoutSmall: walk[i] = parent<<8 | rank, 4 bytes, the parent's
//     global element index beside the element's own rank. It needs
//     fewer than 2^24-1 elements over at most 256 items.
//   - layoutLocal3: walk3 word i = parentRank<<12 | parentLocal, 3
//     bytes, where parentLocal is the parent's index inside its own
//     rank's run; a chase step finds the parent at start[parentRank] +
//     parentLocal. It needs at most 4,095 items and every run shorter
//     than 2^12. A step reads the word with one unaligned 4-byte load
//     masked to 24 bits, so walk3 ends in one pad byte.
//   - layoutLocal4: the same rank-local word in 32 bits (12/20), for
//     runs shorter than 2^20.
//   - layoutLocal8: the same rank-local word in 64 bits (32/32), for
//     anything larger (up to the 2^31-1 flat index space).
//
// Where the small word fits it stays: its chase step is one load, the
// rank-local step two (the start entry, then the parent), and the
// extra load shows on cache-resident pattern bases. Past 256 items the
// rank-local word is the only word of 4 bytes or less: a global parent
// index and a rank together need more than 32 bits. Each rank-local
// layout fixes its field split, so the shifts and masks are constants
// in its chase. In the small layout the root is parent index
// smallRoot; in the rank-local layouts it is the all-ones word, whose
// rank field names no rank.
type walkLayout uint8

const (
	layoutSmall walkLayout = iota
	layoutLocal3
	layoutLocal4
	layoutLocal8
)

// smallRoot is the small layout's parent-index sentinel marking an
// element that hangs off the virtual root.
const smallRoot = 1<<24 - 1

// local3Shift is the width of layoutLocal3's parent-local field, and
// local3Root its root word.
const (
	local3Shift = 12
	local3Root  = 1<<24 - 1
)

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
	// words of layoutSmall and layoutLocal4, walk3 the 3-byte words of
	// layoutLocal3 and its pad byte, walkW the 8-byte words of
	// layoutLocal8. The slices not in use are empty.
	layout walkLayout
	walk   []uint32
	walk3  []byte
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
func (d *Decode) NumElems() int { return len(d.walk) + len(d.walk3)/3 + len(d.walkW) }

// Run returns the element index range [lo, hi) of rank rk's subarray.
func (d *Decode) Run(rk uint32) (lo, hi int32) {
	return d.start[rk], d.start[rk+1]
}

// Bytes returns the modeled footprint of the decoding: the walk words
// (with layoutLocal3's pad byte) and the start table. Charged against
// the run's memory ledger while the decode is live.
func (d *Decode) Bytes() int64 {
	return 4*int64(len(d.walk)) + int64(len(d.walk3)) + 8*int64(len(d.walkW)) + 4*int64(len(d.start))
}

// layoutOf returns the walk layout a decoding of a takes: the first of
// the four that fits. It reads only the array's element counts, so it
// is known before From runs.
func layoutOf(a *Array) walkLayout {
	l := layoutSmall
	for !layoutFits(a, l) {
		l++
	}
	return l
}

// layoutFits reports whether every element of a can take l's walk
// word. layoutLocal8 takes any array within the flat index space.
func layoutFits(a *Array, l walkLayout) bool {
	numItems := a.NumItems()
	switch l {
	case layoutSmall:
		return a.NumNodes() < smallRoot && numItems <= 256
	case layoutLocal8:
		return true
	}
	if numItems >= 1<<12 {
		return false
	}
	for _, k := range a.nodes {
		if k >= 1<<localShift(l) {
			return false
		}
	}
	return true
}

// localShift is the width of the parent-local field of layout l's
// rank-local walk word; the parent's rank sits above it.
func localShift(l walkLayout) uint {
	switch l {
	case layoutLocal3:
		return local3Shift
	case layoutLocal4:
		return 20
	}
	return 32
}

// decodeBytes is the modeled footprint of a's decoding, known before
// From runs: Bytes() once From has filled it.
func decodeBytes(a *Array) int64 {
	n, starts := int64(a.NumNodes()), int64(a.NumItems()+1)*4
	switch layoutOf(a) {
	case layoutLocal3:
		return 3*n + 1 + starts
	case layoutLocal8:
		return 8*n + starts
	}
	return 4*n + starts
}

// From fills d with the flat decoding of a, reusing d's buffers. It
// reports false — leaving d unusable — when the array exceeds the flat
// index space (more than 2^31-1 elements or a subarray past 4 GiB of
// triple bytes); callers fall back to the byte-chasing traversal.
// Triples are validated at their trust boundaries (Convert, ReadArray),
// so the sweeps run unchecked like Array.decode; debugchecks builds
// re-assert the invariants.
func (d *Decode) From(a *Array) bool {
	return d.fromLayout(a, layoutOf(a))
}

// fromLayout is From in layout l, which must fit a (layoutFits). Tests
// use it to decode one array in every layout that fits it.
func (d *Decode) fromLayout(a *Array, l walkLayout) bool {
	n := a.NumNodes()
	numItems := a.NumItems()
	if n > math.MaxInt32 || a.DataBytes() > math.MaxUint32 {
		return false
	}
	if debugChecks {
		assertf(layoutFits(a, l), "core: walk layout %d does not fit the array", l)
	}
	d.layout = l
	d.start = resize(d.start, numItems+1)
	d.cur = resize(d.cur, numItems)
	clear(d.cur)
	d.walk, d.walk3, d.walkW = d.walk[:0], d.walk3[:0], d.walkW[:0]
	var s walkSlots
	switch l {
	case layoutLocal3:
		d.walk3 = resize(d.walk3, 3*n+1)
		s.w3 = d.walk3
	case layoutLocal8:
		d.walkW = resize(d.walkW, n)
		s.w8 = d.walkW
	default:
		d.walk = resize(d.walk, n)
		s.w4 = d.walk
	}
	decodeFlat(a, &s, d.start, d.cur, l)
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

// walkSlots is decodeFlat's view of the walk it writes: the 4-byte,
// 3-byte or 8-byte slots of the decode's layout, exactly one of w4, w3
// and w8 in use. A slot holds an element's local byte offset until its
// walk word replaces it; get returns either, set stores the low bytes
// of v that the slot holds. The 4-byte slots, those of the small and
// the 4-byte rank-local layout, are tested first, so those layouts pay
// one test in front of each typed load.
type walkSlots struct {
	w4 []uint32
	w3 []byte
	w8 []uint64
}

func (s *walkSlots) get(i int32) uint64 {
	if s.w4 != nil {
		return uint64(s.w4[i])
	}
	if s.w3 != nil {
		return uint64(word3(s.w3, i))
	}
	return s.w8[i]
}

func (s *walkSlots) set(i int32, v uint64) {
	if s.w4 != nil {
		s.w4[i] = uint32(v)
		return
	}
	if s.w3 != nil {
		j := 3 * int(i)
		b := s.w3[j : j+3 : j+3]
		b[0], b[1], b[2] = byte(v), byte(v>>8), byte(v>>16)
		return
	}
	s.w8[i] = v
}

// decodeFlat is From's body, in two sweeps for every layout. Each
// element's parent is found among the local byte offsets of the
// parent's rank, which the walk slots hold until their final words
// replace them, so no offset array is allocated. A parent's rank is
// always lower than its child's (Δitem ≥ 1). Pass 1, ascending ranks,
// writes each element's offset into its slot; pass 2, descending ranks,
// resolves parents and overwrites the slots with layout l's words, so a
// rank's offsets stay in place until every rank that can point into it
// is done. Every offset fits its slot: layoutLocal3's runs hold under
// 4,096 triples of at most three 10-byte varints, so their offsets stay
// below 2^24, and From caps every subarray at 2^32 bytes. cur holds the
// findParent cursors and must arrive zeroed.
func decodeFlat(a *Array, s *walkSlots, start, cur []int32, l walkLayout) {
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
				if debugChecks && s.w3 != nil {
					assertf(pos < 1<<24, "core: triple offset %d overflows a 3-byte slot at rank %d", pos, rk)
				}
				s.set(idx, uint64(pos))
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
		resolveRun(a, s, start, cur, uint32(rk), l)
	}
}

// resolveRun decodes rank rk's triples, finds each one's parent, and
// overwrites each element's slot with its layout-l walk word: parent
// index above the rank in layoutSmall, the parent's rank above its
// index in that rank's run otherwise.
func resolveRun(a *Array, s *walkSlots, start, cur []int32, rk uint32, l walkLayout) {
	small := l == layoutSmall
	shift := localShift(l)
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
		// The rank-local root is the all-ones word; set keeps the
		// slot's width of it.
		w := uint64(math.MaxUint64)
		if small {
			w = smallRoot<<8 | uint64(rk)
		}
		if delta <= uint64(rk) {
			pr := rk - uint32(delta)
			pl := int64(pos) - encoding.Unzigzag(z)
			if debugChecks {
				assertf(pl >= 0 && pl <= math.MaxUint32, "core: parent local offset out of range at rank %d offset %d", rk, pos)
			}
			j := findParent(s, start, cur, pr, uint64(pl))
			if debugChecks {
				assertf(j >= 0, "core: unresolved parent (rank %d local %d) of rank %d offset %d", pr, pl, rk, pos)
			}
			switch {
			case j < 0:
			case small:
				w = uint64(j)<<8 | uint64(rk)
			default:
				w = uint64(pr)<<shift | uint64(j-start[pr])
			}
		}
		s.set(idx, w)
		idx++
		pos += n1 + n2 + n3
	}
}

// findParent resolves a parent's (rank, local byte offset) pair to its
// element index by searching rank pr's segment of the slots while they
// still hold their strictly increasing offsets. Convert writes triples
// depth-first, so the children of one rank meet their parents of one
// rank in ascending order, though rarely the next parent: on the
// quest-mine top level a gallop from the last hit cur[pr] took 10.7
// probes per lookup, the guess below 5.75. The lookup guesses by
// interpolation: above the last hit at the run's mean triple size,
// below it between the run's start and the hit. It then gallops out
// from the guess (g±1, g±3, g±7, …) and binary-searches the bracket it
// finds. Any order resolves (ReadArray accepts every order in which
// parents resolve); the order only moves the guess.
func findParent(s *walkSlots, start, cur []int32, pr uint32, local uint64) int32 {
	lo, hi := start[pr], start[pr+1]
	if lo >= hi {
		return -1
	}
	c := cur[pr]
	if c < lo || c >= hi {
		c = lo
	}
	v := s.get(c)
	if v == local {
		return c
	}
	g := int64(c)
	if v < local {
		if last := s.get(hi - 1); last > v {
			g += int64(local-v) * int64(hi-1-c) / int64(last-v)
		}
	} else if first := s.get(lo); v > first {
		g = int64(lo) + (int64(local)-int64(first))*int64(c-lo)/int64(v-first)
	}
	g = min(max(g, int64(lo)), int64(hi)-1)
	// The bracket [blo, bhi) holds local's index if local is there.
	blo, bhi := int64(lo), int64(hi)
	if w := s.get(int32(g)); w == local {
		cur[pr] = int32(g)
		return int32(g)
	} else if w < local {
		blo = g + 1
		for step := int64(1); g+step < bhi; step += step {
			if s.get(int32(g+step)) >= local {
				bhi = g + step + 1
				break
			}
			blo = g + step + 1
		}
	} else {
		bhi = g
		for step := int64(1); g-step >= blo; step += step {
			if s.get(int32(g-step)) <= local {
				blo = g - step
				break
			}
			bhi = g - step
		}
	}
	for blo < bhi {
		mid := (blo + bhi) >> 1
		if s.get(int32(mid)) < local {
			blo = mid + 1
		} else {
			bhi = mid
		}
	}
	if blo < int64(hi) && s.get(int32(blo)) == local {
		cur[pr] = int32(blo)
		return int32(blo)
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
