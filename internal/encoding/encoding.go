// Package encoding implements the lightweight byte-level compression
// schemes used by the CFP-tree and the CFP-array: variable byte encoding
// (varint128), leading-zero-byte suppression with 2-bit and 3-bit
// compression masks, zigzag encoding for signed deltas, and 40-bit
// pointers.
//
// The paper (§2.3) restricts itself to byte-level static encodings
// because entropy- and bit-level codes have too high a runtime overhead
// for structures that are traversed many times. Every encoder here is
// branch-light and allocation-free.
package encoding

// MaxVarintLen32 is the maximum number of bytes a 32-bit value occupies
// under variable byte encoding (ceil(32/7) = 5).
const MaxVarintLen32 = 5

// MaxVarintLen64 is the maximum number of bytes a 64-bit value occupies
// under variable byte encoding (ceil(64/7) = 10).
const MaxVarintLen64 = 10

// PutUvarint encodes v into buf using variable byte encoding (7 data
// bits per byte; the high bit is a continuation bit, 0 on the final
// byte) and returns the number of bytes written. buf must have room for
// MaxVarintLen64 bytes in the worst case.
//
// This matches the paper's "varint128 / 7-bit encoding": small values
// (< 128) take a single byte and need no separate compression mask.
func PutUvarint(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

// Uvarint decodes a variable-byte-encoded value from buf and returns the
// value and the number of bytes consumed. It returns n == 0 if buf is
// too short and n < 0 if the value overflows 64 bits.
func Uvarint(buf []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if i == MaxVarintLen64 {
			return 0, -(i + 1) // overflow
		}
		if b < 0x80 {
			if i == MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1) // overflow
			}
			return v | uint64(b)<<(shift&63), i + 1
		}
		v |= uint64(b&0x7f) << (shift & 63)
		shift += 7
	}
	return 0, 0
}

// UvarintLen reports the number of bytes PutUvarint would use for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// SkipUvarint returns the number of bytes occupied by the
// variable-byte-encoded value at the start of buf, without materializing
// the value. Returns 0 if buf is truncated.
func SkipUvarint(buf []byte) int {
	for i, b := range buf {
		if b < 0x80 {
			return i + 1
		}
		if i+1 == MaxVarintLen64 {
			return i + 1
		}
	}
	return 0
}

// Zigzag maps a signed value to an unsigned one so that values of small
// magnitude (of either sign) encode into few bytes: 0→0, -1→1, 1→2,
// -2→3, ...
func Zigzag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// ZeroBytes32 reports the number of leading zero bytes of v when viewed
// as a 4-byte big-endian quantity (0 for values ≥ 2^24, 4 for v == 0).
// This is the quantity stored in a leading-zero-suppression compression
// mask (§2.3) and tallied in Tables 1 and 2 of the paper.
func ZeroBytes32(v uint32) int {
	switch {
	case v == 0:
		return 4
	case v < 1<<8:
		return 3
	case v < 1<<16:
		return 2
	case v < 1<<24:
		return 1
	default:
		return 0
	}
}

// PutSuppressed32 writes the 4-zb low-order bytes of v into buf in
// big-endian order, where zb is the number of suppressed leading zero
// bytes, and returns the number of bytes written (4-zb). The caller
// stores zb in a compression mask. zb must equal ZeroBytes32(v) or be
// smaller (a smaller zb is valid but wasteful).
func PutSuppressed32(buf []byte, v uint32, zb int) int {
	if debugChecks {
		assertf(zb >= 0 && zb <= 4, "encoding: PutSuppressed32 zero-byte count %d out of range", zb)
		assertf(uint64(v) < uint64(1)<<(8*uint(4-zb)),
			"encoding: PutSuppressed32 value %#x does not fit in %d bytes", v, 4-zb)
	}
	n := 4 - zb
	for i := n - 1; i >= 0; i-- {
		buf[i] = byte(v)
		v >>= 8
	}
	return n
}

// Suppressed32 reads a value previously written by PutSuppressed32 with
// the given number of suppressed zero bytes.
func Suppressed32(buf []byte, zb int) uint32 {
	var v uint32
	for i := 0; i < 4-zb; i++ {
		v = v<<8 | uint32(buf[i])
	}
	return v
}

// Ptr40Len is the size in bytes of a 40-bit pointer. 40 bits address
// 1 TB, which the paper deems sufficient for main memory (§3.3).
const Ptr40Len = 5

// Ptr40EmbedMarker is the reserved high byte that distinguishes an
// embedded leaf from a 40-bit pointer inside a pointer slot. The arena
// never hands out offsets whose high byte is 0xFF.
const Ptr40EmbedMarker = 0xFF

// MaxPtr40 is the largest encodable 40-bit pointer value. Offsets with
// a 0xFF high byte are reserved for the embedded-leaf marker.
const MaxPtr40 = uint64(Ptr40EmbedMarker)<<32 - 1

// PutPtr40 stores a 40-bit pointer at buf[0:5], high byte first so that
// buf[0] can be tested against Ptr40EmbedMarker. v must be ≤ MaxPtr40.
func PutPtr40(buf []byte, v uint64) {
	if debugChecks {
		assertf(v <= MaxPtr40,
			"encoding: PutPtr40 value %#x exceeds MaxPtr40 (high byte would collide with the 0xFF embed marker)", v)
	}
	buf[0] = byte(v >> 32)
	buf[1] = byte(v >> 24)
	buf[2] = byte(v >> 16)
	buf[3] = byte(v >> 8)
	buf[4] = byte(v)
}

// Ptr40 reads a 40-bit pointer stored by PutPtr40.
func Ptr40(buf []byte) uint64 {
	return uint64(buf[0])<<32 | uint64(buf[1])<<24 | uint64(buf[2])<<16 |
		uint64(buf[3])<<8 | uint64(buf[4])
}
