package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"cfpgrowth/internal/encoding"
)

// CFP-array on-disk format: because the structure is already a compact
// byte array with a small index, it serializes almost verbatim — which
// is what makes it attractive as a persistent compressed itemset index
// (mine repeatedly, at any support above the build support, without
// re-scanning the database).
//
//	magic "CFPA" | version u8
//	numItems uvarint | numNodes uvarint | dataLen uvarint
//	per item: itemName uvarint, subarray-length uvarint,
//	          support uvarint, node-count uvarint
//	data bytes
//	crc32(IEEE) of everything above, u32 little-endian

var arrayMagic = [4]byte{'C', 'F', 'P', 'A'}

const arrayVersion = 1

// ErrBadFormat reports a malformed or corrupted serialized CFP-array.
var ErrBadFormat = errors.New("core: malformed CFP-array data")

// WriteTo serializes the array with a checksum trailer. It implements
// io.WriterTo.
func (a *Array) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	n, err := a.writeBody(io.MultiWriter(w, crc))
	if err != nil {
		return n, err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return n, err
	}
	return n + 4, nil
}

// writeBody writes everything except the checksum trailer.
func (a *Array) writeBody(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	var scratch [encoding.MaxVarintLen64]byte
	uv := func(v uint64) error {
		n := encoding.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if _, err := bw.Write(arrayMagic[:]); err != nil {
		return cw.n, err
	}
	if err := bw.WriteByte(arrayVersion); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(a.NumItems())); err != nil {
		return cw.n, err
	}
	nn := a.numNodes
	if debugChecks {
		assertf(nn >= 0, "core: negative node count %d", nn)
	}
	if err := uv(uint64(nn)); err != nil {
		return cw.n, err
	}
	if err := uv(uint64(len(a.data))); err != nil {
		return cw.n, err
	}
	for i := 0; i < a.NumItems(); i++ {
		if err := uv(uint64(a.itemName[i])); err != nil {
			return cw.n, err
		}
		if err := uv(a.starts[i+1] - a.starts[i]); err != nil {
			return cw.n, err
		}
		if err := uv(a.support[i]); err != nil {
			return cw.n, err
		}
		ndi := a.nodes[i]
		if debugChecks {
			assertf(ndi >= 0, "core: negative node count %d for rank %d", ndi, i)
		}
		if err := uv(uint64(ndi)); err != nil {
			return cw.n, err
		}
	}
	if _, err := bw.Write(a.data); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadArray deserializes an array written by WriteTo and verifies the
// checksum over the bytes exactly as read. Every header varint must be
// minimal, so an accepted file is the one WriteTo would write for the
// array it loads, byte for byte. The returned array is the serving
// artifact, frozen from the moment ReadArray returns — cfpserve's
// generation swap relies on deserialized arrays being immutable while
// concurrent readers hold them. TestIndexMineConcurrentReaders and
// TestIndexSupportOfConcurrentReaders (package cfpgrowth) enforce it on
// a loaded index.
func ReadArray(r io.Reader) (*Array, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	cr := &crcReader{r: br}
	var hdr [5]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if [4]byte(hdr[:4]) != arrayMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if hdr[4] != arrayVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, hdr[4])
	}
	uv := func() (uint64, error) {
		cr.n = 0
		v, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		if cr.n != encoding.UvarintLen(v) {
			return 0, fmt.Errorf("%w: non-minimal varint for %d", ErrBadFormat, v)
		}
		return v, nil
	}
	numItems, err := uv()
	if err != nil {
		return nil, err
	}
	if numItems > 1<<31 {
		return nil, fmt.Errorf("%w: implausible item count", ErrBadFormat)
	}
	numNodes, err := uv()
	if err != nil {
		return nil, err
	}
	dataLen, err := uv()
	if err != nil {
		return nil, err
	}
	// A forged header can claim arbitrarily large counts; never
	// preallocate from it. Each item costs at least four input bytes,
	// so growing with append keeps memory proportional to actual input.
	const initCap = 1 << 12
	a := &Array{
		itemName: make([]uint32, 0, min(numItems, initCap)),
		starts:   make([]uint64, 0, min(numItems+1, initCap)),
		support:  make([]uint64, 0, min(numItems, initCap)),
		nodes:    make([]int, 0, min(numItems, initCap)),
		numNodes: int(numNodes),
	}
	var off uint64
	var nodeSum uint64
	for i := uint64(0); i < numItems; i++ {
		name, err := uv()
		if err != nil {
			return nil, err
		}
		if name > math.MaxUint32 {
			return nil, fmt.Errorf("%w: item name %d overflows uint32", ErrBadFormat, name)
		}
		a.itemName = append(a.itemName, uint32(name))
		l, err := uv()
		if err != nil {
			return nil, err
		}
		a.starts = append(a.starts, off)
		off += l
		sup, err := uv()
		if err != nil {
			return nil, err
		}
		a.support = append(a.support, sup)
		nc, err := uv()
		if err != nil {
			return nil, err
		}
		nodeSum += nc
		a.nodes = append(a.nodes, int(nc))
	}
	a.starts = append(a.starts, off)
	if off != dataLen {
		return nil, fmt.Errorf("%w: subarray lengths disagree with data length", ErrBadFormat)
	}
	// The header's total node count is redundant with the per-item
	// counts; a file where they disagree is corrupt even when its CRC
	// is internally consistent, and would otherwise load with wrong
	// stats and traversal bounds.
	if nodeSum != numNodes {
		return nil, fmt.Errorf("%w: header claims %d nodes but per-item counts sum to %d", ErrBadFormat, numNodes, nodeSum)
	}
	// Same principle for the payload: read in bounded chunks so a
	// forged length fails at the real end of input, not after a giant
	// allocation.
	a.data = make([]byte, 0, min(dataLen, 1<<20))
	for remaining := dataLen; remaining > 0; {
		chunk := min(remaining, 1<<20)
		start := uint64(len(a.data))
		a.data = append(a.data, make([]byte, chunk)...)
		if _, err := io.ReadFull(cr, a.data[start:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		remaining -= chunk
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrBadFormat)
	}
	if cr.sum != binary.LittleEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// validate structurally verifies the triple storage. ReadArray is the
// trust boundary for CFP-array bytes: past it, the decoders in
// cfparray.go run unchecked (the paper's §2.3 cost argument rules out
// per-access validation), and the sideways and backward traversals
// terminate only if every triple is well-formed — a zero-length varint
// stalls ScanItem and a zero Δitem loops PathTo forever, CRC or no CRC
// (the checksum catches accidental damage, not a consistent hostile
// writer). So every triple is parsed exactly once here: varints intact,
// counts positive, Δitem in range, and each parent reference landing
// exactly on a triple boundary of the parent's subarray. Counts and
// each rank's summed support must fit 32 bits: conditional CFP-trees
// store counts in 32 bits, so a wider one would mine wrong supports.
// Parents have strictly smaller ranks, so walking subarrays in
// ascending rank order has every referenced triple start already
// marked in heads, one bit per data byte; each reference is then one
// bit test, and the whole check is linear in the data.
func (a *Array) validate() error {
	numItems := len(a.itemName)
	heads := make([]uint64, (len(a.data)+63)/64)
	for rk := 0; rk < numItems; rk++ {
		lo, hi := a.starts[rk], a.starts[rk+1]
		var elems int
		var sup uint64
		for pos := lo; pos < hi; {
			local := pos - lo
			heads[pos/64] |= 1 << (pos % 64)
			elems++
			b := a.data[pos:hi]
			d, n1 := encoding.Uvarint(b)
			if n1 <= 0 {
				return fmt.Errorf("%w: corrupt Δitem varint at rank %d local %d", ErrBadFormat, rk, local)
			}
			z, n2 := encoding.Uvarint(b[n1:])
			if n2 <= 0 {
				return fmt.Errorf("%w: corrupt Δpos varint at rank %d local %d", ErrBadFormat, rk, local)
			}
			c, n3 := encoding.Uvarint(b[n1+n2:])
			if n3 <= 0 {
				return fmt.Errorf("%w: corrupt count varint at rank %d local %d", ErrBadFormat, rk, local)
			}
			if d < 1 || d > uint64(rk)+1 {
				return fmt.Errorf("%w: Δitem %d out of range at rank %d local %d", ErrBadFormat, d, rk, local)
			}
			if c == 0 {
				return fmt.Errorf("%w: zero count at rank %d local %d", ErrBadFormat, rk, local)
			}
			if c > math.MaxUint32 {
				return fmt.Errorf("%w: count %d overflows uint32 at rank %d local %d", ErrBadFormat, c, rk, local)
			}
			dpos := encoding.Unzigzag(z)
			if d <= uint64(rk) {
				// Real parent: the reference must resolve, via the same
				// wrapping arithmetic Element.ParentLocal uses, to a
				// triple start in the parent's subarray.
				pl := int64(local) - dpos
				if pl < 0 {
					return fmt.Errorf("%w: dangling parent reference at rank %d local %d", ErrBadFormat, rk, local)
				}
				prk := rk - int(d)
				at := a.starts[prk] + uint64(pl)
				if at >= a.starts[prk+1] || heads[at/64]&(1<<(at%64)) == 0 {
					return fmt.Errorf("%w: dangling parent reference at rank %d local %d", ErrBadFormat, rk, local)
				}
			} else if dpos != 0 {
				return fmt.Errorf("%w: parentless element with nonzero Δpos at rank %d local %d", ErrBadFormat, rk, local)
			}
			if sup += c; sup > math.MaxUint32 {
				return fmt.Errorf("%w: rank %d support overflows uint32", ErrBadFormat, rk)
			}
			pos += uint64(n1 + n2 + n3)
		}
		if elems != a.nodes[rk] {
			return fmt.Errorf("%w: rank %d holds %d elements but header claims %d", ErrBadFormat, rk, elems, a.nodes[rk])
		}
		if sup != a.support[rk] {
			return fmt.Errorf("%w: rank %d counts sum to %d but header claims support %d", ErrBadFormat, rk, sup, a.support[rk])
		}
	}
	return nil
}

// crcReader folds every byte read through it into sum and counts the
// bytes since n was last reset, so ReadArray checksums the input as
// read and can measure each varint.
type crcReader struct {
	r   *bufio.Reader
	sum uint32
	n   int
	one [1]byte
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	c.n += n
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.one[0] = b
		c.sum = crc32.Update(c.sum, crc32.IEEETable, c.one[:])
		c.n++
	}
	return b, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
