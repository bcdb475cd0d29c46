package cfpgrowth

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/mine"
)

// Index is a persistent compressed itemset index: a CFP-array built
// once from a database at some base support, which can then be mined
// repeatedly — at any support not below the base — without touching the
// original data. Because the CFP-array is already a compact byte
// structure (typically 3–5 bytes per FP-tree node), it serializes
// almost verbatim.
type Index struct {
	arr *core.Array
	// BaseSupport is the absolute support the index was built at;
	// itemsets below it are not represented.
	BaseSupport uint64
	// NumTx is the number of transactions in the source database.
	NumTx uint64
	// rankOf maps external items to ranks for point queries. It is
	// built with the index and never written after, so concurrent
	// readers are safe.
	rankOf map[Item]uint32
}

// newIndex wraps a built or loaded CFP-array.
func newIndex(arr *core.Array, baseSupport, numTx uint64) *Index {
	ix := &Index{
		arr:         arr,
		BaseSupport: baseSupport,
		NumTx:       numTx,
		rankOf:      make(map[Item]uint32, arr.NumItems()),
	}
	for rk := 0; rk < arr.NumItems(); rk++ {
		ix.rankOf[arr.ItemName(uint32(rk))] = uint32(rk)
	}
	return ix
}

// BuildIndex scans src twice and builds the index at the given options'
// support threshold (the base support). Options.Context and MaxBytes
// bound the build like they bound Mine, Observe records its phases, and
// Memory receives its modeled peak, the converted array included.
func BuildIndex(src Source, opts Options) (*Index, error) {
	minSup, err := opts.minSupport(src)
	if err != nil {
		return nil, err
	}
	var numTx uint64
	arr, err := opts.buildArray(func(ctl *mine.Control) (tree *core.Tree, err error) {
		tree, numTx, err = core.Build(src, minSup, opts.Tree.config(), ctl, opts.Observe)
		return tree, err
	})
	if err != nil {
		return nil, err
	}
	return newIndex(arr, minSup, numTx), nil
}

// Bytes returns the index's in-memory footprint (triples + item index).
func (ix *Index) Bytes() int64 { return ix.arr.Bytes() }

// SupportOf returns the exact support of a specific itemset — the
// paper's §2.1 point query, answered straight from the compressed
// structure without a mining run. Items absent from the index (below
// its base support) yield 0. A single item is answered from its
// support. A larger set costs one pass over the subarray of its least
// frequent item, with a walk toward the root per element that ends at
// the first item of the set its path misses, or at an ancestor that an
// earlier walk of the same call has settled. It only reads the index,
// so concurrent callers are safe, and allocates nothing for sets of up
// to 8 items.
func (ix *Index) SupportOf(items []Item) uint64 {
	if len(items) == 0 {
		return 0
	}
	var buf [8]uint32
	ranks := buf[:0]
	for _, it := range items {
		rk, ok := ix.rankOf[it]
		if !ok {
			return 0
		}
		ranks = append(ranks, rk)
	}
	slices.Sort(ranks)
	for i := 1; i < len(ranks); i++ {
		if ranks[i] == ranks[i-1] {
			return 0 // duplicate items: not a set
		}
	}
	return ix.arr.SupportOf(ranks)
}

// NumNodes returns the number of FP-tree nodes represented.
func (ix *Index) NumNodes() int { return ix.arr.NumNodes() }

// Mine emits every itemset with support ≥ minSupport. minSupport must
// not be below the index's base support (itemsets under the base were
// discarded at build time). Mining only reads the index, so concurrent
// callers are safe.
func (ix *Index) Mine(minSupport uint64, fn Handler) error {
	return ix.mine(minSupport, handlerSink{fn: fn})
}

// MineAll materializes every itemset at minSupport.
func (ix *Index) MineAll(minSupport uint64) ([]Itemset, error) {
	var sink mine.CollectSink
	if err := ix.mine(minSupport, &sink); err != nil {
		return nil, err
	}
	mine.Canonicalize(sink.Sets)
	return sink.Sets, nil
}

// mine checks minSupport against the base support and mines the array.
func (ix *Index) mine(minSupport uint64, sink mine.Sink) error {
	if minSupport < ix.BaseSupport {
		return fmt.Errorf("cfpgrowth: index built at support %d cannot mine at %d",
			ix.BaseSupport, minSupport)
	}
	return core.Growth{}.MineArray(ix.arr, minSupport, core.AllRanks(ix.arr), sink)
}

// Index header: magic "CFPI" | version u8 | baseSupport u64le |
// numTx u64le | crc32(IEEE) of the preceding bytes u32le. The array
// blob that follows carries its own checksum; the header's covers the
// two counts, so a flipped bit in BaseSupport cannot make Mine accept
// supports the array cannot answer.
var indexMagic = [4]byte{'C', 'F', 'P', 'I'}

const (
	indexVersion   = 1
	indexHeaderLen = 4 + 1 + 8 + 8 + 4
)

// WriteTo serializes the index (a checksummed header, then the
// checksummed CFP-array). It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	hdr := append(make([]byte, 0, indexHeaderLen), indexMagic[:]...)
	hdr = append(hdr, indexVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, ix.BaseSupport)
	hdr = binary.LittleEndian.AppendUint64(hdr, ix.NumTx)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	n, err := ix.arr.WriteTo(w)
	return n + indexHeaderLen, err
}

// ReadIndex deserializes an index written by WriteTo. A header with a
// bad magic, version or checksum is rejected before the array is read.
func ReadIndex(r io.Reader) (*Index, error) {
	var hdr [indexHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated index header: %w", core.ErrBadFormat, err)
	}
	if [4]byte(hdr[:4]) != indexMagic {
		return nil, fmt.Errorf("%w: bad index magic", core.ErrBadFormat)
	}
	if hdr[4] != indexVersion {
		return nil, fmt.Errorf("%w: unsupported index version %d", core.ErrBadFormat, hdr[4])
	}
	body, sum := hdr[:indexHeaderLen-4], binary.LittleEndian.Uint32(hdr[indexHeaderLen-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: index header checksum mismatch", core.ErrBadFormat)
	}
	arr, err := core.ReadArray(r)
	if err != nil {
		return nil, err
	}
	return newIndex(arr, binary.LittleEndian.Uint64(hdr[5:]), binary.LittleEndian.Uint64(hdr[13:])), nil
}

// SaveIndex writes the index to a file. It writes a temporary file in
// the target's directory and renames it over the target, so a failed
// save leaves any existing index at path intact.
func SaveIndex(path string, ix *Index) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := ix.WriteTo(w)
		return err
	})
}

// writeFileAtomic writes path through write via a temporary file in the
// same directory, synced and then renamed over path only once write
// succeeds; on any error the temporary file is removed. A symlink at
// path is followed, so the rename replaces its target. The new file
// keeps an existing target's permission bits, or gets os.Create's
// (0666 less the umask) when there is none.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	if p, err := filepath.EvalSymlinks(path); err == nil {
		path = p
	}
	perm, exists := os.FileMode(0o666), false
	if fi, err := os.Stat(path); err == nil {
		perm, exists = fi.Mode().Perm(), true
	}
	f, err := createTemp(path, perm)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// Creation applied the umask; an existing target's bits are
	// restored exactly.
	if exists {
		if err := f.Chmod(perm); err != nil {
			return err
		}
	}
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// createTemp creates a new file named path plus a random ".tmp" suffix
// with permission perm less the umask.
func createTemp(path string, perm os.FileMode) (*os.File, error) {
	for try := 0; ; try++ {
		name := path + ".tmp" + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
		if !os.IsExist(err) || try == 1000 {
			return f, err
		}
	}
}

// LoadIndex reads an index from a file.
func LoadIndex(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIndex(f)
}
