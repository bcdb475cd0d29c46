package cfpgrowth

import (
	"fmt"
	"io"
	"os"
	"slices"

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
// bound the build like they bound Mine, and Observe records its phases.
func BuildIndex(src Source, opts Options) (*Index, error) {
	minSup, err := opts.minSupport(src)
	if err != nil {
		return nil, err
	}
	ctl, track, release, err := opts.buildRun()
	if err != nil {
		return nil, err
	}
	defer release()
	tree, numTx, err := core.Build(src, minSup, opts.Tree.config(), ctl, track, opts.Observe)
	if err != nil {
		return nil, err
	}
	arr, err := opts.convert(tree, ctl, track)
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
// its base support) yield 0. It only reads the index, so concurrent
// callers are safe.
func (ix *Index) SupportOf(items []Item) uint64 {
	if len(items) == 0 {
		return 0
	}
	ranks := make([]uint32, 0, len(items))
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
// discarded at build time).
func (ix *Index) Mine(minSupport uint64, fn Handler) error {
	if minSupport < ix.BaseSupport {
		return fmt.Errorf("cfpgrowth: index built at support %d cannot mine at %d",
			ix.BaseSupport, minSupport)
	}
	return mineArray(ix.arr, core.Config{}, minSupport, handlerSink{fn: fn})
}

// MineAll materializes every itemset at minSupport.
func (ix *Index) MineAll(minSupport uint64) ([]Itemset, error) {
	var sink mine.CollectSink
	if minSupport < ix.BaseSupport {
		return nil, fmt.Errorf("cfpgrowth: index built at support %d cannot mine at %d",
			ix.BaseSupport, minSupport)
	}
	if err := mineArray(ix.arr, core.Config{}, minSupport, &sink); err != nil {
		return nil, err
	}
	mine.Canonicalize(sink.Sets)
	return sink.Sets, nil
}

// mineArray mines every item of arr at minSupport, least frequent
// first: the order CFP-growth's own top level mines in.
func mineArray(arr *core.Array, cfg core.Config, minSupport uint64, sink mine.Sink) error {
	ranks := make([]uint32, arr.NumItems())
	for i := range ranks {
		ranks[i] = uint32(len(ranks) - 1 - i)
	}
	return core.MineArrayItems(arr, cfg, minSupport, sink, nil, 0, ranks, nil, nil)
}

// WriteTo serializes the index (the CFP-array plus a small header) with
// a checksum. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	var hdr [16]byte
	putU64(hdr[0:], ix.BaseSupport)
	putU64(hdr[8:], ix.NumTx)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := ix.arr.WriteTo(w)
	return n + 16, err
}

// ReadIndex deserializes an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("cfpgrowth: truncated index header: %w", err)
	}
	arr, err := core.ReadArray(r)
	if err != nil {
		return nil, err
	}
	return newIndex(arr, getU64(hdr[0:]), getU64(hdr[8:])), nil
}

// SaveIndex writes the index to a file.
func SaveIndex(path string, ix *Index) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
