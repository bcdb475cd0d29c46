package cfpgrowth

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/encoding"
)

// Builder ingests transactions one at a time — from a stream, a
// database cursor, anything that cannot be rescanned — and produces an
// Index. Prefix-tree construction fundamentally needs two passes (item
// frequencies first, tree second), so the Builder spools the incoming
// transactions to a temporary file in the compact binary format while
// counting, then replays the spool to build the CFP structures. The
// spool is deleted when Finish or Discard returns.
type Builder struct {
	opts    Options
	f       *os.File
	bw      *bufio.Writer
	counter dataset.Counter
	scratch [encoding.MaxVarintLen64]byte
	done    bool
}

// NewBuilder starts a build. opts carries the support threshold and
// CFP-tree configuration; tempDir receives the spool file ("" means the
// system default).
func NewBuilder(opts Options, tempDir string) (*Builder, error) {
	f, err := os.CreateTemp(tempDir, "cfpgrowth-spool-*.bin")
	if err != nil {
		return nil, err
	}
	return &Builder{
		opts: opts,
		f:    f,
		bw:   bufio.NewWriterSize(f, 1<<16),
	}, nil
}

// Add ingests one transaction (a set of items; duplicates ignored).
func (b *Builder) Add(tx []Item) error {
	if b.done {
		return errors.New("cfpgrowth: Builder already finished")
	}
	distinct := b.counter.Add(tx)
	// Spool: varint length + raw varint items (set-deduplicated, in
	// arrival order; the replay re-encodes through the recoder anyway).
	n := encoding.PutUvarint(b.scratch[:], uint64(len(distinct)))
	if _, err := b.bw.Write(b.scratch[:n]); err != nil {
		return err
	}
	for _, it := range distinct {
		n := encoding.PutUvarint(b.scratch[:], uint64(it))
		if _, err := b.bw.Write(b.scratch[:n]); err != nil {
			return err
		}
	}
	return nil
}

// NumTx returns the number of transactions ingested so far.
func (b *Builder) NumTx() uint64 { return b.counter.NumTx() }

// Finish builds the Index from everything added and releases the spool.
func (b *Builder) Finish() (*Index, error) {
	if b.done {
		return nil, errors.New("cfpgrowth: Builder already finished")
	}
	b.done = true
	defer b.cleanup()
	if err := b.bw.Flush(); err != nil {
		return nil, err
	}
	counts := b.counter.Counts()
	var minSup uint64
	switch {
	case b.opts.MinSupport > 0 && b.opts.RelativeSupport > 0:
		return nil, errors.New("cfpgrowth: set only one of MinSupport and RelativeSupport")
	case b.opts.MinSupport > 0:
		minSup = b.opts.MinSupport
	case b.opts.RelativeSupport > 0:
		minSup = dataset.AbsoluteSupport(b.opts.RelativeSupport, counts.NumTx)
	default:
		return nil, errors.New("cfpgrowth: minimum support not set")
	}
	rec := dataset.NewRecoder(counts, minSup)
	n := rec.NumFrequent()
	names := make([]uint32, n)
	sups := make([]uint64, n)
	for i := 0; i < n; i++ {
		names[i] = rec.Decode(uint32(i))
		sups[i] = rec.Support(uint32(i))
	}
	tree := core.NewTree(arena.New(), core.Config{
		MaxChainLen:   b.opts.Tree.MaxChainLen,
		DisableChains: b.opts.Tree.DisableChains,
		DisableEmbed:  b.opts.Tree.DisableEmbed,
	}, names, sups)
	if _, err := b.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(b.f, 1<<16)
	var tx []Item
	var buf []uint32
	for t := uint64(0); t < counts.NumTx; t++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("cfpgrowth: corrupt spool: %w", err)
		}
		tx = tx[:0]
		for i := uint64(0); i < l; i++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("cfpgrowth: corrupt spool: %w", err)
			}
			tx = append(tx, Item(v))
		}
		buf = rec.Encode(tx, buf[:0])
		tree.Insert(buf, 1)
	}
	return newIndex(core.Convert(tree), minSup, counts.NumTx), nil
}

// Discard abandons the build and releases the spool.
func (b *Builder) Discard() {
	if !b.done {
		b.done = true
		b.cleanup()
	}
}

func (b *Builder) cleanup() {
	name := b.f.Name()
	_ = b.f.Close()
	_ = os.Remove(name)
}
