package cfpgrowth

import (
	"bufio"
	"errors"
	"io"
	"os"
	"slices"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
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
	buf     []byte
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
	// Spool the distinct items, sorted, in the binary transaction
	// encoding; the replay re-encodes through the recoder anyway.
	distinct := b.counter.Add(tx)
	slices.Sort(distinct)
	b.buf = dataset.AppendTx(b.buf[:0], distinct)
	_, err := b.bw.Write(b.buf)
	return err
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
	minSup, err := b.opts.support(func() (uint64, error) { return counts.NumTx, nil })
	if err != nil {
		return nil, err
	}
	// Pass 1 ran in Add; the spool replay is pass 2.
	arr, err := b.opts.buildArray(func(ctl *mine.Control) (*core.Tree, error) {
		rec := dataset.NewRecoder(counts, minSup)
		return core.BuildRecoded(spool{f: b.f, numTx: counts.NumTx}, rec, b.opts.Tree.config(), ctl, b.opts.Observe)
	})
	if err != nil {
		return nil, err
	}
	return newIndex(arr, minSup, counts.NumTx), nil
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

// spool is a Builder's spool file as a Source: numTx transactions in
// the binary transaction encoding (dataset.AppendTx).
type spool struct {
	f     *os.File
	numTx uint64
}

// Scan implements Source, replaying the spool from its start.
func (s spool) Scan(fn func(tx []Item) error) error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return dataset.ScanTxs(bufio.NewReaderSize(s.f, 1<<16), s.numTx, fn)
}
