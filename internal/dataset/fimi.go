package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
)

// ReadAll parses a complete FIMI-format database from r into memory.
// Lines hold space-separated non-negative integers; empty lines are
// empty transactions. Windows line endings are tolerated.
func ReadAll(r io.Reader) (Slice, error) {
	var db Slice
	var b batch
	lr := newLineReader(r, 1<<16)
	for {
		lr.next(&b)
		if b.err != nil && b.err != io.EOF {
			return nil, b.err
		}
		// One exactly sized slab per block backs its transactions.
		slab := slices.Clone(b.items)
		var start uint32
		for _, end := range b.ends {
			tx := slab[start:end:end]
			if tx == nil {
				tx = []Item{}
			}
			db = append(db, tx)
			start = end
		}
		if b.err == io.EOF {
			return db, nil
		}
	}
}

// Write serializes db in FIMI format.
func Write(w io.Writer, db Slice) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [12]byte
	for _, tx := range db {
		for i, it := range tx {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.Write(strconv.AppendUint(scratch[:0], uint64(it), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes db to path in FIMI format.
func WriteFile(path string, db Slice) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, db); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile parses the FIMI file at path into memory.
func ReadFile(path string) (Slice, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// File is a file-backed Source. Every Scan re-opens the file and
// streams it through the asynchronous double-buffered reader, so the
// database never needs to fit in memory.
type File struct {
	Path string
	// BufferSize is the size of the block the reader goroutine reads at
	// a time; 0 means a 256 KiB default. Each of the two parsed batches
	// in flight holds one block's transactions, so the buffer size also
	// bounds a batch. A line longer than the buffer grows it.
	BufferSize int

	// readerExit, when set, receives one value from each Scan's reader
	// goroutine as its last act, before Scan can return: the join
	// signal tests wait on.
	readerExit chan<- struct{}
}

// Scan implements Source. It is the paper's asynchronous double
// buffering (§4.1): a background goroutine reads and parses the next
// block into one batch while fn consumes the other, so reading and
// parsing overlap with counting and tree construction.
func (f *File) Scan(fn func(tx []Item) error) error {
	fh, err := os.Open(f.Path)
	if err != nil {
		return err
	}
	defer fh.Close()
	size := f.BufferSize
	if size <= 0 {
		// Larger blocks parse no faster, and the batches they fill
		// raise the peak heap of the consumer.
		size = 256 << 10
	}
	// Two batches circulate: the reader fills one taken from free and
	// hands it over on full. full holds both, so the reader never
	// blocks on it.
	free := make(chan *batch, 2)
	full := make(chan *batch, 2)
	done := make(chan struct{})
	free <- new(batch)
	free <- new(batch)
	go func() {
		defer close(full)
		if f.readerExit != nil {
			defer func() { f.readerExit <- struct{}{} }()
		}
		lr := newLineReader(fh, size)
		for {
			var b *batch
			select {
			case b = <-free:
			case <-done:
				return
			}
			lr.next(b)
			full <- b
			if b.err != nil {
				return
			}
		}
	}()
	// Stop the reader and join it before fh is closed, whether the scan
	// ends, fails, or fn aborts it.
	defer func() {
		close(done)
		for range full {
		}
	}()
	for b := range full {
		var start uint32
		for _, end := range b.ends {
			if err := fn(b.items[start:end:end]); err != nil {
				return err
			}
			start = end
		}
		if b.err == io.EOF {
			return nil
		}
		if b.err != nil {
			return b.err
		}
		free <- b
	}
	return nil
}

// batch is one parsed block: the items of its transactions back to
// back, and where each transaction ends in items. err, when set, ends
// the input after these transactions: io.EOF at a clean end, or the
// read or parse error.
type batch struct {
	items []Item
	ends  []uint32
	err   error
}

// lineReader cuts a stream into blocks of whole lines and parses each
// into a batch. The unfinished line at the end of a block is carried to
// the front of the buffer and completed by the next read.
type lineReader struct {
	r    io.Reader
	buf  []byte
	tail int // length of the carried line at the front of buf
	line int // lines parsed so far, for error messages
}

func newLineReader(r io.Reader, size int) *lineReader {
	return &lineReader{r: r, buf: make([]byte, size)}
}

// next reads and parses the next block into b. b.err is set once the
// input is exhausted or has failed; next must not be called after.
func (lr *lineReader) next(b *batch) {
	b.items, b.ends, b.err = b.items[:0], b.ends[:0], nil
	for {
		n, err := io.ReadFull(lr.r, lr.buf[lr.tail:])
		data := lr.buf[:lr.tail+n]
		cut := bytes.LastIndexByte(data, '\n') + 1
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			// The last line needs no newline.
			cut, err = len(data), io.EOF
		case err != nil:
			// Deliver the whole lines read before the failure.
		case cut == 0:
			// No line ends in the full buffer: grow it and read on.
			lr.tail = len(data)
			lr.buf = append(lr.buf, make([]byte, len(lr.buf))...)
			continue
		}
		if lr.line, b.err = parseLines(data[:cut], b, lr.line); b.err == nil {
			b.err = err
		}
		lr.tail = copy(lr.buf, data[cut:])
		return
	}
}

// parseLines appends the transactions of data, which holds whole lines
// (the last one may lack its newline), to b. line is the number of
// lines before data; the updated count is returned. On a malformed line
// it stops with an error naming that line; the items parsed from the
// line so far stay in b.items past the last end.
func parseLines(data []byte, b *batch, line int) (int, error) {
	// Size items for one id per four bytes up front: large slices grow
	// by only 1.25x, and growing a batch from empty would allocate
	// several times its final size.
	items, ends := slices.Grow(b.items, len(data)/4), b.ends
	var err error
scan:
	for i := 0; i < len(data); {
		c := data[i]
		if c-'0' <= 9 {
			v := uint64(c - '0')
			for i++; i < len(data); i++ {
				d := data[i] - '0'
				if d > 9 {
					break
				}
				if v = v*10 + uint64(d); v > math.MaxUint32 {
					err = fmt.Errorf("dataset: line %d: item identifier exceeds 32 bits", line+1)
					break scan
				}
			}
			items = append(items, Item(v))
			continue
		}
		switch c {
		case '\n':
			ends = append(ends, uint32(len(items)))
			line++
		case ' ', '\t', '\r':
		default:
			err = fmt.Errorf("dataset: line %d: unexpected byte %q", line+1, c)
			break scan
		}
		i++
	}
	if err == nil && len(data) > 0 && data[len(data)-1] != '\n' {
		ends = append(ends, uint32(len(items)))
		line++
	}
	b.items, b.ends = items, ends
	return line, err
}
