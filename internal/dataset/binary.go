package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Binary transaction format. The paper notes (§4.1) that replacing the
// FIMI text files with binary input would shrink them by roughly 40%;
// this format realizes that: each transaction is a varint length
// followed by varint delta-encoded, ascending item identifiers.
//
//	magic "CFPT" | version u8 | numTx uvarint
//	per transaction: length uvarint, then length varint deltas
//	                 (first = item0+1, then item[i]-item[i-1];
//	                 unsorted input is stored sorted)

var binaryMagic = [4]byte{'C', 'F', 'P', 'T'}

const binaryVersion = 1

// ErrBadBinary reports a malformed binary transaction file.
var ErrBadBinary = errors.New("dataset: malformed binary transaction data")

// WriteBinary serializes db in the binary format. Transactions are
// sorted (and deduplicated) on the way out; mining semantics are
// unaffected because transactions are sets.
func WriteBinary(w io.Writer, db Slice) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	if _, err := bw.Write(binary.AppendUvarint(nil, uint64(len(db)))); err != nil {
		return err
	}
	var sorted []Item
	var buf []byte
	for _, tx := range db {
		sorted = append(sorted[:0], tx...)
		sortDedupe(&sorted)
		buf = AppendTx(buf[:0], sorted)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendTx appends tx, whose items are ascending and distinct, to dst
// in the binary format's transaction encoding: its length, then its
// items as varint deltas (the first item plus one, then each item minus
// the one before).
func AppendTx(dst []byte, tx []Item) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tx)))
	prev := int64(-1)
	for _, it := range tx {
		dst = binary.AppendUvarint(dst, uint64(int64(it)-prev))
		prev = int64(it)
	}
	return dst
}

// ReadTx reads one transaction in AppendTx's encoding into tx's
// storage and returns it. The end of r before the transaction starts
// is io.EOF; a truncated transaction, an implausible length, a zero
// delta (a duplicate item) or an item past 32 bits is an error
// wrapping ErrBadBinary.
func ReadTx(r io.ByteReader, tx []Item) ([]Item, error) {
	tx = tx[:0]
	l, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return tx, err
	}
	if err != nil {
		return tx, fmt.Errorf("%w: %v", ErrBadBinary, err)
	}
	if l > 1<<24 {
		return tx, fmt.Errorf("%w: implausible transaction length %d", ErrBadBinary, l)
	}
	prev := int64(-1)
	for i := uint64(0); i < l; i++ {
		d, err := binary.ReadUvarint(r)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return tx, fmt.Errorf("%w: item %d: %v", ErrBadBinary, i, err)
		}
		if d == 0 {
			return tx, fmt.Errorf("%w: zero delta (duplicate item)", ErrBadBinary)
		}
		if d > 1<<32 || prev+int64(d) > 1<<32-1 {
			return tx, fmt.Errorf("%w: item exceeds 32 bits", ErrBadBinary)
		}
		prev += int64(d)
		tx = append(tx, Item(prev))
	}
	return tx, nil
}

// ReadBinary parses a complete binary database into memory.
func ReadBinary(r io.Reader) (Slice, error) {
	var db Slice
	err := scanBinary(r, func(tx []Item) error {
		cp := make([]Item, len(tx))
		copy(cp, tx)
		db = append(db, cp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if db == nil {
		db = Slice{}
	}
	return db, nil
}

// scanBinary streams transactions to fn.
func scanBinary(r io.Reader, fn func(tx []Item) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadBinary, err)
	}
	if [4]byte(hdr[:4]) != binaryMagic {
		return fmt.Errorf("%w: bad magic", ErrBadBinary)
	}
	if hdr[4] != binaryVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadBinary, hdr[4])
	}
	numTx, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadBinary, err)
	}
	return ScanTxs(br, numTx, fn)
}

// ScanTxs streams numTx transactions in AppendTx's encoding from r to
// fn. A transaction ReadTx rejects, or one missing from the end of r,
// is an error wrapping ErrBadBinary.
func ScanTxs(r io.ByteReader, numTx uint64, fn func(tx []Item) error) error {
	var tx []Item
	for t := uint64(0); t < numTx; t++ {
		var err error
		if tx, err = ReadTx(r, tx); err == io.EOF {
			err = fmt.Errorf("%w: %v", ErrBadBinary, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return fmt.Errorf("transaction %d: %w", t, err)
		}
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// BinaryFile is a file-backed Source in the binary format.
type BinaryFile struct {
	Path string
}

// Scan implements Source.
func (f *BinaryFile) Scan(fn func(tx []Item) error) error {
	fh, err := os.Open(f.Path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return scanBinary(fh, fn)
}

// WriteBinaryFile writes db to path in binary format.
func WriteBinaryFile(path string, db Slice) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, db); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortDedupe sorts s ascending and removes duplicates in place.
func sortDedupe(s *[]Item) {
	v := *s
	// Insertion sort is fine: transactions are short relative to IO.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	w := 0
	for i, x := range v {
		if i == 0 || x != v[w-1] {
			v[w] = x
			w++
		}
	}
	*s = v[:w]
}
