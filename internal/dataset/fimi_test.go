package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadAllBasic(t *testing.T) {
	in := "1 2 3\n4 5\n\n6\n"
	db, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Slice{{1, 2, 3}, {4, 5}, {}, {6}}
	if !reflect.DeepEqual(db, want) {
		t.Errorf("ReadAll = %v, want %v", db, want)
	}
}

func TestReadAllNoTrailingNewline(t *testing.T) {
	db, err := ReadAll(strings.NewReader("1 2\n3 4"))
	if err != nil {
		t.Fatal(err)
	}
	want := Slice{{1, 2}, {3, 4}}
	if !reflect.DeepEqual(db, want) {
		t.Errorf("ReadAll = %v, want %v", db, want)
	}
}

func TestReadAllCRLFAndExtraSpace(t *testing.T) {
	db, err := ReadAll(strings.NewReader("1  2\t3\r\n 4 \r\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Slice{{1, 2, 3}, {4}}
	if !reflect.DeepEqual(db, want) {
		t.Errorf("ReadAll = %v, want %v", db, want)
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("1 2 x\n")); err == nil {
		t.Error("ReadAll accepted non-numeric input")
	}
}

func TestReadAllRejectsHugeItem(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("99999999999\n")); err == nil {
		t.Error("ReadAll accepted a >32-bit item identifier")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	db := Slice{{1, 2, 3}, {1000000, 42}, {}, {7}}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, db) {
		t.Errorf("round trip = %v, want %v", got, db)
	}
}

func TestFileSourceScanMatchesReadAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := make(Slice, 500)
	for i := range db {
		tx := make([]Item, 1+rng.Intn(30))
		for j := range tx {
			tx[j] = Item(rng.Intn(10000))
		}
		db[i] = tx
	}
	path := filepath.Join(t.TempDir(), "data.fimi")
	if err := WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
	// Small buffer forces many block handoffs through the double
	// buffering machinery.
	src := &File{Path: path, BufferSize: 64}
	var got Slice
	err := src.Scan(func(tx []Item) error {
		cp := make([]Item, len(tx))
		copy(cp, tx)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, db) {
		t.Fatalf("File.Scan mismatch: got %d txs, want %d", len(got), len(db))
	}
	// A second scan must see the same data (two-pass requirement).
	count := 0
	if err := src.Scan(func(tx []Item) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != len(db) {
		t.Errorf("second Scan saw %d txs, want %d", count, len(db))
	}
}

func TestFileScanEarlyAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.fimi")
	if err := os.WriteFile(path, []byte("1\n2\n3\n4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &File{Path: path, BufferSize: 2}
	stop := os.ErrClosed
	n := 0
	err := src.Scan(func(tx []Item) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Errorf("Scan error = %v, want sentinel", err)
	}
	if n != 2 {
		t.Errorf("visited %d transactions, want 2", n)
	}
}

// scanAll collects every transaction File.Scan delivers before it
// returns, copied, with the error it returns.
func scanAll(path string, size int) (Slice, error) {
	var got Slice
	err := (&File{Path: path, BufferSize: size}).Scan(func(tx []Item) error {
		got = append(got, append([]Item{}, tx...))
		return nil
	})
	return got, err
}

func writeTemp(t testing.TB, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.fimi")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// linesOf returns whole lines totalling exactly n bytes: an empty line
// when n is odd, then "5" lines.
func linesOf(n int) string {
	return strings.Repeat("\n", n%2) + strings.Repeat("5\n", n/2)
}

func TestFileScanEveryBufferSize(t *testing.T) {
	var long strings.Builder
	var longTx []Item
	for i := 1000; i < 1100; i++ {
		fmt.Fprintf(&long, "%d ", i)
		longTx = append(longTx, Item(i))
	}
	corpus := "1 2 3\r\n4\t5\n\n  6   7  \n\r\n" + long.String() + "\n\t\n4294967295 0 8 9"
	want := Slice{{1, 2, 3}, {4, 5}, {}, {6, 7}, {}, longTx, {}, {4294967295, 0, 8, 9}}
	path := writeTemp(t, corpus)
	for size := 1; size <= 64; size++ {
		got, err := scanAll(path, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: Scan = %v, want %v", size, got, want)
		}
	}
	if got, err := ReadAll(strings.NewReader(corpus)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadAll = %v, %v; want %v", got, err, want)
	}
}

// TestFileScanErrorOnBlockBoundary puts a bad byte or a 33-bit id at
// the first block boundary for every buffer size, and checks that the
// lines before it are delivered and the error names its line.
func TestFileScanErrorOnBlockBoundary(t *testing.T) {
	const tooBig = "4294967296"
	for size := 1; size <= 64; size++ {
		cases := []struct {
			prefix, rest, msg string
		}{
			{linesOf(size), "x\n1\n", "unexpected byte"},                                       // first byte of the second block
			{linesOf(size - 1), "x\n", "unexpected byte"},                                      // last byte of the first read
			{linesOf(size - 1), "7x\n", "unexpected byte"},                                     // after a number cut by the boundary
			{linesOf(size), tooBig + " 1\n", "item identifier exceeds 32 bits"},                // id starts the second block
			{linesOf(max(size-4, 0)), "1 " + tooBig + "\n", "item identifier exceeds 32 bits"}, // id straddles it
		}
		for _, c := range cases {
			path := writeTemp(t, c.prefix+c.rest)
			prefix, err := ReadAll(strings.NewReader(c.prefix))
			if err != nil {
				t.Fatal(err)
			}
			got, err := scanAll(path, size)
			line := strings.Count(c.prefix, "\n") + 1
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d: %s", line, c.msg)) {
				t.Fatalf("size %d, %q: error %v, want line %d: %s", size, c.prefix+c.rest, err, line, c.msg)
			}
			if len(got) != len(prefix) || (len(got) > 0 && !reflect.DeepEqual(got, prefix)) {
				t.Fatalf("size %d, %q: delivered %v before the error, want %v", size, c.prefix+c.rest, got, prefix)
			}
			if _, rerr := ReadAll(strings.NewReader(c.prefix + c.rest)); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("size %d: ReadAll error %v, Scan error %v", size, rerr, err)
			}
		}
	}
}

func TestReadAllManyBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := make(Slice, 30000)
	for i := range db {
		db[i] = make([]Item, rng.Intn(12))
		for j := range db[i] {
			db[i][j] = Item(rng.Int63n(1 << 32))
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 4<<16 {
		t.Fatalf("input of %d bytes spans too few blocks", buf.Len())
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, db) {
		t.Fatal("ReadAll across blocks differs from the written database")
	}
}

// TestFileScanAbortJoinsReader checks that Scan has joined its reader
// goroutine by the time it returns, whether fn aborts it or the input
// is malformed: the reader's exit signal must already be waiting when
// Scan returns. The signal belongs to this File alone, so scans running
// concurrently elsewhere cannot disturb the count.
func TestFileScanAbortJoinsReader(t *testing.T) {
	path := writeTemp(t, strings.Repeat("1 2 3\n", 20000)+"x\n")
	errStop := errors.New("stop")
	for _, stopAt := range []int{1, 3, 500, -1} {
		exited := make(chan struct{}, 1)
		n := 0
		err := (&File{Path: path, BufferSize: 64, readerExit: exited}).Scan(func([]Item) error {
			if n++; n == stopAt {
				return errStop
			}
			return nil
		})
		if (stopAt > 0 && err != errStop) || (stopAt < 0 && err == nil) {
			t.Fatalf("stop at %d: Scan error %v", stopAt, err)
		}
		if got := len(exited); got != 1 {
			t.Fatalf("stop at %d: %d reader exits signaled when Scan returned, want 1", stopAt, got)
		}
	}
}

// byteParser is the byte-at-a-time FIMI parser the block parser
// replaced, kept as the reference the block parser is checked against.
type byteParser struct {
	br   *bufio.Reader
	line int
}

// oracleParse parses data with byteParser. It returns the transactions
// before the first malformed line, and that line's error.
func oracleParse(data []byte) (Slice, error) {
	p := &byteParser{br: bufio.NewReader(bytes.NewReader(data))}
	var db Slice
	for {
		tx, err := p.next(nil)
		if err == io.EOF {
			return db, nil
		}
		if err != nil {
			return db, err
		}
		db = append(db, append([]Item{}, tx...))
	}
}

func (p *byteParser) next(buf []Item) ([]Item, error) {
	tx := buf
	var val uint64
	inNum := false
	sawAny := false
	for {
		b, err := p.br.ReadByte()
		if err == io.EOF {
			if inNum {
				tx = append(tx, Item(val))
			}
			if sawAny || len(tx) > 0 {
				return tx, nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		sawAny = true
		switch {
		case b >= '0' && b <= '9':
			val = val*10 + uint64(b-'0')
			if val > 1<<32-1 {
				return nil, fmt.Errorf("dataset: line %d: item identifier exceeds 32 bits", p.line+1)
			}
			inNum = true
		case b == ' ' || b == '\t' || b == '\r':
			if inNum {
				tx = append(tx, Item(val))
				val, inNum = 0, false
			}
		case b == '\n':
			if inNum {
				tx = append(tx, Item(val))
			}
			p.line++
			return tx, nil
		default:
			return nil, fmt.Errorf("dataset: line %d: unexpected byte %q", p.line+1, b)
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/path/file.fimi"); err == nil {
		t.Error("ReadFile on missing file succeeded")
	}
}

func BenchmarkReadAll(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := make(Slice, 2000)
	for i := range db {
		tx := make([]Item, 20)
		for j := range tx {
			tx[j] = Item(rng.Intn(100000))
		}
		db[i] = tx
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadAll(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
