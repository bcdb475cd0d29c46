package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	db := Slice{{3, 1, 2}, {1000000, 42}, {}, {7}, {5, 5, 5}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Transactions come back sorted and deduplicated.
	want := Slice{{1, 2, 3}, {42, 1000000}, {}, {7}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %v, want %v", got, want)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := make(Slice, 3000)
	for i := range db {
		tx := make([]Item, 5+rng.Intn(20))
		for j := range tx {
			tx[j] = Item(rng.Intn(100000))
		}
		db[i] = tx
	}
	var text, bin bytes.Buffer
	if err := Write(&text, db); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, db); err != nil {
		t.Fatal(err)
	}
	ratio := float64(bin.Len()) / float64(text.Len())
	// The paper estimates ~40% reduction; delta+varint does better on
	// most data, but at minimum it must be clearly smaller.
	if ratio > 0.75 {
		t.Errorf("binary/text ratio %.2f, expected a substantial reduction", ratio)
	}
	t.Logf("binary %.0f%% of text size", 100*ratio)
}

func TestBinaryFileScanTwice(t *testing.T) {
	db := Slice{{1, 2}, {3}, {2, 4, 6}}
	path := filepath.Join(t.TempDir(), "db.bin")
	if err := WriteBinaryFile(path, db); err != nil {
		t.Fatal(err)
	}
	src := &BinaryFile{Path: path}
	for pass := 0; pass < 2; pass++ {
		n := 0
		if err := src.Scan(func(tx []Item) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Errorf("pass %d saw %d transactions, want 3", pass, n)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	db := Slice{{1, 2, 3}, {4, 5}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bad magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations must error, never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestReadTx pins the transaction codec the binary files, the Builder
// spool and the pfp shards share: a round trip, io.EOF at a clean end,
// and ErrBadBinary for each malformed transaction, including a delta
// too large for int64 that would otherwise wrap into the 32-bit range.
func TestReadTx(t *testing.T) {
	enc := AppendTx(nil, []Item{0, 5, 1<<32 - 1})
	r := bytes.NewReader(enc)
	tx, err := ReadTx(r, nil)
	if err != nil || !reflect.DeepEqual(tx, []Item{0, 5, 1<<32 - 1}) {
		t.Fatalf("round trip = %v, %v", tx, err)
	}
	if _, err := ReadTx(r, tx); err != io.EOF {
		t.Errorf("clean end = %v, want io.EOF", err)
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"truncated":       enc[:len(enc)-1],
		"no items":        uv(2),
		"zero delta":      uv(2, 1, 0),
		"past 32 bits":    uv(1, 1<<32+1),
		"wrapping delta":  uv(2, 5, 1<<63+10),
		"implausible len": uv(1<<24 + 1),
	} {
		if _, err := ReadTx(bytes.NewReader(data), nil); !errors.Is(err, ErrBadBinary) {
			t.Errorf("%s: err = %v, want ErrBadBinary", name, err)
		}
	}
}

func TestBinaryMiningEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := make(Slice, 200)
	for i := range db {
		tx := make([]Item, 1+rng.Intn(8))
		for j := range tx {
			tx[j] = Item(rng.Intn(30))
		}
		db[i] = tx
	}
	path := filepath.Join(t.TempDir(), "db.bin")
	if err := WriteBinaryFile(path, db); err != nil {
		t.Fatal(err)
	}
	cText, err := CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	cBin, err := CountItems(&BinaryFile{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cText, cBin) {
		t.Error("binary source counts differ from in-memory counts")
	}
}
