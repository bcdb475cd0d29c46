package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadAll checks that arbitrary byte input never panics the FIMI
// parser and that anything it accepts round-trips through Write.
func FuzzReadAll(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("")
	f.Add("\n\n\n")
	f.Add("4294967295\n")
	f.Add("1  2\t3\r\n")
	f.Add("999999999999999\n")
	f.Add("1 2 x\n")
	f.Fuzz(func(t *testing.T, input string) {
		db, err := ReadAll(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, db); err != nil {
			t.Fatalf("Write of accepted input failed: %v", err)
		}
		db2, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-read of written output failed: %v", err)
		}
		if len(db2) != len(db) {
			t.Fatalf("round trip changed transaction count: %d -> %d", len(db), len(db2))
		}
	})
}

// FuzzFileScan checks File.Scan at a fuzzed buffer size (1..256)
// against ReadAll and against the byte-at-a-time reference parser: the
// same transactions before the same error.
func FuzzFileScan(f *testing.F) {
	f.Add([]byte("1 2 3\n4 5\n"), uint8(0))
	f.Add([]byte(""), uint8(3))
	f.Add([]byte("\n\n\n"), uint8(1))
	f.Add([]byte("1  2\t3\r\n\r\n7"), uint8(2))
	f.Add([]byte("4294967295 1\n4294967296\n"), uint8(5))
	f.Add([]byte("1 2\n3 x\n4\n"), uint8(4))
	f.Add([]byte("10 20 30 40 50 60 70 80 90 100\n1"), uint8(7))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		want, wantErr := oracleParse(data)
		path := filepath.Join(dir, "input.fimi")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := scanAll(path, int(size)+1)
		if errString(err) != errString(wantErr) {
			t.Fatalf("Scan error %v, reference %v", err, wantErr)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Scan = %v, reference %v", got, want)
		}
		all, err := ReadAll(bytes.NewReader(data))
		if errString(err) != errString(wantErr) {
			t.Fatalf("ReadAll error %v, reference %v", err, wantErr)
		}
		if err == nil && (len(all) != len(want) || (len(all) > 0 && !reflect.DeepEqual(all, want))) {
			t.Fatalf("ReadAll = %v, reference %v", all, want)
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzReadBinary checks that arbitrary bytes never panic the binary
// reader.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, Slice{{1, 2, 3}, {7}})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CFPT\x01"))
	f.Add([]byte("CFPT\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must survive a round trip.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, db); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		if _, err := ReadBinary(&buf); err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
	})
}
