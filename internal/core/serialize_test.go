package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

func buildArrayFrom(txs [][]uint32, numItems int) *Array {
	tree := newTestTree(Config{}, numItems)
	for _, tx := range txs {
		tree.Insert(tx, 1)
	}
	return Convert(tree)
}

func TestSerializeRoundTrip(t *testing.T) {
	a := buildArrayFrom([][]uint32{{0, 1, 2}, {0, 2}, {1, 2}, {2}}, 3)
	var buf bytes.Buffer
	n, err := a.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadArray(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, a)
	}
}

func TestSerializeEmptyArray(t *testing.T) {
	a := buildArrayFrom(nil, 3)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArray(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumItems() != 3 {
		t.Errorf("empty round trip: %d nodes, %d items", got.NumNodes(), got.NumItems())
	}
}

func TestSerializeDetectsCorruption(t *testing.T) {
	a := buildArrayFrom([][]uint32{{0, 1}, {0, 1, 2}, {1, 2}}, 3)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	// Flip one byte at every position; every corruption must be
	// rejected (bad magic, bad structure, or checksum mismatch) or at
	// minimum never panic.
	for pos := 0; pos < len(pristine); pos++ {
		corrupted := append([]byte(nil), pristine...)
		corrupted[pos] ^= 0x41
		_, err := ReadArray(bytes.NewReader(corrupted))
		if err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
}

func TestSerializeTruncation(t *testing.T) {
	a := buildArrayFrom([][]uint32{{0, 1, 2}}, 3)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadArray(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("truncation at %d: error %v not wrapping ErrBadFormat", cut, err)
		}
	}
}

func TestSerializeBadMagicAndVersion(t *testing.T) {
	if _, err := ReadArray(bytes.NewReader([]byte("NOPE\x01"))); !errors.Is(err, ErrBadFormat) {
		t.Error("bad magic accepted")
	}
	a := buildArrayFrom([][]uint32{{0}}, 1)
	var buf bytes.Buffer
	_, _ = a.WriteTo(&buf)
	data := buf.Bytes()
	data[4] = 99 // version
	if _, err := ReadArray(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Error("bad version accepted")
	}
}

// TestSerializeNodeCountMismatch: the header's total node count is
// redundant with the per-item counts. A forged file where they disagree
// can carry a self-consistent CRC, so ReadArray must cross-validate the
// counts.
func TestSerializeNodeCountMismatch(t *testing.T) {
	a := buildArrayFrom([][]uint32{{0, 1}, {0, 1, 2}, {1, 2}}, 3)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Layout: magic(4) version(1) numItems(uvarint) numNodes(uvarint).
	// Both counts are small, so each uvarint is one byte and numNodes
	// sits at offset 6. Forge it and refresh the CRC trailer so only the
	// count cross-check can reject the file.
	if a.NumItems() >= 0x80 || a.NumNodes() >= 0x80 {
		t.Fatal("test array too large for single-byte uvarints")
	}
	forged := byte(a.NumNodes() + 1)
	if forged >= 0x80 {
		t.Fatal("forged count not a single-byte uvarint")
	}
	data[6] = forged
	_, err := ReadArray(bytes.NewReader(recrc(data)))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("forged node count accepted: err = %v", err)
	}
}

// TestReadArrayRejectsWideItemName: item names are uint32 in memory
// but uvarints on disk, so a hostile writer can spell a name of 2^32.
// The forged file carries a valid CRC, so only the width check can
// reject it; without that check the name truncates to 0.
func TestReadArrayRejectsWideItemName(t *testing.T) {
	a := buildArrayFrom([][]uint32{{0}}, 1)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Layout: magic(4) version(1) numItems numNodes dataLen, then item
	// 0's name, every uvarint one byte here: the name sits at offset 8.
	const nameOff = 8
	if a.NumItems() != 1 || a.ItemName(0) != 0 || data[nameOff] != 0 {
		t.Fatalf("layout changed: name byte %#x", data[nameOff])
	}
	var wide [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(wide[:], 1<<32)
	forged := append(append(append([]byte(nil), data[:nameOff]...), wide[:n]...), data[nameOff+1:]...)
	if _, err := ReadArray(bytes.NewReader(recrc(forged))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("item name 2^32 accepted: err = %v", err)
	}
}

// recrc rewrites the CRC trailer of a serialized array to match the
// bytes above it, so a forged file passes the checksum and only
// structural validation can reject it. It modifies data in place.
func recrc(data []byte) []byte {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
	return data
}

// handBuiltArray serializes, with a valid CRC, an array whose ranks
// hold the given raw triple bytes, support and element count; item i
// is named 10+i. Nothing is validated, so it can spell any triple.
func handBuiltArray(runs [][]byte, support []uint64, nodes []int) []byte {
	a := &Array{starts: []uint64{0}, support: support, nodes: nodes}
	for i, run := range runs {
		a.data = append(a.data, run...)
		a.starts = append(a.starts, uint64(len(a.data)))
		a.itemName = append(a.itemName, uint32(10+i))
		a.numNodes += nodes[i]
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// uvarint returns the minimal uvarint encoding of v.
func uvarint(v uint64) []byte {
	return binary.AppendUvarint(nil, v)
}

// overlongDposArray is a one-element array whose Δpos varint runs to
// 11 bytes, one past the longest valid uvarint: the decoder reports it
// with a negative length.
func overlongDposArray() []byte {
	triple := []byte{0x01}
	triple = append(triple, bytes.Repeat([]byte{0x80}, 10)...)
	triple = append(triple, 0x00, 0x01)
	return handBuiltArray([][]byte{triple}, []uint64{1}, []int{1})
}

// wideCountArray is the two-item array {10: c, 11: c under 10}.
func wideCountArray(c uint64) []byte {
	root := append([]byte{0x01, 0x00}, uvarint(c)...)
	child := append([]byte{0x01, 0x00}, uvarint(c)...)
	return handBuiltArray([][]byte{root, child}, []uint64{c, c}, []int{1, 1})
}

// nonMinimalHeaderArray is a valid array whose item-count varint is
// rewritten in two bytes (0x83 0x00 for 3). With keepCRC it carries the
// original file's checksum, which a reader that checksums its own
// re-serialization accepts; otherwise the CRC matches the bytes.
func nonMinimalHeaderArray(keepCRC bool) []byte {
	a := buildArrayFrom([][]uint32{{0, 1, 2}, {1, 2}}, 3)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		panic(err)
	}
	data := buf.Bytes()
	// Layout: magic(4) version(1), then numItems = 3 in one byte.
	const countOff = 5
	if data[countOff] != 3 {
		panic("layout changed")
	}
	forged := append(append(append([]byte(nil), data[:countOff]...), 0x83, 0x00), data[countOff+1:]...)
	if keepCRC {
		return forged
	}
	return recrc(forged)
}

// TestReadArrayRejectsOverlongVarint: a Δpos varint of 11 bytes makes
// the decoder report a negative length. validate must reject the
// triple rather than slice with that length, which panics.
func TestReadArrayRejectsOverlongVarint(t *testing.T) {
	if _, err := ReadArray(bytes.NewReader(overlongDposArray())); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("11-byte Δpos varint accepted: err = %v", err)
	}
}

// TestReadArrayRejectsWideCount: conditional CFP-trees store counts in
// 32 bits, so an array with a count or a rank support past 2^32-1
// mines wrong supports ({10: 2^32+5, 11: 2^32+5 under 10} would mine
// {10,11} with support 5). ReadArray must reject it; a count of
// exactly 2^32-1 still loads.
func TestReadArrayRejectsWideCount(t *testing.T) {
	const wide = 1<<32 + 5
	if _, err := ReadArray(bytes.NewReader(wideCountArray(wide))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("count 2^32+5 accepted: err = %v", err)
	}
	// Two parentless elements of one rank, each count in range, whose
	// sum is not.
	half := uint64(1) << 31
	elem := append([]byte{0x01, 0x00}, uvarint(half)...)
	sum := handBuiltArray([][]byte{append(append([]byte(nil), elem...), elem...)}, []uint64{2 * half}, []int{2})
	if _, err := ReadArray(bytes.NewReader(sum)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("rank support 2^32 accepted: err = %v", err)
	}
	a, err := ReadArray(bytes.NewReader(wideCountArray(math.MaxUint32)))
	if err != nil {
		t.Fatalf("count 2^32-1 rejected: %v", err)
	}
	if s := a.Support(1); s != math.MaxUint32 {
		t.Errorf("support of rank 1 = %d, want 2^32-1", s)
	}
}

// TestReadArrayRejectsNonMinimalHeader: the CRC covers the bytes as
// read, and header varints must be minimal. A two-byte spelling of the
// item count fails under the original checksum (the bytes changed)
// and under a matching one (the spelling is not minimal); either way
// the persisted bytes could otherwise change without the load noticing.
func TestReadArrayRejectsNonMinimalHeader(t *testing.T) {
	for _, keepCRC := range []bool{true, false} {
		_, err := ReadArray(bytes.NewReader(nonMinimalHeaderArray(keepCRC)))
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("keepCRC=%v: non-minimal item count accepted: err = %v", keepCRC, err)
		}
	}
}

// TestReadArrayRejectsHostileTriples: the CRC only catches accidental
// damage — a hostile writer serializes corrupt triples with a perfectly
// consistent checksum. ReadArray is the trust boundary, so it must
// structurally validate the triple storage; without that, a zero Δitem
// loops PathTo forever and a truncated varint stalls ScanItem. Each
// case corrupts the in-memory array and reserializes it honestly
// (valid CRC), so only validation can reject the file.
func TestReadArrayRejectsHostileTriples(t *testing.T) {
	build := func() *Array {
		return buildArrayFrom([][]uint32{{0, 1, 2}, {0, 2}, {1, 2}}, 3)
	}
	// Sanity-check the layout assumptions the corruptions below rely
	// on: rank 0 holds one triple and rank 1 a parented triple at local
	// 0 and a parentless one at local 3, each encoded as three
	// single-byte varints.
	pristine := build()
	if pristine.nodes[0] != 1 || pristine.starts[1]-pristine.starts[0] != 3 {
		t.Fatalf("layout changed: rank 0 holds %d nodes in %d bytes", pristine.nodes[0], pristine.starts[1]-pristine.starts[0])
	}
	if e := pristine.At(1, 0); e.Delta != 1 || e.Dpos != 0 {
		t.Fatalf("layout changed: At(1,0) = %+v", e)
	}
	if e := pristine.At(1, 3); e.Delta != 2 || e.Dpos != 0 {
		t.Fatalf("layout changed: At(1,3) = %+v", e)
	}
	cases := []struct {
		name    string
		corrupt func(a *Array)
	}{
		{"zero delta", func(a *Array) { a.data[a.starts[0]] = 0x00 }},
		{"truncated varint", func(a *Array) { a.data[len(a.data)-1] = 0x80 }},
		{"delta past virtual root", func(a *Array) { a.data[a.starts[0]] = 0x07 }},
		{"dangling parent reference", func(a *Array) { a.data[a.starts[1]+1] = 0x02 }},
		{"parent reference inside a triple", func(a *Array) { a.data[a.starts[1]+1] = 0x01 }},
		{"parent reference past the parent's subarray", func(a *Array) { a.data[a.starts[1]+1] = 0x05 }},
		{"parentless nonzero dpos", func(a *Array) { a.data[a.starts[1]+4] = 0x02 }},
		{"support sum mismatch", func(a *Array) { a.support[0]++ }},
		{"per-rank node count mismatch", func(a *Array) {
			a.nodes[0]++
			a.nodes[1]--
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := build()
			tc.corrupt(a)
			var buf bytes.Buffer
			if _, err := a.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := ReadArray(&buf)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("hostile file accepted: err = %v", err)
			}
		})
	}
}

// TestMineDeserializedArray: mining a deserialized array must give the
// same itemsets as mining the database directly.
func TestMineDeserializedArray(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := make(dataset.Slice, 60)
	for i := range db {
		tx := make([]uint32, 1+rng.Intn(8))
		for j := range tx {
			tx[j] = uint32(1 + rng.Intn(12))
		}
		db[i] = tx
	}
	const minSup = 3
	want, err := mine.Run(Growth{}, db, minSup)
	if err != nil {
		t.Fatal(err)
	}
	// Build the array with Growth's build stage, serialize, reload, and
	// mine every rank via MineArrayItems.
	tree, _, err := Build(db, minSup, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ser bytes.Buffer
	if _, err := Convert(tree).WriteTo(&ser); err != nil {
		t.Fatal(err)
	}
	arr, err := ReadArray(&ser)
	if err != nil {
		t.Fatal(err)
	}
	var sink mine.CollectSink
	if err := MineArrayItems(arr, Config{}, minSup, &sink, nil, 0, allRanks(arr), nil, nil); err != nil {
		t.Fatal(err)
	}
	mine.Canonicalize(sink.Sets)
	if d := mine.Diff("minearray", sink.Sets, "growth", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
	// Mining at a higher support from the same index must also agree.
	var sink2 mine.CollectSink
	if err := MineArrayItems(arr, Config{}, minSup+2, &sink2, nil, 0, allRanks(arr), nil, nil); err != nil {
		t.Fatal(err)
	}
	mine.Canonicalize(sink2.Sets)
	want2, err := mine.Run(Growth{}, db, minSup+2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("minearray+2", sink2.Sets, "growth+2", want2); d != "" {
		t.Errorf("higher-support mining differs:\n%s", d)
	}
}

// allRanks lists every rank of a, least frequent first: the order
// CFP-growth's top level mines in.
func allRanks(a *Array) []uint32 {
	ranks := make([]uint32, a.NumItems())
	for i := range ranks {
		ranks[i] = uint32(len(ranks) - 1 - i)
	}
	return ranks
}
