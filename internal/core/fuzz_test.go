package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
)

// FuzzReadArray checks that arbitrary bytes never panic the CFP-array
// deserializer, and that anything it accepts is exactly what WriteTo
// writes for the loaded array.
func FuzzReadArray(f *testing.F) {
	var seed bytes.Buffer
	a := buildArrayFrom([][]uint32{{0, 1, 2}, {1, 2}}, 3)
	_, _ = a.WriteTo(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CFPA\x01"))
	f.Add([]byte("CFPA\x01\x03\x02\xff"))
	f.Add(overlongDposArray())
	f.Add(wideCountArray(1<<32 + 5))
	f.Add(nonMinimalHeaderArray(true))
	f.Add(nonMinimalHeaderArray(false))
	f.Fuzz(func(t *testing.T, data []byte) {
		arr, err := ReadArray(bytes.NewReader(data))
		if err != nil {
			return
		}
		// ReadArray ignores bytes past the trailer, so the accepted
		// file is a prefix of data.
		var buf bytes.Buffer
		if _, err := arr.WriteTo(&buf); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("accepted %d bytes re-serialize differently:\nread  %x\nwrote %x", buf.Len(), data[:min(len(data), buf.Len())], buf.Bytes())
		}
	})
}

// FuzzInsertMine feeds a fuzzer-shaped transaction database through
// CFP-growth, serial and on a three-worker pool, and FP-growth, and
// requires identical results. The encoding: bytes are items and 0xFF
// separates transactions. mode picks the miners' settings: its low two
// bits are MaxLen (0–3; FP-growth's result is filtered to that length),
// and bit 2 sets DisableFlatDecode, so both conditional builders, their
// leaf tests and the MaxLen boundary are checked. One transaction of n
// distinct items has 2^n frequent itemsets at support 1, which no miner
// enumerates within a fuzz iteration once n nears 30, so the FP-growth
// reference mines first under a budget of maxFuzzItemsets and an input
// over it is skipped: transactions of any length stay in the domain.
func FuzzInsertMine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 0xFF, 2, 3}, uint8(2), uint8(0))
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 0xFF, 2, 3}, uint8(1), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 0xFF, 1, 2, 3, 0xFF, 2, 3, 4, 0xFF, 1, 4}, uint8(2), uint8(4|3))
	f.Add([]byte{5, 5, 5, 0xFF, 5}, uint8(1), uint8(4))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint8(1), uint8(0))
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80}, uint8(3), uint8(1))
	// A 40-item transaction at support 1 is over the budget; at support
	// 2, with each item seen once more alone, it is a 40-node path that
	// the CFP-tree splits into chains.
	long := make([]byte, 0, 3*40)
	for i := byte(1); i <= 40; i++ {
		long = append(long, i)
	}
	f.Add(long, uint8(1), uint8(0))
	for i := byte(1); i <= 40; i++ {
		long = append(long, 0xFF, i)
	}
	f.Add(long, uint8(2), uint8(0))
	f.Add(long, uint8(2), uint8(4|2))
	f.Fuzz(func(t *testing.T, data []byte, minSup, mode uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		var db dataset.Slice
		var tx []uint32
		for _, b := range data {
			if b == 0xFF {
				if len(tx) > 0 {
					db = append(db, txToItems(tx))
					tx = nil
				}
				continue
			}
			tx = append(tx, uint32(b))
		}
		if len(tx) > 0 {
			db = append(db, txToItems(tx))
		}
		if len(db) == 0 {
			return
		}
		ms := uint64(minSup)
		if ms == 0 {
			ms = 1
		}
		ctl := &mine.Control{}
		var ref mine.CollectSink
		err := fptree.Growth{Ctl: ctl}.Mine(db, ms, &mine.ControlSink{Inner: &ref, Ctl: ctl, Max: maxFuzzItemsets})
		if errors.Is(err, mine.ErrBudgetExceeded) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		maxLen := int(mode & 3)
		cfg := Config{DisableFlatDecode: mode&4 != 0}
		want := ref.Sets
		if maxLen > 0 {
			want = slices.DeleteFunc(want, func(s mine.Itemset) bool { return len(s.Items) > maxLen })
		}
		mine.Canonicalize(want)
		for _, m := range []mine.Miner{Growth{Config: cfg, MaxLen: maxLen}, Growth{Config: cfg, MaxLen: maxLen, Workers: 3}} {
			got, err := mine.Run(m, db, ms)
			if err != nil {
				t.Fatal(err)
			}
			// Both sides are canonical, so equal results are equal
			// slices; mine.Diff, which keys every itemset by its
			// formatted items, only runs to explain a mismatch.
			if !slices.EqualFunc(got, want, func(a, b mine.Itemset) bool {
				return a.Support == b.Support && slices.Equal(a.Items, b.Items)
			}) {
				t.Fatalf("results differ:\n%s%d vs %d itemsets", mine.Diff(m.Name(), got, "fpgrowth", want), len(got), len(want))
			}
		}
	})
}

// maxFuzzItemsets bounds the result size FuzzInsertMine compares, and
// with it the work of one iteration.
const maxFuzzItemsets = 1 << 16

func txToItems(tx []uint32) []dataset.Item {
	out := make([]dataset.Item, len(tx))
	copy(out, tx)
	return out
}

// FuzzFlatDecode decodes the CFP-array of a fuzzer-shaped database in
// every walk layout that fits it (layoutFits), and requires each
// element's ancestor chain, read from its walk words (walkPath), to
// equal Array.PathTo's. From must take layoutOf's layout, with Bytes()
// equal to decodeBytes. Bytes are ranks and 0xFF separates
// transactions; each transaction is sorted and deduplicated. mode's low
// two bits spread the ranks 1, 3 or 17 apart, so arrays span fewer than
// 256 ranks, more, and more than 4,095, and the upper six bits weigh
// every transaction by 1 + mode>>2.
func FuzzFlatDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xFF, 1, 2, 0xFF, 2}, uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0xFF, 0, 1, 2, 0xFF, 0, 1, 7, 0xFF, 3, 5}, uint8(1))
	f.Add([]byte{3, 1, 3, 0xFF, 200, 0xFF, 1, 200, 254, 0xFF, 254}, uint8(2|4))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		stride := []uint32{1, 3, 17, 1}[mode&3]
		var txs [][]uint32
		var tx []uint32
		numItems := 1
		for i := 0; i <= len(data); i++ {
			if i < len(data) && data[i] != 0xFF {
				r := uint32(data[i]) * stride
				tx = append(tx, r)
				numItems = max(numItems, int(r)+1)
				continue
			}
			if len(tx) > 0 {
				slices.Sort(tx)
				txs = append(txs, slices.Compact(tx))
				tx = nil
			}
		}
		tree := newTestTree(Config{}, numItems)
		for _, tx := range txs {
			tree.Insert(tx, 1+uint32(mode>>2))
		}
		a := Convert(tree)
		var d Decode
		if !d.From(a) || d.layout != layoutOf(a) || d.Bytes() != decodeBytes(a) {
			t.Fatalf("From: layout %d, want %d; Bytes() %d, decodeBytes %d", d.layout, layoutOf(a), d.Bytes(), decodeBytes(a))
		}
		var want, got []uint32
		for l := layoutSmall; l <= layoutLocal8; l++ {
			if !layoutFits(a, l) {
				continue
			}
			if !d.fromLayout(a, l) || d.NumElems() != a.NumNodes() {
				t.Fatalf("layout %d: %d of %d elements decoded", l, d.NumElems(), a.NumNodes())
			}
			for rk := uint32(0); rk < uint32(a.NumItems()); rk++ {
				i, _ := d.Run(rk)
				a.ScanItem(rk, func(e Element) bool {
					want = a.PathTo(e, want[:0])
					got = walkPath(&d, i, got[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("layout %d rank %d element %d: walk path %v, PathTo %v", l, rk, i, got, want)
					}
					i++
					return true
				})
			}
		}
	})
}
