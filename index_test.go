package cfpgrowth

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

func TestIndexBuildAndMine(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.BaseSupport != 2 || ix.NumTx != 6 {
		t.Errorf("header = support %d, tx %d", ix.BaseSupport, ix.NumTx)
	}
	got, err := ix.MineAll(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAll(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("index mining differs from direct mining")
	}
	// Mining at higher support from the same index.
	got3, err := ix.MineAll(3)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := MineAll(exampleDB, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, want3) {
		t.Error("index mining at raised support differs")
	}
}

func TestIndexRejectsLowerSupport(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Mine(2, func([]Item, uint64) error { return nil }); err == nil {
		t.Error("mining below base support accepted")
	}
	if _, err := ix.MineAll(1); err == nil {
		t.Error("MineAll below base support accepted")
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseSupport != ix.BaseSupport || got.NumTx != ix.NumTx {
		t.Error("header lost in round trip")
	}
	a, _ := got.MineAll(2)
	b, _ := ix.MineAll(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("deserialized index mines differently")
	}
}

// TestIndexHeaderBitFlips: the header's checksum covers BaseSupport
// and NumTx, so flipping any single header bit — magic, version, the
// counts or the checksum itself — must make ReadIndex fail. Before the
// header was checksummed, a flip that lowered BaseSupport loaded
// cleanly and let Mine silently return too few itemsets.
func TestIndexHeaderBitFlips(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for bit := 0; bit < indexHeaderLen*8; bit++ {
		flipped := slices.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		if got, err := ReadIndex(bytes.NewReader(flipped)); err == nil {
			t.Errorf("header bit %d flipped: loaded (base support %d, %d transactions)", bit, got.BaseSupport, got.NumTx)
		}
	}
}

// FuzzReadIndex: arbitrary bytes never panic ReadIndex, and whatever it
// accepts re-serializes to exactly the bytes it read: a prefix of the
// input, since bytes after the array's checksum are not part of it.
func FuzzReadIndex(f *testing.F) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:indexHeaderLen])
	f.Add([]byte("CFPI"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted %d input bytes but re-serialized %d bytes that are not a prefix of them", len(data), out.Len())
		}
	})
}

// FuzzSupportOf builds an Index from a fuzzer-shaped database and
// checks Index.SupportOf against a tid-set count: the transactions that
// hold every item of the query, or 0 when an item is below the index's
// base support or the query repeats one. In data, bytes are items and
// 0xFF separates transactions; in queries, likewise for extra queries.
// Every prefix of every transaction is queried too, so most queries
// have support. minSup%4+1 is the base support.
func FuzzSupportOf(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 0xFF, 2, 3, 0xFF, 1, 2, 3, 4}, []byte{1, 3, 0xFF, 2, 2}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 0xFF, 1, 2, 3, 4, 7, 0xFF, 1, 2, 3, 8, 0xFF, 1, 2, 6, 7}, []byte{1, 6, 0xFF, 3, 7, 8}, uint8(0))
	f.Add([]byte{9, 0xFF, 9, 0xFF, 4, 9}, []byte{}, uint8(2))
	// Item 99 hangs below every prefix of a frequent chain 1..20, so
	// the walks from its elements share the chain's top.
	var chain []byte
	for i := byte(1); i <= 20; i++ {
		chain = append(chain, i)
	}
	var hung []byte
	for i := 0; i < 8; i++ {
		hung = append(append(hung, chain...), 0xFF)
	}
	for j := 1; j < 20; j++ {
		hung = append(append(append(hung, chain[:j]...), 99), 0xFF)
	}
	f.Add(hung, []byte{1, 99, 0xFF, 5, 10, 99, 0xFF, 19, 99}, uint8(0))
	f.Fuzz(func(t *testing.T, data, queries []byte, minSup uint8) {
		split := func(b []byte) [][]Item {
			out := [][]Item{{}}
			for _, c := range b {
				if c == 0xFF {
					out = append(out, []Item{})
				} else {
					out[len(out)-1] = append(out[len(out)-1], Item(c))
				}
			}
			return out
		}
		db := split(data[:min(len(data), 512)])
		qs := split(queries[:min(len(queries), 256)])
		for _, tx := range db {
			for k := 1; k <= len(tx); k++ {
				qs = append(qs, tx[:k])
			}
		}
		base := uint64(minSup%4 + 1)
		ix, err := BuildIndex(Transactions(db), Options{MinSupport: base})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			var want uint64
			set := slices.Clone(q)
			slices.Sort(set)
			if len(q) > 0 && len(slices.Compact(set)) == len(q) {
				for _, tx := range db {
					if !slices.ContainsFunc(q, func(it Item) bool { return !slices.Contains(tx, it) }) {
						want++
					}
				}
				for _, it := range q {
					var sup uint64
					for _, tx := range db {
						if slices.Contains(tx, it) {
							sup++
						}
					}
					if sup < base {
						want = 0
					}
				}
			}
			if got := ix.SupportOf(q); got != want {
				t.Fatalf("SupportOf(%v) = %d, want %d (base support %d)", q, got, want, base)
			}
		}
	})
}

func TestIndexSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.cfpa")
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := got.MineAll(2)
	b, _ := ix.MineAll(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("loaded index mines differently")
	}
	if _, err := LoadIndex(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading a missing index succeeded")
	}
}

func TestIndexFootprintSmall(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumNodes() == 0 {
		t.Fatal("empty index")
	}
	perNode := float64(ix.Bytes()) / float64(ix.NumNodes())
	if perNode > 28 {
		t.Errorf("index costs %.1f B/node, not smaller than an FP-tree", perNode)
	}
}

func TestIndexSupportOf(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		items []Item
		want  uint64
	}{
		{[]Item{1}, 4},
		{[]Item{1, 2}, 3},
		{[]Item{2, 1}, 3}, // order independent
		{[]Item{1, 2, 3}, 2},
		{[]Item{1, 4}, 1},
		{[]Item{3, 4}, 1},
		{[]Item{1, 2, 3, 4}, 1},
		{[]Item{99}, 0},   // unknown item
		{[]Item{1, 1}, 0}, // duplicates: not a set
		{nil, 0},
	}
	for _, c := range cases {
		if got := ix.SupportOf(c.items); got != c.want {
			t.Errorf("SupportOf(%v) = %d, want %d", c.items, got, c.want)
		}
	}
}

func TestIndexSupportOfDoesNotAllocate(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	query := []Item{4, 3, 2, 1}
	if got := testing.AllocsPerRun(100, func() { ix.SupportOf(query) }); got != 0 {
		t.Errorf("Index.SupportOf: %v allocations per call, want 0", got)
	}
}

func TestIndexSupportOfAfterReload(t *testing.T) {
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := got.SupportOf([]Item{1, 2}); s != 3 {
		t.Errorf("reloaded SupportOf(1,2) = %d, want 3", s)
	}
}

// TestIndexSupportOfConcurrentReaders has eight goroutines query one
// freshly loaded index, so under -race any write SupportOf makes to
// shared state is caught; every answer must match a serial pass.
func TestIndexSupportOfConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := make(dataset.Slice, 2000)
	for i := range db {
		db[i] = make([]Item, 1+rng.Intn(8))
		for j := range db[i] {
			db[i][j] = Item(rng.Intn(60))
		}
	}
	built, err := BuildIndex(db, Options{MinSupport: 20})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]Item, 500)
	want := make([]uint64, len(queries))
	for i := range queries {
		for k := 1 + rng.Intn(4); len(queries[i]) < k; {
			if it := Item(rng.Intn(64)); !slices.Contains(queries[i], it) {
				queries[i] = append(queries[i], it)
			}
		}
		want[i] = built.SupportOf(queries[i])
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				q := (i + 61*g) % len(queries)
				if got := ix.SupportOf(queries[q]); got != want[q] {
					errs <- fmt.Sprintf("reader %d: SupportOf(%v) = %d, want %d", g, queries[q], got, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestIndexFailedSaveKeepsOldFile: a save that fails part-way leaves the
// index already at the path loadable and unchanged, and leaves no
// temporary file behind; a later successful save replaces it.
func TestIndexFailedSaveKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.cfpa")
	old, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(path, old); err != nil {
		t.Fatal(err)
	}
	want, err := old.MineAll(2)
	if err != nil {
		t.Fatal(err)
	}
	next, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, err := next.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("disk full")
	err = writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(full.Bytes()[:full.Len()/2]); err != nil {
			return err
		}
		return errDisk
	})
	if !errors.Is(err, errDisk) {
		t.Fatalf("failed write returned %v, want %v", err, errDisk)
	}
	loaded, err := LoadIndex(path)
	if err != nil {
		t.Fatalf("old index unloadable after a failed save: %v", err)
	}
	if got, err := loaded.MineAll(2); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("old index mines differently after a failed save (err %v)", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries after a failed save, want only the index (err %v)", len(entries), err)
	}
	if err := SaveIndex(filepath.Join(dir, "missing", "db.cfpa"), next); err == nil {
		t.Error("save into a missing directory succeeded")
	}
	if err := SaveIndex(path, next); err != nil {
		t.Fatal(err)
	}
	if loaded, err := LoadIndex(path); err != nil || loaded.BaseSupport != 1 {
		t.Errorf("replacing save: base support %v, err %v; want 1", loaded, err)
	}
}

// TestIndexSaveFileMode: a new index gets the permission bits os.Create
// would give it, a replaced index keeps its own, and saving through a
// symlink rewrites the link's target and leaves the link in place.
func TestIndexSaveFileMode(t *testing.T) {
	dir := t.TempDir()
	ix, err := BuildIndex(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refInfo, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.cfpa")
	if err := SaveIndex(fresh, ix); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(fresh); err != nil || fi.Mode().Perm() != refInfo.Mode().Perm() {
		t.Errorf("new index mode %v (err %v), want os.Create's %v", fi.Mode().Perm(), err, refInfo.Mode().Perm())
	}

	private := filepath.Join(dir, "private.cfpa")
	if err := SaveIndex(private, ix); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(private, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(private, ix); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(private); err != nil || fi.Mode().Perm() != 0o600 {
		t.Errorf("replaced index mode %v (err %v), want 0600 kept", fi.Mode().Perm(), err)
	}

	link := filepath.Join(dir, "link.cfpa")
	if err := os.Symlink(private, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	next, err := BuildIndex(exampleDB, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(link, next); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Errorf("save through a symlink replaced the link (mode %v, err %v)", fi.Mode(), err)
	}
	if loaded, err := LoadIndex(private); err != nil || loaded.BaseSupport != 1 {
		t.Errorf("link target after save: %v, err %v; want base support 1", loaded, err)
	}
}

// TestIndexMineConcurrentReaders has eight goroutines mine and query
// one loaded index at once, so under -race any write Mine, MineAll or
// SupportOf makes to shared state is caught; every result must equal a
// serial MineAll's. The index must also re-serialize to the same bytes
// afterwards, which catches a value-changing write to the frozen array
// even on a path only one reader takes.
func TestIndexMineConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := make(dataset.Slice, 1500)
	for i := range db {
		db[i] = make([]Item, 1+rng.Intn(10))
		for j := range db[i] {
			db[i][j] = Item(rng.Intn(40))
		}
	}
	built, err := BuildIndex(db, Options{MinSupport: 15})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const minSup = 20
	want, err := ix.MineAll(minSup)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100 {
		t.Fatalf("degenerate workload: %d itemsets", len(want))
	}
	serialize := func() []byte {
		var b bytes.Buffer
		if _, err := ix.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	before := serialize()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got []Itemset
			var err error
			if g%2 == 0 {
				err = ix.Mine(minSup, func(items []Item, support uint64) error {
					got = append(got, Itemset{Items: slices.Clone(items), Support: support})
					return nil
				})
			} else {
				got, err = ix.MineAll(minSup)
			}
			if err != nil {
				errs <- fmt.Sprintf("reader %d: %v", g, err)
				return
			}
			mine.Canonicalize(got)
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Sprintf("reader %d: %d itemsets differ from MineAll's %d", g, len(got), len(want))
				return
			}
			for i := g; i < len(want); i += 8 {
				if s := ix.SupportOf(want[i].Items); s != want[i].Support {
					errs <- fmt.Sprintf("reader %d: SupportOf(%v) = %d, want %d", g, want[i].Items, s, want[i].Support)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if !bytes.Equal(serialize(), before) {
		t.Error("index bytes changed under concurrent readers")
	}
}
