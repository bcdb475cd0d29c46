package cfpgrowth

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestUpdatableIndexMatchesBatch(t *testing.T) {
	u := NewUpdatableIndex(TreeConfig{})
	for _, tx := range exampleDB {
		u.Add(tx)
	}
	got, err := u.MineAll(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAll(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("updatable index mining differs from batch mining\n got %v\nwant %v", got, want)
	}
}

func TestUpdatableIndexInterleavedMining(t *testing.T) {
	u := NewUpdatableIndex(TreeConfig{})
	u.Add([]Item{1, 2})
	u.Add([]Item{1, 2})
	first, err := u.MineAll(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("after 2 txs: %v", first)
	}
	// Mining must not freeze the index: keep adding.
	u.Add([]Item{2, 3})
	u.Add([]Item{2, 3})
	second, err := u.MineAll(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAll(Transactions{{1, 2}, {1, 2}, {2, 3}, {2, 3}}, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Errorf("after interleaved adds:\n got %v\nwant %v", second, want)
	}
}

func TestUpdatableIndexVaryingSupport(t *testing.T) {
	u := NewUpdatableIndex(TreeConfig{})
	for _, tx := range exampleDB {
		u.Add(tx)
	}
	// Mining at a higher support, then a lower one, must both match
	// batch mining.
	at3, err := u.MineAll(3)
	if err != nil {
		t.Fatal(err)
	}
	want3, _ := MineAll(exampleDB, Options{MinSupport: 3})
	if !reflect.DeepEqual(at3, want3) {
		t.Error("support-3 mining differs")
	}
	at1, err := u.MineAll(1)
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := MineAll(exampleDB, Options{MinSupport: 1})
	if !reflect.DeepEqual(at1, want1) {
		t.Error("support-1 mining differs")
	}
}

func TestUpdatableIndexSingleItemSupport(t *testing.T) {
	u := NewUpdatableIndex(TreeConfig{})
	u.Add([]Item{5, 5, 9})
	u.Add([]Item{5})
	if got := u.Support(5); got != 2 {
		t.Errorf("Support(5) = %d, want 2 (duplicates within tx ignored)", got)
	}
	if got := u.Support(123); got != 0 {
		t.Errorf("Support(unknown) = %d", got)
	}
	if u.NumTx() != 2 || u.NumItems() != 2 {
		t.Errorf("NumTx=%d NumItems=%d", u.NumTx(), u.NumItems())
	}
}

func TestUpdatableIndexEmpty(t *testing.T) {
	u := NewUpdatableIndex(TreeConfig{})
	sets, err := u.MineAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 0 {
		t.Errorf("empty index mined %v", sets)
	}
}

func TestUpdatableIndexRandomizedVsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		u := NewUpdatableIndex(TreeConfig{})
		var db Transactions
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			tx := make([]Item, 1+rng.Intn(8))
			for j := range tx {
				tx[j] = Item(1 + rng.Intn(15))
			}
			db = append(db, tx)
			u.Add(tx)
		}
		for _, minSup := range []uint64{1, 3} {
			got, err := u.MineAll(minSup)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MineAll(db, Options{MinSupport: minSup})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d minSup %d: updatable differs from batch", trial, minSup)
			}
		}
	}
}

// skewedDB returns a random database whose item frequencies fall with
// the item identifier while items first arrive in random order, so the
// arrival order of an UpdatableIndex differs from the frequency order.
// Transactions may repeat an item, and some identifiers lie beyond the
// recoder's dense table.
func skewedDB(rng *rand.Rand, numTx, numItems int) Transactions {
	db := make(Transactions, numTx)
	for i := range db {
		tx := make([]Item, rng.Intn(9))
		for j := range tx {
			it := Item(rng.Intn(1 + rng.Intn(numItems)))
			if it%7 == 3 {
				it += 1 << 24
			}
			tx[j] = it
		}
		db[i] = tx
	}
	rng.Shuffle(len(db), func(i, j int) { db[i], db[j] = db[j], db[i] })
	return db
}

func indexBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSnapshotBytes fails unless u.Snapshot(minSup) serializes to the
// bytes BuildIndex writes for db at minSup under cfg.
func checkSnapshotBytes(t testing.TB, u *UpdatableIndex, db Transactions, minSup uint64, cfg TreeConfig) {
	t.Helper()
	want, err := BuildIndex(db, Options{MinSupport: minSup, Tree: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got, w := indexBytes(t, u.Snapshot(minSup)), indexBytes(t, want); !bytes.Equal(got, w) {
		t.Fatalf("%d txs at support %d, %+v: snapshot serializes to %d bytes that differ from BuildIndex's %d",
			len(db), minSup, cfg, len(got), len(w))
	}
}

func TestUpdatableSnapshotMatchesBuildIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, cfg := range []TreeConfig{{}, {DisableChains: true}, {DisableEmbed: true}, {MaxChainLen: 2}} {
		for trial := 0; trial < 8; trial++ {
			db := skewedDB(rng, 1+rng.Intn(300), 5+rng.Intn(60))
			u := NewUpdatableIndex(cfg)
			for _, tx := range db {
				u.Add(tx)
			}
			for _, minSup := range []uint64{1, 2, 3, 7, uint64(len(db)/4 + 1), uint64(len(db) + 1)} {
				checkSnapshotBytes(t, u, db, minSup, cfg)
			}
		}
	}
}

func TestUpdatableSnapshotSurvivesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := skewedDB(rng, 400, 40)
	u := NewUpdatableIndex(TreeConfig{})
	for _, tx := range db[:200] {
		u.Add(tx)
	}
	snap := u.Snapshot(3)
	before := indexBytes(t, snap)
	sets, err := snap.MineAll(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range db[200:] {
		u.Add(tx)
	}
	if _, err := u.MineAll(3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(indexBytes(t, snap), before) {
		t.Error("a snapshot's bytes changed after more transactions were added")
	}
	again, err := snap.MineAll(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, sets) {
		t.Error("a snapshot's itemsets changed after more transactions were added")
	}
	want, err := MineAll(db[:200], Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sets, want) {
		t.Error("snapshot mining differs from batch mining of the same transactions")
	}
}

func TestUpdatableSnapshotSupportOf(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := skewedDB(rng, 300, 30)
	u := NewUpdatableIndex(TreeConfig{})
	for _, tx := range db {
		u.Add(tx)
	}
	// contains counts the transactions holding every item of set.
	contains := func(set ...Item) uint64 {
		var n uint64
		for _, tx := range db {
			if !slices.ContainsFunc(set, func(it Item) bool { return !slices.Contains(tx, it) }) {
				n++
			}
		}
		return n
	}
	const minSup = 4
	snap := u.Snapshot(minSup)
	for q := 0; q < 500; q++ {
		var query []Item
		for range 1 + rng.Intn(4) {
			if tx := db[rng.Intn(len(db))]; len(tx) > 0 {
				query = append(query, tx[rng.Intn(len(tx))])
			}
		}
		slices.Sort(query)
		query = slices.Compact(query)
		if len(query) == 0 {
			continue
		}
		// Items below the base support are not in the index: a query
		// naming one answers 0.
		want := contains(query...)
		for _, it := range query {
			if contains(it) < minSup {
				want = 0
			}
		}
		rng.Shuffle(len(query), func(i, j int) { query[i], query[j] = query[j], query[i] })
		if got := snap.SupportOf(query); got != want {
			t.Fatalf("SupportOf(%v) = %d, want %d", query, got, want)
		}
	}
}

// TestUpdatableMineCachesSnapshot: Mine keeps its snapshot for every
// support at or above the one it was built at, and rebuilds it for a
// lower support or after an Add.
func TestUpdatableMineCachesSnapshot(t *testing.T) {
	u := NewUpdatableIndex(TreeConfig{})
	for _, tx := range exampleDB {
		u.Add(tx)
	}
	if _, err := u.MineAll(2); err != nil {
		t.Fatal(err)
	}
	first := u.snap
	if first == nil || first.BaseSupport != 2 {
		t.Fatalf("after MineAll(2) the cached snapshot is %v", first)
	}
	if err := u.Mine(3, func([]Item, uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if u.snap != first {
		t.Error("mining at a higher support rebuilt the snapshot")
	}
	if _, err := u.MineAll(1); err != nil {
		t.Fatal(err)
	}
	if u.snap == first || u.snap.BaseSupport != 1 {
		t.Errorf("mining at a lower support kept the snapshot built at %d", u.snap.BaseSupport)
	}
	lower := u.snap
	u.Add([]Item{1, 2})
	if _, err := u.MineAll(2); err != nil {
		t.Fatal(err)
	}
	if u.snap == lower || u.snap.NumTx != u.NumTx() {
		t.Error("mining after an Add reused the stale snapshot")
	}
}

// FuzzUpdatableSnapshot: for transactions and a support decoded from
// the fuzz input, the snapshot serializes to BuildIndex's bytes. The
// first byte is the support, the second picks the TreeConfig, and each
// following byte is an item (mod 32) except that 0xff ends a
// transaction.
func FuzzUpdatableSnapshot(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 0xff, 1, 2, 0xff, 2, 3, 4, 0xff, 1, 2, 3, 4})
	f.Add([]byte{1, 3, 5, 5, 5, 0xff, 0xff, 9, 1, 0xff, 1, 9})
	f.Add([]byte{0, 1})
	cfgs := []TreeConfig{{}, {DisableChains: true}, {DisableEmbed: true}, {MaxChainLen: 2}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		minSup, cfg := uint64(data[0]%8)+1, cfgs[int(data[1])%len(cfgs)]
		db := Transactions{{}}
		for _, b := range data[2:] {
			if b == 0xff {
				db = append(db, []Item{})
				continue
			}
			db[len(db)-1] = append(db[len(db)-1], Item(b%32))
		}
		u := NewUpdatableIndex(cfg)
		for _, tx := range db {
			u.Add(tx)
		}
		checkSnapshotBytes(t, u, db, minSup, cfg)
	})
}
