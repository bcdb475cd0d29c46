package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestCountItems(t *testing.T) {
	db := Slice{
		{1, 2, 3},
		{2, 3},
		{3},
		{2, 2, 2}, // duplicates count once
		{},
	}
	c, err := CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTx != 5 {
		t.Errorf("NumTx = %d, want 5", c.NumTx)
	}
	want := map[Item]uint64{1: 1, 2: 3, 3: 3}
	if !reflect.DeepEqual(c.Support, want) {
		t.Errorf("Support = %v, want %v", c.Support, want)
	}
}

func TestRecoderRanksByDescendingSupport(t *testing.T) {
	db := Slice{
		{10, 20, 30, 40},
		{10, 20, 30},
		{10, 20},
		{10},
	}
	c, _ := CountItems(db)
	r := NewRecoder(c, 2) // item 40 (support 1) is infrequent
	if r.NumFrequent() != 3 {
		t.Fatalf("NumFrequent = %d, want 3", r.NumFrequent())
	}
	// Rank 0 must be the most frequent item.
	if r.Decode(0) != 10 || r.Decode(1) != 20 || r.Decode(2) != 30 {
		t.Errorf("rank order = %d,%d,%d, want 10,20,30", r.Decode(0), r.Decode(1), r.Decode(2))
	}
	if r.Support(0) != 4 || r.Support(2) != 2 {
		t.Errorf("supports = %d,%d, want 4,2", r.Support(0), r.Support(2))
	}
}

func TestRecoderFrequent(t *testing.T) {
	db := Slice{{10, 20, 30, 40}, {10, 20, 30}, {10, 20}, {10}}
	c, _ := CountItems(db)
	r := NewRecoder(c, 2)
	names, sups := r.Frequent()
	if !reflect.DeepEqual(names, []Item{10, 20, 30}) || !reflect.DeepEqual(sups, []uint64{4, 3, 2}) {
		t.Fatalf("Frequent = %v, %v; want [10 20 30], [4 3 2]", names, sups)
	}
	// Fresh copies: the caller may keep or modify them.
	names[0], sups[0] = 99, 99
	if r.Decode(0) != 10 || r.Support(0) != 4 {
		t.Error("Frequent aliases the recoder's tables")
	}
}

func TestRecoderTieBreakDeterministic(t *testing.T) {
	db := Slice{{5, 3, 9}, {5, 3, 9}}
	c, _ := CountItems(db)
	r := NewRecoder(c, 1)
	// Equal supports: ascending original id.
	if r.Decode(0) != 3 || r.Decode(1) != 5 || r.Decode(2) != 9 {
		t.Errorf("tie-break order = %d,%d,%d, want 3,5,9", r.Decode(0), r.Decode(1), r.Decode(2))
	}
}

func TestEncodeFiltersSortsDedupes(t *testing.T) {
	db := Slice{
		{1, 2, 3, 4}, {1, 2, 3}, {1, 2}, {1},
	}
	c, _ := CountItems(db)
	r := NewRecoder(c, 2)
	got := r.Encode([]Item{4, 3, 1, 3, 2, 99}, nil)
	// item 4 and 99 infrequent; ranks: 1->0, 2->1, 3->2.
	want := []uint32{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Encode = %v, want %v", got, want)
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	db := Slice{{1, 2}, {1, 2}}
	c, _ := CountItems(db)
	r := NewRecoder(c, 1)
	buf := make([]uint32, 0, 16)
	got := r.Encode([]Item{2, 1}, buf)
	if &got[0] != &buf[:1][0] {
		t.Error("Encode did not reuse the provided buffer")
	}
}

func TestDecodeSet(t *testing.T) {
	db := Slice{{7, 8}, {7, 8}, {7}}
	c, _ := CountItems(db)
	r := NewRecoder(c, 1)
	got := r.DecodeSet([]uint32{1, 0})
	if !reflect.DeepEqual(got, []Item{7, 8}) {
		t.Errorf("DecodeSet = %v, want [7 8]", got)
	}
}

func TestAbsoluteSupport(t *testing.T) {
	cases := []struct {
		rel   float64
		numTx uint64
		want  uint64
	}{
		{0.1, 100, 10},
		{0.015, 1000, 15},
		{0.0151, 1000, 16}, // rounds up
		{0, 100, 1},
		{1.0, 100, 100},
		{0.5, 3, 2},
	}
	for _, c := range cases {
		if got := AbsoluteSupport(c.rel, c.numTx); got != c.want {
			t.Errorf("AbsoluteSupport(%v, %d) = %d, want %d", c.rel, c.numTx, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	n, d, avg, err := Validate(Slice{{1, 2}, {2, 3}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || d != 3 || avg < 1.66 || avg > 1.67 {
		t.Errorf("Validate = (%d,%d,%v)", n, d, avg)
	}
	if _, _, _, err := Validate(Slice{}); err == nil {
		t.Error("Validate accepted empty database")
	}
	if _, _, _, err := Validate(Slice{nil}); err == nil {
		t.Error("Validate accepted nil transaction")
	}
}

// Property: encoding is idempotent on already-encoded frequent-only
// transactions and preserves the item multiset as a set.
func TestEncodeSetSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := make(Slice, 20)
		for i := range db {
			tx := make([]Item, rng.Intn(10))
			for j := range tx {
				tx[j] = Item(rng.Intn(15))
			}
			db[i] = tx
		}
		c, err := CountItems(db)
		if err != nil {
			return false
		}
		r := NewRecoder(c, 2)
		for _, tx := range db {
			enc := r.Encode(tx, nil)
			// Strictly increasing ranks.
			for k := 1; k < len(enc); k++ {
				if enc[k] <= enc[k-1] {
					return false
				}
			}
			// Every encoded rank decodes to an item present in tx.
			for _, rk := range enc {
				orig := r.Decode(rk)
				found := false
				for _, it := range tx {
					if it == orig {
						found = true
					}
				}
				if !found {
					return false
				}
			}
			// Every frequent item of tx appears in enc.
			for _, it := range tx {
				if c.Support[it] >= 2 {
					found := false
					for _, rk := range enc {
						if r.Decode(rk) == it {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refCountItems is the map-only first pass, the reference for the dense
// Counter.
func refCountItems(db Slice) Counts {
	c := Counts{Support: make(map[Item]uint64)}
	for _, tx := range db {
		c.NumTx++
		seen := make(map[Item]bool)
		for _, it := range tx {
			if !seen[it] {
				seen[it] = true
				c.Support[it]++
			}
		}
	}
	return c
}

// refRecode is the map-only recoding: the frequent items in rank order,
// and Encode as a map lookup, a sort and a dedupe.
func refRecode(c Counts, minSup uint64) (orig []Item, encode func([]Item) []uint32) {
	for it, sup := range c.Support {
		if sup >= max(minSup, 1) {
			orig = append(orig, it)
		}
	}
	sort.Slice(orig, func(i, j int) bool {
		si, sj := c.Support[orig[i]], c.Support[orig[j]]
		if si != sj {
			return si > sj
		}
		return orig[i] < orig[j]
	})
	rank := make(map[Item]uint32)
	for rk, it := range orig {
		rank[it] = uint32(rk)
	}
	return orig, func(tx []Item) []uint32 {
		out := []uint32{}
		for _, it := range tx {
			if rk, ok := rank[it]; ok && !slices.Contains(out, rk) {
				out = append(out, rk)
			}
		}
		slices.Sort(out)
		return out
	}
}

// randomDB draws transactions with repeated items from ids.
func randomDB(rng *rand.Rand, ids func() Item) Slice {
	db := make(Slice, 300)
	for i := range db {
		db[i] = make([]Item, rng.Intn(12))
		for j := range db[i] {
			if j > 0 && rng.Intn(5) == 0 {
				db[i][j] = db[i][rng.Intn(j)] // a duplicate within the transaction
			} else {
				db[i][j] = ids()
			}
		}
	}
	return db
}

func TestCountAndRecodeMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	near := func(base Item, spread int) func() Item {
		return func() Item { return base - Item(spread) + Item(rng.Intn(2*spread)) }
	}
	small := func() Item { return Item(rng.Intn(40)) }
	atLimit := near(denseLimit, 4)
	top := func() Item { return math.MaxUint32 - Item(rng.Intn(30)) }
	regimes := map[string]func() Item{
		"small":    small,
		"at-limit": atLimit,
		"near-max": top,
		"mixed": func() Item {
			return []func() Item{small, atLimit, top}[rng.Intn(3)]()
		},
	}
	for name, ids := range regimes {
		for trial := 0; trial < 5; trial++ {
			db := randomDB(rng, ids)
			got, err := CountItems(db)
			if err != nil {
				t.Fatal(err)
			}
			want := refCountItems(db)
			if got.NumTx != want.NumTx || !reflect.DeepEqual(got.Support, want.Support) {
				t.Fatalf("%s: CountItems = %+v, want %+v", name, got, want)
			}
			if got.ModelBytes() != want.ModelBytes() {
				t.Fatalf("%s: ModelBytes = %d, want %d", name, got.ModelBytes(), want.ModelBytes())
			}
			for _, minSup := range []uint64{0, 2, 5, 20} {
				r := NewRecoder(got, minSup)
				orig, encode := refRecode(want, minSup)
				if r.NumFrequent() != len(orig) {
					t.Fatalf("%s ξ=%d: %d frequent items, want %d", name, minSup, r.NumFrequent(), len(orig))
				}
				for rk, it := range orig {
					if r.Decode(uint32(rk)) != it || r.Support(uint32(rk)) != want.Support[it] {
						t.Fatalf("%s ξ=%d: rank %d is %d (support %d), want %d (support %d)", name, minSup, rk,
							r.Decode(uint32(rk)), r.Support(uint32(rk)), it, want.Support[it])
					}
				}
				var buf []uint32
				for _, tx := range db {
					buf = r.Encode(tx, buf)
					if w := encode(tx); !slices.Equal(buf, w) {
						t.Fatalf("%s ξ=%d: Encode(%v) = %v, want %v", name, minSup, tx, buf, w)
					}
				}
			}
		}
	}
}

func TestCounterAddReturnsDistinctInArrivalOrder(t *testing.T) {
	var c Counter
	got := c.Add([]Item{7, denseLimit + 1, 7, 3, denseLimit + 1, 3, math.MaxUint32})
	want := []Item{7, denseLimit + 1, 3, math.MaxUint32}
	if !slices.Equal(got, want) {
		t.Errorf("Add = %v, want %v", got, want)
	}
}

// TestCounterStampWrap starts the transaction stamp just below its wrap
// and checks that counting stays exact across it, for identifiers on
// both sides of the dense limit. Without the reset, identifiers never
// seen (stamp 0) or last counted at stamp 1 would be skipped after the
// wrap.
func TestCounterStampWrap(t *testing.T) {
	var db Slice
	big := Item(denseLimit + 9)
	for i := 0; i < 12; i++ {
		db = append(db, []Item{1, 2, 2, big, big, Item(10 + i), 5000})
	}
	var c Counter
	c.Add(db[0]) // stamp 1 marks 1, 2, big, 10 and 5000
	c.cur = math.MaxUint32 - 4
	for _, tx := range db[1:] {
		c.Add(tx)
	}
	if got, want := c.Counts(), refCountItems(db); !reflect.DeepEqual(got, want) {
		t.Errorf("Counts across the stamp wrap = %+v, want %+v", got, want)
	}
}
