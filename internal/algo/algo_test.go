package algo

import (
	"math/rand"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

func TestNewUnknown(t *testing.T) {
	if _, err := New("nope", nil); err == nil {
		t.Error("New accepted an unknown algorithm")
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Errorf("registered %d algorithms, want 11: %v", len(names), names)
	}
	for _, n := range names {
		m, err := New(n, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if m.Name() != n {
			t.Errorf("miner %q reports name %q", n, m.Name())
		}
	}
}

// TestAllAlgorithmsAgree is the repository's central cross-validation:
// every registered algorithm must produce identical itemsets with
// identical supports on randomized databases, across a sweep of support
// thresholds, and match brute force.
func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		nTx := 15 + rng.Intn(50)
		nItems := 4 + rng.Intn(9)
		db := make(dataset.Slice, nTx)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(nItems))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(nItems))
			}
			db[i] = tx
		}
		for _, minSup := range []uint64{1, 2, uint64(2 + nTx/6)} {
			want, err := mine.Run(mine.BruteForce{}, db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Names() {
				var tr mine.Control
				m, err := New(name, &tr)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mine.Run(m, db, minSup)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := mine.Diff(name, got, "bruteforce", want); d != "" {
					t.Fatalf("trial %d minSup %d %s disagrees with brute force:\n%s", trial, minSup, name, d)
				}
				if tr.Bytes() != 0 {
					t.Errorf("%s: memory tracker imbalance %d bytes", name, tr.Bytes())
				}
				if len(want) > 0 && tr.PeakBytes() <= 0 {
					t.Errorf("%s: no memory tracked", name)
				}
			}
		}
	}
}

// TestAlgorithmsOnDenseData exercises the dense/correlated regime
// (connect/accidents-like) where single-path shortcuts and chain
// handling matter most.
func TestAlgorithmsOnDenseData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := make(dataset.Slice, 40)
	for i := range db {
		var tx []uint32
		for r := 0; r < 12; r++ {
			if rng.Intn(5) != 0 { // each item present w.p. 0.8
				tx = append(tx, uint32(r))
			}
		}
		if len(tx) == 0 {
			tx = []uint32{0}
		}
		db[i] = tx
	}
	want, err := mine.Run(mine.BruteForce{}, db, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		m, _ := New(name, nil)
		got, err := mine.Run(m, db, 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := mine.Diff(name, got, "bruteforce", want); d != "" {
			t.Fatalf("%s on dense data:\n%s", name, d)
		}
	}
}

// TestAlgorithmsEmptyAndDegenerate: all algorithms must tolerate empty
// databases, all-infrequent data, and single-item universes.
func TestAlgorithmsEmptyAndDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		db     dataset.Slice
		minSup uint64
		want   int // expected itemset count
	}{
		{"empty", dataset.Slice{}, 1, 0},
		{"allInfrequent", dataset.Slice{{1}, {2}, {3}}, 2, 0},
		{"singleItem", dataset.Slice{{7}, {7}, {7}}, 2, 1},
		{"emptyTransactions", dataset.Slice{{}, {}, {1}}, 1, 1},
	}
	for _, c := range cases {
		for _, name := range Names() {
			m, _ := New(name, nil)
			got, err := mine.Run(m, c.db, c.minSup)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			if len(got) != c.want {
				t.Errorf("%s/%s: %d itemsets, want %d", c.name, name, len(got), c.want)
			}
		}
	}
}

func BenchmarkAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := make(dataset.Slice, 800)
	for i := range db {
		tx := make([]uint32, 3+rng.Intn(10))
		for j := range tx {
			tx[j] = uint32(1 + rng.Intn(40))
		}
		db[i] = tx
	}
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			m, _ := New(name, nil)
			for i := 0; i < b.N; i++ {
				var sink mine.CountSink
				if err := m.Mine(db, 16, &sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
