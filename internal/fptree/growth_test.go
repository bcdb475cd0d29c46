package fptree

import (
	"math/rand"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

var tinyDB = dataset.Slice{
	{1, 2, 3},
	{1, 2},
	{1, 3},
	{2, 3},
	{1, 2, 3, 4},
	{4},
}

func TestGrowthTiny(t *testing.T) {
	got, err := mine.Run(Growth{}, tinyDB, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(mine.BruteForce{}, tinyDB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("fpgrowth", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestGrowthEmptyDatabase(t *testing.T) {
	var sink mine.CountSink
	if err := (Growth{}).Mine(dataset.Slice{}, 1, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Errorf("emitted %d itemsets from empty database", sink.N)
	}
}

func TestGrowthAllInfrequent(t *testing.T) {
	db := dataset.Slice{{1}, {2}, {3}}
	var sink mine.CountSink
	if err := (Growth{}).Mine(db, 2, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Errorf("emitted %d itemsets, want 0", sink.N)
	}
}

func TestGrowthSingleTransaction(t *testing.T) {
	db := dataset.Slice{{5, 7, 9}}
	got, err := mine.Run(Growth{}, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All 7 non-empty subsets, each with support 1, via the
	// single-path shortcut.
	if len(got) != 7 {
		t.Errorf("got %d itemsets, want 7", len(got))
	}
	for _, s := range got {
		if s.Support != 1 {
			t.Errorf("itemset %v support %d, want 1", s.Items, s.Support)
		}
	}
}

func TestGrowthIdenticalTransactions(t *testing.T) {
	db := dataset.Slice{{1, 2}, {1, 2}, {1, 2}}
	got, err := mine.Run(Growth{}, db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d itemsets, want 3: %v", len(got), got)
	}
	for _, s := range got {
		if s.Support != 3 {
			t.Errorf("itemset %v support %d, want 3", s.Items, s.Support)
		}
	}
}

func TestGrowthMinSupportZeroTreatedAsOne(t *testing.T) {
	db := dataset.Slice{{1}}
	got, err := mine.Run(Growth{}, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Support != 1 {
		t.Errorf("got %v", got)
	}
}

// TestGrowthMatchesBruteForceRandom is the central cross-validation:
// random small databases across a sweep of supports.
func TestGrowthMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		nTx := 10 + rng.Intn(60)
		nItems := 4 + rng.Intn(10)
		maxLen := 1 + rng.Intn(nItems)
		db := make(dataset.Slice, nTx)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(maxLen))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(nItems))
			}
			db[i] = tx
		}
		for _, minSup := range []uint64{1, 2, 3, uint64(1 + nTx/4)} {
			got, err := mine.Run(Growth{}, db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mine.Run(mine.BruteForce{}, db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if d := mine.Diff("fpgrowth", got, "bruteforce", want); d != "" {
				t.Fatalf("trial %d minSup %d:\n%s", trial, minSup, d)
			}
		}
	}
}

func TestGrowthSkewedData(t *testing.T) {
	// Zipf-ish skew stresses deep shared prefixes and long nodelinks.
	rng := rand.New(rand.NewSource(5))
	db := make(dataset.Slice, 120)
	for i := range db {
		tx := make([]uint32, 2+rng.Intn(8))
		for j := range tx {
			// Heavily skewed toward small items.
			tx[j] = uint32(1 + rng.Intn(1+rng.Intn(1+rng.Intn(12))))
		}
		db[i] = tx
	}
	got, err := mine.Run(Growth{}, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(mine.BruteForce{}, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("fpgrowth", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestGrowthMemTracking(t *testing.T) {
	var tr mine.Control
	if err := (Growth{Ctl: &tr}).Mine(tinyDB, 2, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if tr.PeakBytes() <= 0 {
		t.Error("tracker recorded no peak memory")
	}
	if tr.Bytes() != 0 {
		t.Errorf("tracker imbalance: %d bytes still live", tr.Bytes())
	}
}

func TestGrowthSinkErrorAborts(t *testing.T) {
	stop := &errSink{}
	err := (Growth{}).Mine(tinyDB, 1, stop)
	if err == nil {
		t.Fatal("sink error not propagated")
	}
	if stop.calls != 1 {
		t.Errorf("mining continued after sink error: %d calls", stop.calls)
	}
}

type errSink struct{ calls int }

func (s *errSink) Emit([]uint32, uint64) error {
	s.calls++
	return errStop
}

var errStop = &sinkErr{}

type sinkErr struct{}

func (*sinkErr) Error() string { return "stop" }

func BenchmarkGrowthSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := make(dataset.Slice, 1000)
	for i := range db {
		tx := make([]uint32, 3+rng.Intn(12))
		for j := range tx {
			tx[j] = uint32(1 + rng.Intn(50))
		}
		db[i] = tx
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink mine.CountSink
		if err := (Growth{}).Mine(db, 20, &sink); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitDoesNotAllocate: emission runs once per frequent itemset, so
// with a warm buffer it allocates nothing.
func TestEmitDoesNotAllocate(t *testing.T) {
	m := &grower{sink: &mine.CountSink{}}
	prefix := []uint32{9, 3, 7}
	emit := func() { _ = m.emit(prefix, 1) }
	emit() // warm the buffer
	if got := testing.AllocsPerRun(100, emit); got != 0 {
		t.Errorf("emit: %v allocations per call, want 0", got)
	}
}
