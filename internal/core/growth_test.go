package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
	"cfpgrowth/internal/synth"
)

var tinyDB = dataset.Slice{
	{1, 2, 3},
	{1, 2},
	{1, 3},
	{2, 3},
	{1, 2, 3, 4},
	{4},
}

func TestCFPGrowthTiny(t *testing.T) {
	got, err := mine.Run(Growth{}, tinyDB, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(mine.BruteForce{}, tinyDB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("cfpgrowth", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestCFPGrowthEmptyAndInfrequent(t *testing.T) {
	var sink mine.CountSink
	if err := (Growth{}).Mine(dataset.Slice{}, 1, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Error("emitted itemsets from empty database")
	}
	sink = mine.CountSink{}
	if err := (Growth{}).Mine(dataset.Slice{{1}, {2}}, 2, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Error("emitted itemsets although nothing is frequent")
	}
}

func TestCFPGrowthSingleTransaction(t *testing.T) {
	got, err := mine.Run(Growth{}, dataset.Slice{{5, 7, 9}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Errorf("got %d itemsets, want 7 (single-path shortcut)", len(got))
	}
}

// TestCFPGrowthMatchesFPGrowthRandom is the central cross-validation of
// the whole package: CFP-growth (CFP-tree + conversion + CFP-array +
// conditional recursion) must produce byte-identical results to the
// baseline FP-growth and to brute force, under every Config variant.
func TestCFPGrowthMatchesFPGrowthRandom(t *testing.T) {
	configs := []Config{
		{},
		{DisableChains: true},
		{DisableEmbed: true},
		{DisableChains: true, DisableEmbed: true},
		{MaxChainLen: 3},
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		nTx := 10 + rng.Intn(60)
		nItems := 4 + rng.Intn(10)
		db := make(dataset.Slice, nTx)
		for i := range db {
			tx := make([]uint32, 1+rng.Intn(nItems))
			for j := range tx {
				tx[j] = uint32(1 + rng.Intn(nItems))
			}
			db[i] = tx
		}
		for _, minSup := range []uint64{1, 2, uint64(1 + nTx/5)} {
			want, err := mine.Run(fptree.Growth{}, db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			bf, err := mine.Run(mine.BruteForce{}, db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if d := mine.Diff("fpgrowth", want, "bruteforce", bf); d != "" {
				t.Fatalf("baseline broken:\n%s", d)
			}
			for _, cfg := range configs {
				got, err := mine.Run(Growth{Config: cfg}, db, minSup)
				if err != nil {
					t.Fatal(err)
				}
				if d := mine.Diff("cfpgrowth", got, "fpgrowth", want); d != "" {
					t.Fatalf("trial %d minSup %d cfg %+v:\n%s", trial, minSup, cfg, d)
				}
			}
		}
	}
}

func TestCFPGrowthLongTransactions(t *testing.T) {
	// Webdocs-style stress: long transactions over a moderate item
	// space exercise chains, conversion of deep trees, and deep
	// conditional recursion.
	rng := rand.New(rand.NewSource(6))
	db := make(dataset.Slice, 60)
	for i := range db {
		var tx []uint32
		for r := 0; r < 30; r++ {
			if rng.Intn(4) != 0 {
				tx = append(tx, uint32(r))
			}
		}
		db[i] = tx
	}
	// Support high enough to bound output size.
	got, err := mine.Run(Growth{}, db, 45)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(fptree.Growth{}, db, 45)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("cfpgrowth", got, "fpgrowth", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestCFPGrowthSparseItems(t *testing.T) {
	// Large gaps between item identifiers exercise multi-byte Δitem
	// fields and chain-breaking.
	db := dataset.Slice{
		{10, 50000, 900000},
		{10, 50000},
		{10, 900000},
		{50000, 900000},
		{10, 50000, 900000},
	}
	got, err := mine.Run(Growth{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(mine.BruteForce{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("cfpgrowth", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestCFPGrowthMemTracking(t *testing.T) {
	var tr mine.Control
	if err := (Growth{Ctl: &tr}).Mine(tinyDB, 2, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if tr.PeakBytes() <= 0 {
		t.Error("no peak recorded")
	}
	if tr.Bytes() != 0 {
		t.Errorf("tracker imbalance: %d bytes live after mining", tr.Bytes())
	}
}

func TestCFPGrowthSinkErrorAborts(t *testing.T) {
	s := &stopSink{}
	if err := (Growth{}).Mine(tinyDB, 1, s); err == nil {
		t.Fatal("sink error not propagated")
	}
	if s.calls != 1 {
		t.Errorf("mining continued after sink error: %d calls", s.calls)
	}
}

type stopSink struct{ calls int }

type stopErr struct{}

func (stopErr) Error() string { return "stop" }

func (s *stopSink) Emit([]uint32, uint64) error {
	s.calls++
	return stopErr{}
}

// TestCFPGrowthWeightedEquivalence: mining a database with duplicated
// transactions must equal mining with the duplicates materialized.
func TestCFPGrowthDuplicateTransactions(t *testing.T) {
	base := dataset.Slice{{1, 2, 3}, {2, 3}, {1, 3}}
	var db dataset.Slice
	for _, tx := range base {
		for k := 0; k < 4; k++ {
			db = append(db, tx)
		}
	}
	got, err := mine.Run(Growth{}, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(mine.BruteForce{}, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("cfpgrowth", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

// q8k is Quest1(8000), 3,125 transactions, at ξ = 1.2%: a serial mine
// of it builds 5,479 conditionals and emits 30,008 itemsets.
func q8k() (dataset.Slice, uint64) {
	db := quest.Generate(quest.Quest1(8000))
	return db, dataset.AbsoluteSupport(0.012, uint64(len(db)))
}

// questMineSample is the input of the repository benchmark's quest-mine
// workload at seed 1: a seeded quarter of Quest1(500), 12,500
// transactions, at ξ = 1%. A serial mine builds 7,811 conditionals and
// emits 41,020 itemsets.
func questMineSample() (dataset.Slice, uint64) {
	pool := quest.Generate(quest.Quest1(500))
	db := make(dataset.Slice, len(pool)/4)
	rng := rand.New(rand.NewSource(1))
	for i, j := range rng.Perm(len(pool))[:len(db)] {
		db[i] = pool[j]
	}
	return db, dataset.AbsoluteSupport(0.01, uint64(len(db)))
}

// TestSerialEmissionOrder pins the serial miner's emission sequence, in
// order, itemset by itemset with its support, as an FNV-1a hash. The
// sequence depends on no tree's physical layout, only on the mine order
// (ranks descending at every level, the single-path and leaf
// enumerations), so a change to how conditional trees are built, named
// or stored must leave every hash as it is. The hashes were taken
// before conditional trees were built over compacted ranks.
func TestSerialEmissionOrder(t *testing.T) {
	db, minSup := q8k()
	for _, tc := range []struct {
		g    Growth
		n    int
		hash uint64
	}{
		{Growth{}, 30008, 0x656b3f8207389799},
		{Growth{Config: Config{DisableFlatDecode: true}}, 30008, 0x656b3f8207389799},
		{Growth{Config: Config{DisableChains: true, DisableEmbed: true}}, 30008, 0x656b3f8207389799},
		{Growth{MaxLen: 3}, 15105, 0x957ed38a2af3dcbe},
	} {
		h := fnv.New64a()
		var buf []byte
		n := 0
		err := tc.g.Mine(db, minSup, funcSink(func(items []uint32, sup uint64) error {
			buf = buf[:0]
			for _, it := range items {
				buf = binary.LittleEndian.AppendUint32(buf, it)
			}
			buf = binary.LittleEndian.AppendUint64(buf, sup)
			h.Write(append(buf, 0xff))
			n++
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.n || h.Sum64() != tc.hash {
			t.Errorf("config %+v MaxLen %d: %d itemsets hashing to %#x, want %d hashing to %#x",
				tc.g.Config, tc.g.MaxLen, n, h.Sum64(), tc.n, tc.hash)
		}
	}
}

// TestMineRealHeap bounds the Go heap a serial mine allocates, over the
// whole run, by a multiple of its modeled peak. On Q8k the run allocated
// 31.4x its peak while every conditional CFP-array, flat decoding and
// per-rank table spanned the parent's whole rank space and each
// conversion kept a count per node. With neither it allocates 3.1x
// (3.4x under the race detector, 2.9x on 386); with the count buffer
// back alone, 4.4x. 4x leaves the first some room and fails if either
// waste comes back.
func TestMineRealHeap(t *testing.T) {
	if debugChecks {
		t.Skip("the assertion layer boxes its arguments at every check it passes")
	}
	const maxRatio = 4
	db, minSup := q8k()
	ctl := &mine.Control{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var n mine.CountSink
	if err := (Growth{Ctl: ctl}).Mine(db, minSup, &n); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if peak := ctl.PeakBytes(); alloc > maxRatio*uint64(peak) {
		t.Errorf("the mine allocated %d B, %.2fx its modeled peak of %d B; want at most %dx",
			alloc, float64(alloc)/float64(peak), peak, maxRatio)
	}
}

// BenchmarkMineQuest is the whole serial mine of the quest-mine
// workload's input: build, convert and the conditional recursion, with
// the bytes and objects it allocates per run.
func BenchmarkMineQuest(b *testing.B) {
	db, minSup := questMineSample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n mine.CountSink
		if err := (Growth{Ctl: &mine.Control{}}).Mine(db, minSup, &n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFPGrowthSmall(b *testing.B) {
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

func BenchmarkCFPTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	txs := make([][]uint32, 512)
	for i := range txs {
		var tx []uint32
		for r := 0; r < 64; r++ {
			if rng.Intn(3) == 0 {
				tx = append(tx, uint32(r))
			}
		}
		if len(tx) == 0 {
			tx = []uint32{0}
		}
		txs[i] = tx
	}
	tree := newTestTree(Config{}, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Insert(txs[i%len(txs)], 1)
	}
}

func BenchmarkConvert(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tree := newTestTree(Config{}, 128)
	for i := 0; i < 5000; i++ {
		var tx []uint32
		for r := 0; r < 128; r++ {
			if rng.Intn(6) == 0 {
				tx = append(tx, uint32(r))
			}
		}
		if len(tx) > 0 {
			tree.Insert(tx, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Convert(tree)
	}
}

// denseRun is the pattern base the stage benchmarks below chase: the
// top rank of synth accidents at 1/40 scale, ξ = 45%, whose conditional
// the pair chase proves a leaf only after walking its whole run.
type denseRun struct {
	a      *Array
	d      Decode
	minSup uint64
	rank   uint32
	lo, hi int32
	sup    []uint32
}

func newDenseRun(b *testing.B) *denseRun {
	b.Helper()
	p, ok := synth.ByName("accidents")
	if !ok {
		b.Fatal("no accidents profile")
	}
	db := p.Generate(40)
	minSup := dataset.AbsoluteSupport(0.45, uint64(len(db)))
	tree, _, err := Build(db, minSup, Config{}, nil, mine.NullTracker{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := &denseRun{a: Convert(tree), minSup: minSup}
	if !r.d.From(r.a) {
		b.Fatal("From = false")
	}
	r.rank = uint32(r.a.NumItems() - 1)
	r.lo, r.hi = r.d.Run(r.rank)
	r.sup = r.a.runCounts(r.rank, nil)
	return r
}

// count runs the counting chase of the run into condCount.
func (r *denseRun) count(condCount []uint64) {
	d := &r.d
	switch d.layout {
	case layoutSmall:
		countSmall(d.walk, r.sup, r.lo, r.hi, condCount)
	case layoutLocal4:
		countLocal(d.walk, d.start, r.sup, r.lo, r.hi, condCount)
	default:
		countLocal(d.walkW, d.start, r.sup, r.lo, r.hi, condCount)
	}
}

// BenchmarkDecodeFrom is the flat decode stage: one Decode.From of a
// dense CFP-array into warm buffers.
func BenchmarkDecodeFrom(b *testing.B) {
	r := newDenseRun(b)
	var d Decode
	d.From(r.a) // size the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.From(r.a) {
			b.Fatal("From = false")
		}
	}
}

// BenchmarkCountChase is the count chase stage: the conditional item
// supports of one dense pattern base, walked from the flat decoding.
func BenchmarkCountChase(b *testing.B) {
	r := newDenseRun(b)
	condCount := make([]uint64, r.rank)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(condCount)
		r.count(condCount)
	}
}

// BenchmarkLeafVerdict is the leaf test stage: the pair chase of one
// dense pattern base, which counts every pair of every filtered path
// and finds none frequent.
func BenchmarkLeafVerdict(b *testing.B) {
	r := newDenseRun(b)
	m := &cfpGrower{minSup: r.minSup, track: mine.NullTracker{}}
	condCount := make([]uint64, r.rank)
	r.count(condCount)
	d := &r.d
	chased := false
	chase := func(visit func(path []uint32, c uint64) bool) bool {
		chased = true
		switch d.layout {
		case layoutSmall:
			return pathsSmall(m, d.walk, r.sup, r.lo, r.hi, condCount, visit)
		case layoutLocal4:
			return pathsLocal(m, d.walk, d.start, r.sup, r.lo, r.hi, condCount, visit)
		default:
			return pathsLocal(m, d.walkW, d.start, r.sup, r.lo, r.hi, condCount, visit)
		}
	}
	sup := r.a.Support(r.rank)
	if m.leafVerdict(condCount, sup, false, chase) != condLeaf || !chased {
		b.Fatal("the top rank's conditional is not a chased leaf")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.leafVerdict(condCount, sup, false, chase)
	}
}
