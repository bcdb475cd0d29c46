package dataset_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/synth"
)

// The ingest-stage benchmarks run on the kosarak stand-in at 1/20 of
// its size (~50k transactions, ~400k items): parse, count and encode
// each timed alone, reported per item.

var kosarak struct {
	once  sync.Once
	db    dataset.Slice
	items int
}

func kosarakDB() (dataset.Slice, int) {
	kosarak.once.Do(func() {
		p, ok := synth.ByName("kosarak")
		if !ok {
			panic("no kosarak profile")
		}
		kosarak.db = p.Generate(20)
		for _, tx := range kosarak.db {
			kosarak.items += len(tx)
		}
	})
	return kosarak.db, kosarak.items
}

func perItem(b *testing.B, items int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(items), "ns/item")
}

func BenchmarkFileScan(b *testing.B) {
	db, items := kosarakDB()
	path := filepath.Join(b.TempDir(), "kosarak.fimi")
	if err := dataset.WriteFile(path, db); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	src := &dataset.File{Path: path}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Scan(func([]dataset.Item) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	perItem(b, items)
}

func BenchmarkCountItems(b *testing.B) {
	db, items := kosarakDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.CountItems(db); err != nil {
			b.Fatal(err)
		}
	}
	perItem(b, items)
}

func BenchmarkEncode(b *testing.B) {
	db, items := kosarakDB()
	counts, err := dataset.CountItems(db)
	if err != nil {
		b.Fatal(err)
	}
	rec := dataset.NewRecoder(counts, dataset.AbsoluteSupport(0.001, counts.NumTx))
	var buf []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tx := range db {
			buf = rec.Encode(tx, buf[:0])
		}
	}
	perItem(b, items)
}
