// Ablation benchmarks for the CFP-tree design choices called out in
// DESIGN.md §5: chain nodes, embedded leaves, maximum chain length, and
// partial counts. Each reports the average node size obtained on the
// chain-friendly webdocs-like workload, so the contribution of each
// feature to the 7x–25x compression is directly visible.
package cfpgrowth

import (
	"testing"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/quest"
	"cfpgrowth/internal/synth"
)

// ablationDB builds the webdocs-like workload once.
var ablationDB dataset.Slice

func ablationData(b *testing.B) dataset.Slice {
	b.Helper()
	if ablationDB == nil {
		p, ok := synth.ByName("webdocs")
		if !ok {
			b.Fatal("webdocs profile missing")
		}
		ablationDB = p.Generate(4000)
	}
	return ablationDB
}

func benchTreeConfig(b *testing.B, cfg core.Config) {
	db := ablationData(b)
	counts, err := dataset.CountItems(db)
	if err != nil {
		b.Fatal(err)
	}
	minSup := dataset.AbsoluteSupport(0.10, counts.NumTx)
	rec := dataset.NewRecoder(counts, minSup)
	names, _ := rec.Frequent()
	a := arena.New()
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		tree := core.NewTree(a, cfg, names)
		var buf []uint32
		_ = db.Scan(func(tx []uint32) error {
			buf = rec.Encode(tx, buf[:0])
			tree.Insert(buf, 1)
			return nil
		})
		if tree.NumNodes() > 0 {
			avg = float64(tree.Bytes()) / float64(tree.NumNodes())
		}
	}
	b.ReportMetric(avg, "B/node")
}

func BenchmarkAblation_Full(b *testing.B) {
	benchTreeConfig(b, core.Config{})
}

func BenchmarkAblation_NoChains(b *testing.B) {
	benchTreeConfig(b, core.Config{DisableChains: true})
}

func BenchmarkAblation_NoEmbed(b *testing.B) {
	benchTreeConfig(b, core.Config{DisableEmbed: true})
}

func BenchmarkAblation_NoChainsNoEmbed(b *testing.B) {
	benchTreeConfig(b, core.Config{DisableChains: true, DisableEmbed: true})
}

func BenchmarkAblation_ChainLen4(b *testing.B) {
	benchTreeConfig(b, core.Config{MaxChainLen: 4})
}

func BenchmarkAblation_ChainLen63(b *testing.B) {
	benchTreeConfig(b, core.Config{MaxChainLen: 63})
}

// BenchmarkAblation_ArrayVsDirect justifies the CFP-array's existence
// (DESIGN.md §5 item 6): mining straight off the ternary CFP-tree —
// which has no nodelinks — needs a full tree walk per conditioning
// step, where the item-clustered array needs a sequential subarray
// scan. Compare ns/op between the two sub-benchmarks.
func BenchmarkAblation_ArrayVsDirect(b *testing.B) {
	// Quest-shaped data: many frequent items means many conditioning
	// steps, which is where nodelink-free direct mining pays a full
	// tree walk each time.
	db := dataset.Slice(quest.Generate(quest.Config{
		NumTx:    4000,
		AvgTxLen: 30,
		NumItems: 2000,
		Seed:     12,
	}))
	counts, err := dataset.CountItems(db)
	if err != nil {
		b.Fatal(err)
	}
	minSup := dataset.AbsoluteSupport(0.01, counts.NumTx)
	b.Run("array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countOnlySink
			if err := (core.Growth{MaxLen: 3}).Mine(db, minSup, &sink); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countOnlySink
			if err := (core.DirectGrowth{MaxLen: 3}).Mine(db, minSup, &sink); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type countOnlySink struct{ n uint64 }

func (s *countOnlySink) Emit([]uint32, uint64) error { s.n++; return nil }

// BenchmarkAblation_MiningConfigs measures the end-to-end mining cost
// of each configuration, showing that the compression features do not
// slow the miner down materially (the paper's "no significant overhead
// on small data" claim).
func BenchmarkAblation_MiningConfigs(b *testing.B) {
	db := ablationData(b)
	for _, c := range []struct {
		name string
		cfg  TreeConfig
	}{
		{"full", TreeConfig{}},
		{"nochains", TreeConfig{DisableChains: true}},
		{"noembed", TreeConfig{DisableEmbed: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := Count(Transactions(db), Options{
					RelativeSupport: 0.10,
					Tree:            c.cfg,
					MaxLen:          3,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
