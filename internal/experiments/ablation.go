package experiments

import (
	"io"
	"time"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
	"cfpgrowth/internal/synth"
)

// AblationRow is one CFP-tree configuration measured on the
// chain-friendly webdocs-like workload (DESIGN.md §5).
type AblationRow struct {
	Name                                 string
	Nodes                                int
	Bytes                                int64
	AvgNodeSize                          float64
	BuildTime                            time.Duration
	StdNodes, ChainNodes, EmbeddedLeaves int
}

// Ablation measures the contribution of each compression feature.
func (c Config) Ablation() ([]AblationRow, error) {
	c = c.WithDefaults()
	p, _ := synth.ByName("webdocs")
	db := p.Generate(c.Scale)
	counts, err := dataset.CountItems(db)
	if err != nil {
		return nil, err
	}
	minSup := dataset.AbsoluteSupport(0.10, counts.NumTx)
	rec := dataset.NewRecoder(counts, minSup)
	names, _ := rec.Frequent()
	cfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"full (paper settings)", core.Config{}},
		{"no chain nodes", core.Config{DisableChains: true}},
		{"no embedded leaves", core.Config{DisableEmbed: true}},
		{"neither", core.Config{DisableChains: true, DisableEmbed: true}},
		{"chains capped at 4", core.Config{MaxChainLen: 4}},
		{"chains up to 63", core.Config{MaxChainLen: 63}},
	}
	a := arena.New()
	var rows []AblationRow
	for _, cc := range cfgs {
		a.Reset()
		tree := core.NewTree(a, cc.cfg, names)
		t0 := time.Now()
		var buf []uint32
		err := db.Scan(func(tx []uint32) error {
			buf = rec.Encode(tx, buf[:0])
			tree.Insert(buf, 1)
			return nil
		})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		row := AblationRow{
			Name:      cc.name,
			Nodes:     tree.NumNodes(),
			Bytes:     tree.Bytes(),
			BuildTime: elapsed,
		}
		row.StdNodes, row.ChainNodes, row.EmbeddedLeaves = tree.PhysNodes()
		if row.Nodes > 0 {
			row.AvgNodeSize = float64(row.Bytes) / float64(row.Nodes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAblation writes the feature-contribution table.
func PrintAblation(w io.Writer, rows []AblationRow) {
	fprintf(w, "Ablation: CFP-tree features on webdocs-like data, ξ=10%% (DESIGN.md §5)\n")
	fprintf(w, "%-24s %8s %10s %8s %9s %8s %8s %8s\n",
		"configuration", "nodes", "bytes", "B/node", "build", "std", "chains", "embed")
	for _, r := range rows {
		fprintf(w, "%-24s %8d %10d %8.2f %8.0fms %8d %8d %8d\n",
			r.Name, r.Nodes, r.Bytes, r.AvgNodeSize,
			float64(r.BuildTime.Microseconds())/1000,
			r.StdNodes, r.ChainNodes, r.EmbeddedLeaves)
	}
}

// ArrayVsDirectRow compares conditioning via the CFP-array against
// conditioning by full tree walks (the no-conversion ablation).
type ArrayVsDirectRow struct {
	Name     string
	Time     time.Duration
	Itemsets uint64
}

// ArrayVsDirect measures the CFP-array's raison d'être on Quest-shaped
// data with many frequent items.
func (c Config) ArrayVsDirect() ([]ArrayVsDirectRow, error) {
	c = c.WithDefaults()
	db := dataset.Slice(quest.Generate(quest.Config{
		NumTx:    4000,
		AvgTxLen: 30,
		NumItems: 2000,
		Seed:     12,
	}))
	counts, err := dataset.CountItems(db)
	if err != nil {
		return nil, err
	}
	minSup := dataset.AbsoluteSupport(0.01, counts.NumTx)
	var rows []ArrayVsDirectRow
	run := func(name string, m mine.Miner) error {
		var sink mine.CountSink
		t0 := time.Now()
		if err := m.Mine(db, minSup, &sink); err != nil {
			return err
		}
		rows = append(rows, ArrayVsDirectRow{Name: name, Time: time.Since(t0), Itemsets: sink.N})
		return nil
	}
	if err := run("CFP-array (paper)", core.Growth{MaxLen: 3}); err != nil {
		return nil, err
	}
	if err := run("direct tree walks", core.DirectGrowth{MaxLen: 3}); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintArrayVsDirect writes the comparison.
func PrintArrayVsDirect(w io.Writer, rows []ArrayVsDirectRow) {
	fprintf(w, "Conversion ablation: conditioning via CFP-array vs full tree walks (itemsets ≤ 3)\n")
	for _, r := range rows {
		fprintf(w, "  %-20s %8.2fs (%d itemsets)\n", r.Name, seconds(r.Time), r.Itemsets)
	}
	if len(rows) == 2 && rows[0].Time > 0 {
		fprintf(w, "  slowdown without the CFP-array: %.1fx\n",
			float64(rows[1].Time)/float64(rows[0].Time))
	}
}
