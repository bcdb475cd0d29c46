package experiments

import (
	"io"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/synth"
)

// Fig6Row is the average node size of the CFP structures for one
// dataset at one support level (Figures 6(a) and 6(b)).
type Fig6Row struct {
	Dataset      string
	SupportLevel string  // "high", "medium", "low"
	RelSupport   float64 // the actual ξ used
	Nodes        int
	TreeAvgNode  float64 // Fig 6(a): ternary CFP-tree bytes per node
	ArrayAvgNode float64 // Fig 6(b): CFP-array bytes per node
	// ArrayDpos/DeltaItem/Count break the array bytes down per field
	// (the paper notes Δpos dominates on webdocs and Quest).
	ArrayDposShare float64
}

// fig6Supports are the paper's three support levels (§4.2):
// ξ_high = 0.31%, ξ_medium = 0.07%, ξ_low = 0.01%. Scaled-down
// datasets have fewer transactions, so the absolute thresholds floor
// at 2 to stay meaningful.
var fig6Supports = []struct {
	name string
	rel  float64
}{
	{"high", 0.0031},
	{"medium", 0.0007},
	{"low", 0.0001},
}

// Fig6Datasets lists the dataset names used in Figure 6.
func Fig6Datasets() []string {
	return []string{"retail", "connect", "kosarak", "accidents", "webdocs", "quest1", "quest2"}
}

// Fig6 computes both panels of Figure 6.
func (c Config) Fig6() ([]Fig6Row, error) {
	c = c.WithDefaults()
	var rows []Fig6Row
	for _, name := range Fig6Datasets() {
		db, err := c.datasetByName(name)
		if err != nil {
			return nil, err
		}
		counts, err := dataset.CountItems(db)
		if err != nil {
			return nil, err
		}
		levels := fig6Supports
		if c.Quick {
			levels = levels[:1]
		}
		for _, lvl := range levels {
			minSup := dataset.AbsoluteSupport(lvl.rel, counts.NumTx)
			if minSup < 2 {
				minSup = 2
			}
			rec := dataset.NewRecoder(counts, minSup)
			names, _ := rec.Frequent()
			tree := core.NewTree(arena.New(), core.Config{}, names)
			var buf []uint32
			err = db.Scan(func(tx []uint32) error {
				buf = rec.Encode(tx, buf[:0])
				tree.Insert(buf, 1)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if tree.NumNodes() == 0 {
				continue
			}
			ts := tree.Stats()
			arr := core.Convert(tree)
			as := arr.Stats()
			row := Fig6Row{
				Dataset:      name,
				SupportLevel: lvl.name,
				RelSupport:   lvl.rel,
				Nodes:        ts.Nodes,
				TreeAvgNode:  ts.AvgNodeSize,
				ArrayAvgNode: as.AvgNodeSize,
			}
			if as.DataBytes > 0 {
				row.ArrayDposShare = float64(as.DposBytes) / float64(as.DataBytes)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// datasetByName resolves Figure 6 dataset names: the FIMI-like
// profiles by synth profile, quest1/quest2 via the Quest generator.
func (c Config) datasetByName(name string) (dataset.Slice, error) {
	switch name {
	case "quest1", "quest2":
		return c.questData(name), nil
	default:
		p, ok := synth.ByName(name)
		if !ok {
			return nil, errUnknownDataset(name)
		}
		// Large profiles get an extra scale factor so Figure 6 stays
		// quick; node-size statistics converge with few thousand
		// transactions.
		scale := c.Scale
		if p.NumTx/scale > 20_000 {
			scale = p.NumTx / 20_000
		}
		return p.Generate(scale), nil
	}
}

type errUnknownDataset string

func (e errUnknownDataset) Error() string { return "unknown dataset " + string(e) }

// PrintFig6 writes both panels.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fprintf(w, "Figure 6(a): average ternary CFP-tree node size [bytes] (baseline FP-tree: 28–40 B)\n")
	fprintf(w, "%-10s %-8s %10s %12s\n", "dataset", "support", "nodes", "B/node")
	for _, r := range rows {
		fprintf(w, "%-10s %-8s %10d %12.2f\n", r.Dataset, r.SupportLevel, r.Nodes, r.TreeAvgNode)
	}
	fprintf(w, "\nFigure 6(b): average CFP-array node size [bytes]\n")
	fprintf(w, "%-10s %-8s %10s %12s %10s\n", "dataset", "support", "nodes", "B/node", "Δpos share")
	for _, r := range rows {
		fprintf(w, "%-10s %-8s %10d %12.2f %9.0f%%\n",
			r.Dataset, r.SupportLevel, r.Nodes, r.ArrayAvgNode, 100*r.ArrayDposShare)
	}
}
