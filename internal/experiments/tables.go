package experiments

import (
	"io"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/stats"
	"cfpgrowth/internal/synth"
)

// Table1Result is the leading-zero-byte distribution of the seven
// FP-tree fields on the webdocs-like dataset at ξ = 10% (paper §3.1,
// Table 1).
type Table1Result struct {
	Table stats.Table1
	Nodes int
}

// Table1 runs the experiment.
func (c Config) Table1() (Table1Result, error) {
	c = c.WithDefaults()
	tree, _, err := c.webdocsTrees()
	if err != nil {
		return Table1Result{}, err
	}
	t := stats.AnalyzeFPTree(tree)
	return Table1Result{Table: t, Nodes: t.Nodes}, nil
}

// Print writes the paper-style rows.
func (r Table1Result) Print(w io.Writer) {
	fprintf(w, "Table 1: leading zero bytes per FP-tree field (webdocs-like, ξ=10%%, %d nodes)\n", r.Nodes)
	fprintf(w, "%-10s %7s %7s %7s %7s %7s\n", "field", "0", "1", "2", "3", "4")
	for _, row := range r.Table.Rows() {
		fprintf(w, "%-10s", row.Name)
		for z := 0; z <= 4; z++ {
			fprintf(w, " %6.1f%%", row.Hist.Percent(z))
		}
		fprintf(w, "\n")
	}
	fprintf(w, "zero bytes overall: %.1f%% of memory (paper: ~53%%)\n", 100*r.Table.ZeroByteShare)
}

// Table2Result is the Δitem/pcount distribution of the CFP-tree on the
// same dataset (Table 2).
type Table2Result struct {
	Stats core.TreeStats
}

// Table2 runs the experiment.
func (c Config) Table2() (Table2Result, error) {
	c = c.WithDefaults()
	_, cfp, err := c.webdocsTrees()
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{Stats: cfp.Stats()}, nil
}

// Print writes the paper-style rows.
func (r Table2Result) Print(w io.Writer) {
	fprintf(w, "Table 2: leading zero bytes per CFP-tree field (webdocs-like, ξ=10%%, %d nodes)\n", r.Stats.Nodes)
	fprintf(w, "%-10s %7s %7s %7s %7s %7s\n", "field", "0", "1", "2", "3", "4")
	rows := []struct {
		name string
		h    *core.FieldHistogram
	}{
		{"Δitem", &r.Stats.DeltaItem},
		{"pcount", &r.Stats.Pcount},
	}
	for _, row := range rows {
		fprintf(w, "%-10s", row.name)
		for z := 0; z <= 4; z++ {
			fprintf(w, " %6.1f%%", row.h.Percent(z))
		}
		fprintf(w, "\n")
	}
	fprintf(w, "avg node size: %.2f B (std %d, chains %d, embedded %d)\n",
		r.Stats.AvgNodeSize, r.Stats.StdNodes, r.Stats.ChainNodes, r.Stats.EmbeddedLeaves)
}

// webdocsTrees builds the FP-tree and CFP-tree for the webdocs-like
// dataset at ξ = 10%, the configuration of Tables 1 and 2.
func (c Config) webdocsTrees() (*fptree.Tree, *core.Tree, error) {
	p, _ := synth.ByName("webdocs")
	db := p.Generate(c.Scale)
	counts, err := dataset.CountItems(db)
	if err != nil {
		return nil, nil, err
	}
	minSup := dataset.AbsoluteSupport(0.10, counts.NumTx)
	rec := dataset.NewRecoder(counts, minSup)
	names, sups := rec.Frequent()
	fp := fptree.New(names, sups)
	cfp := core.NewTree(arena.New(), core.Config{}, names)
	var buf []uint32
	err = db.Scan(func(tx []uint32) error {
		buf = rec.Encode(tx, buf[:0])
		fp.Insert(buf, 1)
		cfp.Insert(buf, 1)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return fp, cfp, nil
}

// Table3Row summarizes one synthetic Quest dataset (Table 3).
type Table3Row struct {
	Name          string
	NumTx         int
	AvgItemCard   float64
	DistinctItems int
	SizeBytes     int64 // FIMI text size estimate (≈6 B per occurrence)
}

// Table3 generates and summarizes Quest1 and Quest2.
func (c Config) Table3() ([]Table3Row, error) {
	c = c.WithDefaults()
	var rows []Table3Row
	for _, name := range []string{"quest1", "quest2"} {
		db := c.questData(name)
		n, d, avg, err := dataset.Validate(db)
		if err != nil {
			return nil, err
		}
		var occ int64
		for _, tx := range db {
			occ += int64(len(tx))
		}
		rows = append(rows, Table3Row{
			Name: name, NumTx: n, AvgItemCard: avg, DistinctItems: d,
			SizeBytes: occ * 6,
		})
	}
	return rows, nil
}

// PrintTable3 writes the rows.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fprintf(w, "Table 3: synthetic datasets (scaled)\n")
	fprintf(w, "%-8s %12s %14s %15s %10s\n", "dataset", "# of tx", "avg itemcard", "distinct items", "size")
	for _, r := range rows {
		fprintf(w, "%-8s %12d %14.1f %15d %9.1fM\n",
			r.Name, r.NumTx, r.AvgItemCard, r.DistinctItems, float64(r.SizeBytes)/1e6)
	}
}
