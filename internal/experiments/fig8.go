package experiments

import (
	"io"
	"time"

	"cfpgrowth/internal/algo"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// Fig8Cell is one (algorithm, support) measurement.
type Fig8Cell struct {
	Algorithm  string
	RelSupport float64
	Total      time.Duration // measured + modeled paging penalty
	Measured   time.Duration
	PeakBytes  int64
	Itemsets   uint64
	Regime     int // 1 in-core, 2 working set fits, 3 thrashing
}

// Fig8Result is one panel: a sweep for a set of algorithms.
type Fig8Result struct {
	Panel      string
	Dataset    string
	Algorithms []string
	Cells      []Fig8Cell
}

// Fig8a compares CFP-growth with the FP-growth-variant algorithms
// (CT-pro-, FP-growth-Tiny- and FP-array-style) on Quest1; Fig8b is
// the memory view of the same runs.
func (c Config) Fig8a() (Fig8Result, error) {
	c = c.WithDefaults()
	return c.runFig8("8(a)/(b)", "quest1", []string{"cfpgrowth", "ctpro", "tiny", "fparray"})
}

// Fig8c compares CFP-growth with the best FIMI algorithms (nonordfp-,
// LCM- and AFOPT-style) on Quest1.
func (c Config) Fig8c() (Fig8Result, error) {
	c = c.WithDefaults()
	return c.runFig8("8(c)", "quest1", []string{"cfpgrowth", "nonordfp", "eclat", "afopt"})
}

// Fig8d repeats Fig8c on Quest2 (twice the transactions), where LCM's
// transaction-proportional memory breaks down first.
func (c Config) Fig8d() (Fig8Result, error) {
	c = c.WithDefaults()
	return c.runFig8("8(d)", "quest2", []string{"cfpgrowth", "nonordfp", "eclat", "afopt"})
}

func (c Config) runFig8(panel, ds string, algos []string) (Fig8Result, error) {
	db := c.questData(ds)
	model := c.Model()
	counts, err := dataset.CountItems(db)
	if err != nil {
		return Fig8Result{}, err
	}
	res := Fig8Result{Panel: panel, Dataset: ds, Algorithms: algos}
	for _, rel := range c.SupportSweep() {
		minSup := dataset.AbsoluteSupport(rel, counts.NumTx)
		for _, name := range algos {
			r, err := c.mineCosted(db, minSup, func(ctl *mine.Control) (mine.Miner, error) {
				if name == "cfpgrowth" {
					// Fig 8 reproduces the paper's memory claims, so
					// CFP-growth runs in the paper's configuration:
					// the flat-decode accelerator postdates the
					// paper's design and deliberately trades modeled
					// memory for speed (its scratch is charged to the
					// ledger), which is measured by the bench harness,
					// not this figure.
					return core.Growth{Config: core.Config{DisableFlatDecode: true}, Ctl: ctl}, nil
				}
				return algo.New(name, ctl)
			})
			if err != nil {
				return Fig8Result{}, err
			}
			res.Cells = append(res.Cells, Fig8Cell{
				Algorithm:  name,
				RelSupport: rel,
				Measured:   r.measured,
				Total:      r.total(model),
				PeakBytes:  r.ctl.PeakBytes(),
				Itemsets:   r.itemsets,
				Regime:     model.Regime(r.ctl.PeakBytes()),
			})
		}
	}
	return res, nil
}

// Print writes a time panel and a memory panel for the result.
func (r Fig8Result) Print(w io.Writer, c Config) {
	c = c.WithDefaults()
	fprintf(w, "Figure %s on %s (budget %.0f MiB): total time [s] (+modeled paging)\n",
		r.Panel, r.Dataset, mib(c.MemBudget))
	fprintf(w, "%7s", "ξ%")
	for _, a := range r.Algorithms {
		fprintf(w, " %14s", a)
	}
	fprintf(w, "\n")
	for _, rel := range sweepOf(r) {
		fprintf(w, "%6.2f%%", 100*rel)
		for _, a := range r.Algorithms {
			cell := r.cell(a, rel)
			fprintf(w, " %13.2fs", seconds(cell.Total))
		}
		fprintf(w, "\n")
	}
	fprintf(w, "\npeak memory [MiB] (regime: ¹in-core ²working-set ³thrashing)\n")
	fprintf(w, "%7s", "ξ%")
	for _, a := range r.Algorithms {
		fprintf(w, " %14s", a)
	}
	fprintf(w, "\n")
	sup := []string{"", "¹", "²", "³"}
	for _, rel := range sweepOf(r) {
		fprintf(w, "%6.2f%%", 100*rel)
		for _, a := range r.Algorithms {
			cell := r.cell(a, rel)
			fprintf(w, " %13.2f%s", mib(cell.PeakBytes), sup[cell.Regime])
		}
		fprintf(w, "\n")
	}
}

func sweepOf(r Fig8Result) []float64 {
	var out []float64
	seen := map[float64]bool{}
	for _, c := range r.Cells {
		if !seen[c.RelSupport] {
			seen[c.RelSupport] = true
			out = append(out, c.RelSupport)
		}
	}
	return out
}

func (r Fig8Result) cell(algoName string, rel float64) Fig8Cell {
	for _, c := range r.Cells {
		if c.Algorithm == algoName && c.RelSupport == rel {
			return c
		}
	}
	return Fig8Cell{}
}
