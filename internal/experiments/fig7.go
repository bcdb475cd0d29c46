package experiments

import (
	"fmt"
	"io"
	"time"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/vm"
)

// Fig7Row is one support point of the Figure 7 sweep on Quest1: build
// phase (a, b) and overall execution (c, d) for FP-growth vs
// CFP-growth. The overall execution runs CFP-growth twice: in the
// default configuration (CFP*), whose flat decode trades modeled memory
// for speed, and in the paper's layout (Paper*, DisableFlatDecode).
// Times include the modeled paging penalty; *Measured fields carry the
// raw in-core times.
type Fig7Row struct {
	RelSupport float64
	Nodes      int // initial FP-tree size (the paper's x-axis)

	// Figure 7(a): build time (+ conversion for CFP-growth).
	ScanTime                              time.Duration
	FPBuild                               time.Duration
	CFPBuildConv                          time.Duration
	FPBuildMeasured, CFPBuildConvMeasured time.Duration

	// Figure 7(b): build-phase memory.
	FPBuildBytes  int64
	CFPBuildBytes int64 // tree + array (conversion is not in place)

	// Figure 7(c): total execution time.
	FPTotal, CFPTotal, PaperTotal                         time.Duration
	FPTotalMeasured, CFPTotalMeasured, PaperTotalMeasured time.Duration

	// Figure 7(d): peak memory of the full run (plus average for
	// CFP-growth, which the paper also instruments).
	FPPeakBytes, CFPPeakBytes, CFPAvgBytes int64
	PaperPeakBytes, PaperAvgBytes          int64

	// Itemsets found (identical across algorithms; sanity output).
	Itemsets uint64
}

// Fig7 runs the sweep on Quest1.
func (c Config) Fig7() ([]Fig7Row, error) {
	c = c.WithDefaults()
	db := c.Quest1()
	model := c.Model()
	counts, err := dataset.CountItems(db)
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, rel := range c.SupportSweep() {
		minSup := dataset.AbsoluteSupport(rel, counts.NumTx)
		ctl, release := c.control()
		br, err := buildBoth(db, minSup, ctl)
		release()
		if err != nil {
			return nil, err
		}
		row := Fig7Row{
			RelSupport:           rel,
			Nodes:                br.Nodes,
			ScanTime:             br.ScanTime,
			FPBuildMeasured:      br.FPBuildTime,
			CFPBuildConvMeasured: br.CFPBuildTime + br.ConvertTime,
			FPBuildBytes:         br.FPBytes,
			CFPBuildBytes:        br.CFPTreeBytes + br.CFPArrayBytes,
		}
		// Build-phase penalties: FP-tree construction is random access
		// over the whole tree; CFP build is random over the (much
		// smaller) tree, conversion sequential over the array.
		row.FPBuild = br.FPBuildTime + model.Penalty(br.FPBytes, br.FPBytes, vm.Random)
		row.CFPBuildConv = br.CFPBuildTime + br.ConvertTime +
			model.Penalty(br.CFPTreeBytes+br.CFPArrayBytes, br.CFPTreeBytes, vm.Random) +
			model.Penalty(br.CFPTreeBytes+br.CFPArrayBytes, br.CFPArrayBytes, vm.Sequential)

		// Total runs.
		fp, err := c.mineCosted(db, minSup, func(ctl *mine.Control) (mine.Miner, error) {
			return fptree.Growth{Ctl: ctl}, nil
		})
		if err != nil {
			return nil, err
		}
		row.FPTotal, row.FPTotalMeasured = fp.total(model), fp.measured
		row.FPPeakBytes = fp.ctl.PeakBytes()
		row.Itemsets = fp.itemsets

		cfp, err := c.runCFP(db, minSup, core.Config{})
		if err != nil {
			return nil, err
		}
		paper, err := c.runCFP(db, minSup, core.Config{DisableFlatDecode: true})
		if err != nil {
			return nil, err
		}
		if cfp.itemsets != fp.itemsets || paper.itemsets != fp.itemsets {
			return nil, fmt.Errorf("fig7: ξ=%g: itemsets FP %d, CFP %d, CFP paper layout %d", rel, fp.itemsets, cfp.itemsets, paper.itemsets)
		}
		row.CFPTotal, row.CFPTotalMeasured = cfp.total(model), cfp.measured
		row.CFPPeakBytes, row.CFPAvgBytes = cfp.ctl.PeakBytes(), cfp.ctl.AvgBytes()
		row.PaperTotal, row.PaperTotalMeasured = paper.total(model), paper.measured
		row.PaperPeakBytes, row.PaperAvgBytes = paper.ctl.PeakBytes(), paper.ctl.AvgBytes()
		rows = append(rows, row)
	}
	return rows, nil
}

// runCFP is one overall CFP-growth execution of Figure 7 (c, d): it
// mines db with CFP-growth in configuration cfg (mineCosted).
func (c Config) runCFP(db dataset.Source, minSup uint64, cfg core.Config) (costed, error) {
	return c.mineCosted(db, minSup, func(ctl *mine.Control) (mine.Miner, error) {
		return core.Growth{Config: cfg, Ctl: ctl}, nil
	})
}

// PrintFig7 writes all four panels.
func PrintFig7(w io.Writer, rows []Fig7Row, c Config) {
	c = c.WithDefaults()
	fprintf(w, "Figure 7 (Quest1, scale 1/%d, modeled memory budget %.0f MiB)\n\n", c.Scale, mib(c.MemBudget))
	fprintf(w, "(a) build time [s] (+modeled paging; 'measured' = in-core only)\n")
	fprintf(w, "%7s %10s %8s %9s (%9s) %9s (%9s)\n", "ξ%", "nodes", "scan", "FP", "measured", "CFP+conv", "measured")
	for _, r := range rows {
		fprintf(w, "%6.2f%% %10d %8.3f %9.3f (%9.3f) %9.3f (%9.3f)\n",
			100*r.RelSupport, r.Nodes, seconds(r.ScanTime),
			seconds(r.FPBuild), seconds(r.FPBuildMeasured),
			seconds(r.CFPBuildConv), seconds(r.CFPBuildConvMeasured))
	}
	fprintf(w, "\n(b) build-phase memory [MiB]\n")
	fprintf(w, "%7s %10s %12s %12s %8s\n", "ξ%", "nodes", "FP-tree", "CFP(t+a)", "ratio")
	for _, r := range rows {
		ratio := 0.0
		if r.CFPBuildBytes > 0 {
			ratio = float64(r.FPBuildBytes) / float64(r.CFPBuildBytes)
		}
		fprintf(w, "%6.2f%% %10d %12.2f %12.2f %7.1fx\n",
			100*r.RelSupport, r.Nodes, mib(r.FPBuildBytes), mib(r.CFPBuildBytes), ratio)
	}
	fprintf(w, "\n(c) total execution time [s] (+modeled paging)\n")
	fprintf(w, "    CFP = default configuration (flat decode); paper = DisableFlatDecode, the paper's layout\n")
	fprintf(w, "%7s %10s %10s %9s (%9s) %9s (%9s) %9s (%9s)\n", "ξ%", "nodes", "itemsets", "FP", "measured", "CFP", "measured", "paper", "measured")
	for _, r := range rows {
		fprintf(w, "%6.2f%% %10d %10d %9.2f (%9.2f) %9.2f (%9.2f) %9.2f (%9.2f)\n",
			100*r.RelSupport, r.Nodes, r.Itemsets,
			seconds(r.FPTotal), seconds(r.FPTotalMeasured),
			seconds(r.CFPTotal), seconds(r.CFPTotalMeasured),
			seconds(r.PaperTotal), seconds(r.PaperTotalMeasured))
	}
	fprintf(w, "\n(d) peak memory [MiB] (budget %.0f MiB)\n", mib(c.MemBudget))
	fprintf(w, "    CFP = default configuration (flat decode); paper = DisableFlatDecode, the paper's layout\n")
	fprintf(w, "%7s %10s %10s %10s %10s %11s %10s %10s\n", "ξ%", "nodes", "FP peak", "CFP peak", "CFP avg", "paper peak", "paper avg", "CFP/paper")
	for _, r := range rows {
		ratio := 0.0
		if r.PaperPeakBytes > 0 {
			ratio = float64(r.CFPPeakBytes) / float64(r.PaperPeakBytes)
		}
		fprintf(w, "%6.2f%% %10d %10.2f %10.2f %10.2f %11.2f %10.2f %9.1fx\n",
			100*r.RelSupport, r.Nodes, mib(r.FPPeakBytes), mib(r.CFPPeakBytes), mib(r.CFPAvgBytes),
			mib(r.PaperPeakBytes), mib(r.PaperAvgBytes), ratio)
	}
}
