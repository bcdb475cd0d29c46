// Command fimistat prints summary statistics of FIMI-format datasets:
// transactions, distinct items, average length, and — given a minimum
// support — the number of frequent items and resulting FP-tree size.
//
// Usage:
//
//	fimistat data.fimi
//	fimistat -minsup 0.01 data.fimi
//	fimistat -minsup 0.01 -csv data1.fimi data2.fimi > stats.csv
//
// With -csv one header plus one row per file is written to stdout, so
// the output of several invocations can be joined with standard tools,
// keyed by the dataset file name.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"cfpgrowth"
	"cfpgrowth/internal/dataset"
)

func main() {
	minsup := flag.Float64("minsup", 0, "also analyze at this relative minimum support")
	csvOut := flag.Bool("csv", false, "write one CSV row per file instead of the human-readable report")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: fimistat [-minsup ξ] [-csv] <file>...")
		os.Exit(2)
	}
	var w *csv.Writer
	if *csvOut {
		w = csv.NewWriter(os.Stdout)
		if err := w.Write(csvHeader); err != nil {
			fail(err)
		}
	}
	for _, path := range flag.Args() {
		s, err := analyze(path, *minsup)
		if err != nil {
			fail(err)
		}
		if w != nil {
			if err := w.Write(s.row()); err != nil {
				fail(err)
			}
			continue
		}
		s.print()
	}
	if w != nil {
		w.Flush()
		if err := w.Error(); err != nil {
			fail(err)
		}
	}
}

// fileStats is one file's report; the compression fields are only
// meaningful when minsup > 0.
type fileStats struct {
	path       string
	numTx      uint64
	distinct   int
	avgLen     float64
	minsup     float64
	absSupport uint64
	frequent   int
	comp       cfpgrowth.CompressionStats
}

var csvHeader = []string{
	"file", "transactions", "distinct_items", "avg_len",
	"minsup", "abs_support", "frequent_items",
	"fptree_nodes", "fptree_bytes", "baseline_bytes",
	"cfptree_bytes", "cfptree_avg_node",
	"cfparray_bytes", "cfparray_avg_node",
}

func analyze(path string, minsup float64) (fileStats, error) {
	src := &dataset.File{Path: path}
	counts, err := dataset.CountItems(src)
	if err != nil {
		return fileStats{}, err
	}
	var totalLen uint64
	err = src.Scan(func(tx []uint32) error {
		totalLen += uint64(len(tx))
		return nil
	})
	if err != nil {
		return fileStats{}, err
	}
	s := fileStats{
		path:     path,
		numTx:    counts.NumTx,
		distinct: len(counts.Support),
		minsup:   minsup,
	}
	if counts.NumTx > 0 {
		s.avgLen = float64(totalLen) / float64(counts.NumTx)
	}
	if minsup > 0 {
		s.absSupport = dataset.AbsoluteSupport(minsup, counts.NumTx)
		rec := dataset.NewRecoder(counts, s.absSupport)
		s.frequent = rec.NumFrequent()
		s.comp, err = cfpgrowth.AnalyzeCompression(src, cfpgrowth.Options{MinSupport: s.absSupport})
		if err != nil {
			return fileStats{}, err
		}
	}
	return s, nil
}

func (s *fileStats) print() {
	fmt.Printf("%s:\n", s.path)
	fmt.Printf("  transactions:   %d\n", s.numTx)
	fmt.Printf("  distinct items: %d\n", s.distinct)
	if s.numTx > 0 {
		fmt.Printf("  avg length:     %.2f\n", s.avgLen)
	}
	if s.minsup > 0 {
		fmt.Printf("  at ξ = %.4g (absolute %d):\n", s.minsup, s.absSupport)
		fmt.Printf("    frequent items: %d\n", s.frequent)
		fmt.Printf("    FP-tree nodes:  %d\n", s.comp.FPTreeNodes)
		fmt.Printf("    FP-tree size:   %d B (28 B/node), baseline %d B (40 B/node)\n", s.comp.FPTreeBytes, s.comp.BaselineBytes)
		fmt.Printf("    CFP-tree size:  %d B (%.2f B/node)\n", s.comp.CFPTreeBytes, s.comp.CFPTreeAvgNode)
		fmt.Printf("    CFP-array size: %d B (%.2f B/node)\n", s.comp.CFPArrayBytes, s.comp.CFPArrayAvgNode)
	}
}

func (s *fileStats) row() []string {
	return []string{
		s.path,
		strconv.FormatUint(s.numTx, 10),
		strconv.Itoa(s.distinct),
		strconv.FormatFloat(s.avgLen, 'f', 2, 64),
		strconv.FormatFloat(s.minsup, 'g', -1, 64),
		strconv.FormatUint(s.absSupport, 10),
		strconv.Itoa(s.frequent),
		strconv.Itoa(s.comp.FPTreeNodes),
		strconv.FormatInt(s.comp.FPTreeBytes, 10),
		strconv.FormatInt(s.comp.BaselineBytes, 10),
		strconv.FormatInt(s.comp.CFPTreeBytes, 10),
		strconv.FormatFloat(s.comp.CFPTreeAvgNode, 'f', 2, 64),
		strconv.FormatInt(s.comp.CFPArrayBytes, 10),
		strconv.FormatFloat(s.comp.CFPArrayAvgNode, 'f', 2, 64),
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fimistat:", err)
	os.Exit(1)
}
