// Command experiments regenerates the paper's tables and figures
// (Tables 1–3, Figures 6(a)–8(d)) at laptop scale and prints the rows
// in the paper's format. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	experiments all
//	experiments table1 table2 fig6a
//	experiments -scale 500 -budget 16 fig7a fig8c
//	experiments -json-out out/ bench
//	experiments -json-out out/ -baseline . bench
//	experiments -validate-bench out/BENCH_quest1.json
//
// The bench target mines the standard datasets under the observability
// recorder and writes one machine-readable BENCH_<dataset>.json per
// dataset to the -json-out directory (schema: docs/FORMAT.md §6);
// -validate-bench re-parses such a file and checks its internal
// consistency, exiting nonzero on violations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cfpgrowth/internal/experiments"
	"cfpgrowth/internal/mine"
)

func main() {
	var (
		scale    = flag.Int("scale", 1000, "dataset scale divisor (1000 = 1/1000 of the paper's sizes)")
		budget   = flag.Int64("budget", 0, "modeled physical memory in MiB (0 = auto from scale)")
		quick    = flag.Bool("quick", false, "trim sweeps for a fast smoke run")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this duration, e.g. 10m (0 = no limit)")
		maxBytes = flag.Int64("max-bytes", 0, "abort any sweep whose modeled mining memory exceeds this many bytes (0 = no limit)")
		jsonOut  = flag.String("json-out", "", "directory receiving BENCH_<dataset>.json records (bench target)")
		validate = flag.String("validate-bench", "", "validate this BENCH_*.json file and exit")
		baseline = flag.String("baseline", "", "directory of committed BENCH_*.json records to compare fresh bench records against (bench target; nonzero exit on regression)")
	)
	flag.Parse()
	args := flag.Args()
	if *validate != "" {
		r, err := experiments.ValidateBenchJSON(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (dataset %s, algo %s, %d itemsets, peak %d B)\n",
			*validate, r.Dataset, r.Algo, r.Itemsets, r.PeakBytes)
		return
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [-scale N] [-budget MiB] [-quick] [-timeout D] [-max-bytes N] [-json-out DIR] [-baseline DIR] <table1|table2|table3|fig6a|fig6b|fig7a|fig7b|fig7c|fig7d|fig8a|fig8b|fig8c|fig8d|bench|all>...")
		os.Exit(2)
	}
	cfg := experiments.Config{Scale: *scale, MemBudget: *budget << 20, Quick: *quick}.WithDefaults()
	if *timeout > 0 || *maxBytes > 0 {
		ctl := &mine.Control{MaxBytes: *maxBytes}
		if *timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			release := ctl.Watch(ctx)
			defer release()
		}
		cfg.Ctl = ctl
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, k := range []string{"table1", "table2", "table3", "fig6", "fig7", "fig8a", "fig8c", "fig8d", "ablation"} {
				want[k] = true
			}
			continue
		}
		switch a {
		case "fig6a", "fig6b":
			want["fig6"] = true
		case "fig7a", "fig7b", "fig7c", "fig7d":
			want["fig7"] = true
		case "fig8b":
			want["fig8a"] = true
		default:
			want[a] = true
		}
	}
	run := func(name string, f func() error) {
		if !want[name] {
			return
		}
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(t0).Seconds())
	}
	w := os.Stdout
	run("table1", func() error {
		r, err := cfg.Table1()
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	})
	run("table2", func() error {
		r, err := cfg.Table2()
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	})
	run("table3", func() error {
		rows, err := cfg.Table3()
		if err != nil {
			return err
		}
		experiments.PrintTable3(w, rows)
		return nil
	})
	run("fig6", func() error {
		rows, err := cfg.Fig6()
		if err != nil {
			return err
		}
		experiments.PrintFig6(w, rows)
		return nil
	})
	run("fig7", func() error {
		rows, err := cfg.Fig7()
		if err != nil {
			return err
		}
		experiments.PrintFig7(w, rows, cfg)
		return nil
	})
	run("fig8a", func() error {
		r, err := cfg.Fig8a()
		if err != nil {
			return err
		}
		r.Print(w, cfg)
		return nil
	})
	run("fig8c", func() error {
		r, err := cfg.Fig8c()
		if err != nil {
			return err
		}
		r.Print(w, cfg)
		return nil
	})
	run("fig8d", func() error {
		r, err := cfg.Fig8d()
		if err != nil {
			return err
		}
		r.Print(w, cfg)
		return nil
	})
	run("ablation", func() error {
		rows, err := cfg.Ablation()
		if err != nil {
			return err
		}
		experiments.PrintAblation(w, rows)
		avd, err := cfg.ArrayVsDirect()
		if err != nil {
			return err
		}
		experiments.PrintArrayVsDirect(w, avd)
		return nil
	})
	run("bench", func() error {
		var recs []experiments.BenchRecord
		if *jsonOut == "" {
			var err error
			recs, err = cfg.BenchAll()
			if err != nil {
				return err
			}
			for _, r := range recs {
				fmt.Printf("bench %-8s %-12s %8.1f ms  peak %10d B  %8d itemsets\n",
					r.Dataset, r.Algo, r.WallMillis, r.PeakBytes, r.Itemsets)
			}
		} else {
			paths, err := cfg.WriteBenchJSON(*jsonOut)
			if err != nil {
				return err
			}
			for _, p := range paths {
				r, err := experiments.ValidateBenchJSON(p)
				if err != nil {
					return err
				}
				recs = append(recs, r)
				fmt.Printf("wrote %s\n", p)
			}
		}
		if *baseline == "" {
			return nil
		}
		// Regression gate: every fresh record must hold the line
		// against its committed counterpart.
		for _, r := range recs {
			base, err := experiments.ReadBenchJSON(
				filepath.Join(*baseline, fmt.Sprintf("BENCH_%s.json", r.Dataset)))
			if err != nil {
				return err
			}
			if err := experiments.CompareBenchRecords(r, base); err != nil {
				return err
			}
			fm := r.Phases["mine"]
			bm := base.Phases["mine"]
			fmt.Printf("bench %-8s ok vs baseline: mine %.1f ms (baseline %.1f ms), %d itemsets\n",
				r.Dataset, fm.Millis, bm.Millis, r.Itemsets)
		}
		return nil
	})
}
