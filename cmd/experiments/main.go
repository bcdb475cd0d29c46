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
//
// An unknown target prints the usage line and exits 2. The repository
// benchmark, which measures wall time and memory against a base
// revision, is bench/ (see cmd/benchpairs).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
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
	)
	flag.Parse()
	want, err := resolveTargets(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		fmt.Fprintln(os.Stderr, usage)
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
}

const usage = "usage: experiments [-scale N] [-budget MiB] [-quick] [-timeout D] [-max-bytes N] <table1|table2|table3|fig6a|fig6b|fig7a|fig7b|fig7c|fig7d|fig8a|fig8b|fig8c|fig8d|ablation|all>..."

// runs maps each target the command accepts to the run it selects:
// the sub-figures of one figure share a run, and "all" selects every
// run.
var runs = map[string][]string{
	"table1": {"table1"}, "table2": {"table2"}, "table3": {"table3"},
	"fig6": {"fig6"}, "fig6a": {"fig6"}, "fig6b": {"fig6"},
	"fig7": {"fig7"}, "fig7a": {"fig7"}, "fig7b": {"fig7"}, "fig7c": {"fig7"}, "fig7d": {"fig7"},
	"fig8a": {"fig8a"}, "fig8b": {"fig8a"}, "fig8c": {"fig8c"}, "fig8d": {"fig8d"},
	"ablation": {"ablation"},
	"all":      {"table1", "table2", "table3", "fig6", "fig7", "fig8a", "fig8c", "fig8d", "ablation"},
}

// resolveTargets returns the set of runs the targets select; it fails
// on no target and on any target it does not know.
func resolveTargets(targets []string) (map[string]bool, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("no target given")
	}
	want := map[string]bool{}
	for _, t := range targets {
		rs, ok := runs[t]
		if !ok {
			return nil, fmt.Errorf("unknown target %q", t)
		}
		for _, r := range rs {
			want[r] = true
		}
	}
	return want, nil
}
