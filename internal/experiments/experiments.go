// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) at laptop scale. Each experiment returns
// typed rows and can print them in the paper's format; cmd/experiments
// and the root bench suite are thin wrappers around this package.
//
// Scaling: datasets are generated at a configurable scale divisor
// (default 1000: Quest1 becomes 25k transactions instead of 25M), and
// the 6 GB physical-memory machine becomes a modeled budget sized so
// the out-of-core crossovers land inside the sweep (see internal/vm and
// DESIGN.md §2, substitution 3).
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
	"cfpgrowth/internal/vm"
)

// Config scales the experiments.
type Config struct {
	// Scale is the dataset scale divisor (default 1000).
	Scale int
	// MemBudget is the modeled physical memory (default 8 MiB at the
	// default scale — the analogue of the paper's 6 GB).
	MemBudget int64
	// Quick trims sweeps for smoke runs.
	Quick bool
	// Context, when non-nil, cancels the mining runs of Figures 7 and 8
	// and Figure 7's build benchmarks: once it is canceled or its
	// deadline passes, the run in flight stops promptly and the figure
	// returns an error wrapping mine.ErrCanceled.
	Context context.Context
	// MaxBytes, when positive, bounds the modeled bytes of each of
	// those runs; a run that would exceed it stops with an error
	// wrapping mine.ErrBudgetExceeded. cmd/experiments sets Context and
	// MaxBytes from -timeout and -max-bytes.
	MaxBytes int64
}

// WithDefaults fills in unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if c.MemBudget <= 0 {
		// Sized so the FP-growth baseline crosses out of core in the
		// middle of the support sweep, like the paper's 6 GB machine
		// did: 48 MiB at the default 1/1000 scale.
		c.MemBudget = int64(48<<20) * 1000 / int64(c.Scale)
		if c.MemBudget < 4<<20 {
			c.MemBudget = 4 << 20
		}
	}
	return c
}

// Model returns the paging model for this configuration.
func (c Config) Model() vm.Model { return vm.Default(c.MemBudget) }

// control returns a fresh Control for one run, armed from Context and
// MaxBytes, and the release function to call when the run ends. Each
// costed run gets its own, so its ledger's peak is the run's alone.
func (c Config) control() (*mine.Control, func()) {
	ctl := &mine.Control{MaxBytes: c.MaxBytes}
	return ctl, ctl.Watch(c.Context)
}

// costed is one mining run of Figures 7 and 8.
type costed struct {
	ctl      *mine.Control // the run's byte ledger
	measured time.Duration // in-core time, without modeled paging
	itemsets uint64
}

// total is the run's time with the modeled paging penalty of its
// ledger added.
func (r costed) total(model vm.Model) time.Duration {
	return r.measured + model.MinePenalty(r.ctl)
}

// mineCosted times one mine of db at minSup by the miner newMiner
// makes on a fresh Control (control), which the run charges and polls.
func (c Config) mineCosted(db dataset.Source, minSup uint64, newMiner func(*mine.Control) (mine.Miner, error)) (costed, error) {
	ctl, release := c.control()
	defer release()
	m, err := newMiner(ctl)
	if err == nil {
		err = ctl.Err()
	}
	if err != nil {
		return costed{}, err
	}
	var sink mine.CountSink
	t0 := time.Now()
	if err := m.Mine(db, minSup, &sink); err != nil {
		return costed{}, err
	}
	return costed{ctl: ctl, measured: time.Since(t0), itemsets: sink.N}, nil
}

// SupportSweep is the relative minimum-support grid used in Figures 7
// and 8, mirroring the paper's ξ range (4.0% down to 0.8%).
func (c Config) SupportSweep() []float64 {
	if c.Quick {
		return []float64{0.04, 0.024, 0.012}
	}
	return []float64{0.040, 0.036, 0.032, 0.028, 0.024, 0.020, 0.016, 0.012, 0.008}
}

// quest1 and quest2 generate (and cache) the synthetic Quest datasets.
var questCache = map[string]dataset.Slice{}

// Quest1 returns the scaled Quest1 dataset.
func (c Config) Quest1() dataset.Slice { return c.questData("quest1") }

// Quest2 returns the scaled Quest2 dataset.
func (c Config) Quest2() dataset.Slice { return c.questData("quest2") }

func (c Config) questData(name string) dataset.Slice {
	key := fmt.Sprintf("%s/%d", name, c.Scale)
	if db, ok := questCache[key]; ok {
		return db
	}
	var cfg quest.Config
	if name == "quest1" {
		cfg = quest.Quest1(c.Scale)
	} else {
		cfg = quest.Quest2(c.Scale)
	}
	db := quest.Generate(cfg)
	questCache[key] = db
	return db
}

// buildTrees constructs both an FP-tree and a CFP-tree for db at the
// given absolute support, returning phase timings. Used by Figure 7.
type buildResult struct {
	Nodes         int           // FP-tree nodes (the paper's x-axis)
	ScanTime      time.Duration // one pass over the data, no tree work
	FPBuildTime   time.Duration
	FPBytes       int64 // at the 40 B/node baseline
	CFPBuildTime  time.Duration
	ConvertTime   time.Duration
	CFPTreeBytes  int64
	CFPArrayBytes int64
}

func buildBoth(db dataset.Slice, minSup uint64, ctl *mine.Control) (buildResult, error) {
	var r buildResult
	if err := ctl.Err(); err != nil {
		return r, err
	}
	counts, err := dataset.CountItems(db)
	if err != nil {
		return r, err
	}
	rec := dataset.NewRecoder(counts, minSup)
	names, sups := rec.Frequent()
	// Raw scan time (encode only).
	t0 := time.Now()
	var buf []uint32
	_ = db.Scan(func(tx []uint32) error {
		buf = rec.Encode(tx, buf[:0])
		return nil
	})
	r.ScanTime = time.Since(t0)

	t0 = time.Now()
	fp := fptree.New(names, sups)
	_ = db.Scan(func(tx []uint32) error {
		buf = rec.Encode(tx, buf[:0])
		fp.Insert(buf, 1)
		return nil
	})
	r.FPBuildTime = time.Since(t0)
	r.Nodes = fp.NumNodes()
	r.FPBytes = fp.BaselineBytes()

	t0 = time.Now()
	cfp := core.NewTree(arena.New(), core.Config{}, names)
	_ = db.Scan(func(tx []uint32) error {
		buf = rec.Encode(tx, buf[:0])
		cfp.Insert(buf, 1)
		return nil
	})
	r.CFPBuildTime = time.Since(t0)
	r.CFPTreeBytes = cfp.Extent()

	t0 = time.Now()
	arr, err := core.ConvertCtl(cfp, ctl)
	if err != nil {
		return r, err
	}
	r.ConvertTime = time.Since(t0)
	r.CFPArrayBytes = arr.Bytes()
	return r, nil
}

// fprintf writes, ignoring errors (harness output only).
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func mib(b int64) float64 { return float64(b) / (1 << 20) }
