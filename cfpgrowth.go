// Package cfpgrowth is a memory-efficient frequent-itemset mining
// library: a from-scratch implementation of the CFP-tree and CFP-array
// data structures of Schlegel, Gemulla and Lehner, "Memory-Efficient
// Frequent-Itemset Mining" (EDBT 2011), together with the classic
// FP-growth baseline and seven further comparison algorithms.
//
// The headline algorithm, CFP-growth, is FP-growth with both of its
// phases running on compressed physical representations: the build
// phase uses a ternary CFP-tree (delta-encoded items, partial counts,
// chain nodes, embedded leaves, 40-bit pointers) and the mine phase an
// item-clustered CFP-array of variable-byte-encoded triples. Per node,
// these need 2–6 bytes instead of the 28–40 bytes of conventional
// FP-tree nodes, so databases roughly an order of magnitude larger can
// be mined in core.
//
// # Quick start
//
//	db := cfpgrowth.Transactions{{1, 2, 3}, {1, 2}, {2, 3}}
//	err := cfpgrowth.Mine(db, cfpgrowth.Options{MinSupport: 2},
//		func(items []uint32, support uint64) error {
//			fmt.Println(items, support)
//			return nil
//		})
//
// Databases can also be streamed from FIMI-format files with File,
// mined with alternative algorithms by setting Options.Algorithm, and
// inspected for compression statistics with AnalyzeCompression.
package cfpgrowth

import (
	"context"
	"errors"
	"fmt"
	"io"

	"cfpgrowth/internal/algo"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Recorder collects run-level observability: phase spans (pass1,
// pass2-build, convert, mine), structure counters (node kinds, chain
// splits, itemsets emitted), and modeled-byte gauges with a peak
// high-water mark. Create one with NewRecorder, attach it via
// Options.Observe, and read it back with Snapshot, or stream events by
// constructing it over a JSONL sink. A nil *Recorder is inert, so
// instrumented code paths cost one nil check when observability is
// off. A recorder observes one run at a time: its byte gauges read the
// byte ledger of the run it observes, the one Options.Memory reports.
type Recorder = obs.Recorder

// NewRecorder returns a Recorder streaming span and summary events to
// sink; a nil sink collects aggregates only (read them via Snapshot).
func NewRecorder(sink EventSink) *Recorder { return obs.New(sink) }

// EventSink receives a Recorder's trace events (one per ended phase
// span, plus the final summary from EmitSummary).
type EventSink = obs.EventSink

// NewJSONLSink returns an EventSink writing one JSON object per event
// to w, newline-delimited — the trace format documented in
// docs/FORMAT.md §6. Safe for concurrent use.
func NewJSONLSink(w io.Writer) EventSink { return obs.NewJSONLSink(w) }

// ErrCanceled reports a mining run aborted by its Options.Context —
// explicit cancellation or an exceeded deadline. Test with errors.Is.
var ErrCanceled = mine.ErrCanceled

// ErrBudgetExceeded reports a mining run aborted because a resource
// budget (Options.MaxBytes or Options.MaxItemsets) was exhausted.
// Test with errors.Is.
var ErrBudgetExceeded = mine.ErrBudgetExceeded

// Item is an item identifier.
type Item = uint32

// Transactions is an in-memory transaction database; each transaction
// is a set of items (duplicates are tolerated and ignored).
type Transactions = dataset.Slice

// Source is a transaction database that can be scanned multiple times.
// Prefix-tree algorithms perform exactly two scans.
type Source = dataset.Source

// File returns a Source streaming the FIMI-format file at path through
// an asynchronous double-buffered reader; the database never needs to
// fit in memory.
func File(path string) Source { return &dataset.File{Path: path} }

// Itemset is a frequent itemset with its support.
type Itemset = mine.Itemset

// Handler receives each frequent itemset as it is found. The items
// slice is sorted ascending and only valid during the call.
type Handler func(items []Item, support uint64) error

// TreeConfig tunes the CFP-tree's compression features; the zero value
// uses the paper's settings (chains up to 15 elements, embedded
// leaves).
type TreeConfig struct {
	// MaxChainLen caps chain-node length (0 = 15).
	MaxChainLen int
	// DisableChains stores all nodes individually.
	DisableChains bool
	// DisableEmbed never embeds leaves into parent slots.
	DisableEmbed bool
}

// MemoryStats reports the modeled memory footprint observed during a
// mining run (the paper's C-layout byte counts, not Go heap bytes).
type MemoryStats struct {
	PeakBytes    int64
	AverageBytes int64
}

// Options configures a mining run.
type Options struct {
	// MinSupport is the absolute minimum support ξ (number of
	// transactions). Exactly one of MinSupport and RelativeSupport
	// must be set.
	MinSupport uint64
	// RelativeSupport is ξ as a fraction of the database size, e.g.
	// 0.01 for 1%.
	RelativeSupport float64
	// Algorithm selects the miner: "cfpgrowth" (default), "fpgrowth",
	// "apriori", "eclat", "nonordfp", "fparray", "tiny", "afopt",
	// "ctpro".
	Algorithm string
	// Tree tunes CFP-tree compression (cfpgrowth only).
	Tree TreeConfig
	// Memory, when non-nil, receives the run's memory statistics, read
	// from the run's one byte ledger: the ledger MaxBytes bounds and
	// Observe's byte gauges read.
	Memory *MemoryStats
	// MaxLen, when positive, suppresses itemsets longer than MaxLen.
	MaxLen int
	// Parallel, when positive, mines with that many goroutines using
	// the parallel CFP-growth variant (cfpgrowth only; emission order
	// becomes nondeterministic).
	Parallel int
	// Context, when non-nil, cancels the run: once it is canceled or
	// its deadline passes, every phase — build, conversion, serial and
	// parallel mining — stops promptly and the run returns an error
	// wrapping ErrCanceled. An already-canceled Context fails the run
	// before anything is emitted.
	Context context.Context
	// MaxBytes, when positive, bounds the run's modeled structure
	// memory (the same C-layout byte counts MemoryStats reports, not
	// Go heap bytes). A run that would exceed it stops promptly with
	// an error wrapping ErrBudgetExceeded — the in-core guardrail for
	// serving deployments: degrade by failing fast instead of
	// thrashing once mining no longer fits its memory envelope.
	MaxBytes int64
	// MaxItemsets, when positive, bounds the number of itemsets
	// delivered to the handler; the run stops with an error wrapping
	// ErrBudgetExceeded at the first itemset past the limit. This caps
	// runaway result explosions from too-low supports.
	MaxItemsets uint64
	// Observe, when non-nil, receives the run's phase spans, structure
	// counters, and modeled-byte gauges. The natively instrumented
	// algorithms (cfpgrowth, cfpgrowth-par, pfp, fpgrowth) record
	// per-phase detail; the comparison algorithms feed only its byte
	// gauges. The same recorder may observe several runs, one at a
	// time; its counters and peak then accumulate across them.
	Observe *Recorder
}

// Algorithms lists the available algorithm names.
func Algorithms() []string { return algo.Names() }

// minSupport resolves the run's absolute support threshold over src,
// counting it once more only for a RelativeSupport.
func (o Options) minSupport(src Source) (uint64, error) {
	return o.support(func() (uint64, error) {
		c, err := dataset.CountItems(src)
		return c.NumTx, err
	})
}

// support resolves the absolute support threshold; numTx, the database
// size, is only called for a RelativeSupport.
func (o Options) support(numTx func() (uint64, error)) (uint64, error) {
	switch {
	case o.MinSupport > 0 && o.RelativeSupport > 0:
		return 0, errors.New("cfpgrowth: set only one of MinSupport and RelativeSupport")
	case o.MinSupport > 0:
		return o.MinSupport, nil
	case o.RelativeSupport > 0:
		if o.RelativeSupport > 1 {
			return 0, fmt.Errorf("cfpgrowth: RelativeSupport %v > 1", o.RelativeSupport)
		}
		n, err := numTx()
		if err != nil {
			return 0, err
		}
		return dataset.AbsoluteSupport(o.RelativeSupport, n), nil
	default:
		return 0, errors.New("cfpgrowth: minimum support not set")
	}
}

// config is the CFP-tree configuration t selects.
func (t TreeConfig) config() core.Config {
	return core.Config{
		MaxChainLen:   t.MaxChainLen,
		DisableChains: t.DisableChains,
		DisableEmbed:  t.DisableEmbed,
	}
}

func (o Options) miner(ctl *mine.Control) (mine.Miner, error) {
	name := o.Algorithm
	if name == "" {
		name = "cfpgrowth"
	}
	switch name {
	case "cfpgrowth":
		// The CFP-growth and FP-growth miners prune the search itself
		// at MaxLen; the other algorithms filter at the sink.
		return o.growth(ctl), nil
	case "fpgrowth":
		return fptree.Growth{MaxLen: o.MaxLen, Ctl: ctl, Rec: o.Observe}, nil
	}
	return algo.NewObserved(name, ctl, o.Observe)
}

// growth is the CFP-growth miner the options configure, on the run's
// Control ctl.
func (o Options) growth(ctl *mine.Control) core.Growth {
	return core.Growth{Config: o.Tree.config(), Workers: o.Parallel, MaxLen: o.MaxLen, Ctl: ctl, Rec: o.Observe}
}

// contract runs fn under the run contract of every entry point. It
// gives the run one Control, armed from Context and MaxBytes, whose
// ledger is the run's one byte count: the miners charge it, MaxBytes
// bounds it, Observe's byte gauges read it, and o.Memory is filled from
// it when fn succeeds. An already-canceled Context fails synchronously:
// nothing is scanned or emitted.
func (o Options) contract(fn func(ctl *mine.Control) error) error {
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrCanceled, err)
		}
	}
	ctl := &mine.Control{MaxBytes: o.MaxBytes}
	defer ctl.Watch(o.Context)()
	defer o.Observe.Bind(ctl)()
	if err := fn(ctl); err != nil {
		return err
	}
	if o.Memory != nil {
		*o.Memory = MemoryStats{PeakBytes: ctl.PeakBytes(), AverageBytes: ctl.AvgBytes()}
	}
	return nil
}

// run executes one mining run of src into sink under the run contract:
// it resolves the support threshold, builds the miner with newMiner
// (o.miner for the one Options selects), gates the sink on the Control
// and filters it at MaxLen.
func (o Options) run(src Source, sink mine.Sink, newMiner func(*mine.Control) (mine.Miner, error)) error {
	minSup, err := o.minSupport(src)
	if err != nil {
		return err
	}
	return o.contract(func(ctl *mine.Control) error {
		// The ControlSink sits next to the caller's sink: it gates and
		// counts exactly the itemsets the handler would receive, and a
		// handler error stops every phase and worker of the run.
		sink = &mine.ControlSink{Inner: sink, Ctl: ctl, Max: o.MaxItemsets}
		m, err := newMiner(ctl)
		if err != nil {
			return err
		}
		if o.MaxLen > 0 {
			sink = &mine.MaxLenSink{Inner: sink, Max: o.MaxLen}
		}
		return m.Mine(src, minSup, sink)
	})
}

// buildArray runs the build half of the default miner for the entry
// points that build a CFP-array but do not mine it (BuildIndex, Builder,
// AnalyzeCompression). Under the run contract, build makes the CFP-tree
// charged to ctl, the run's ledger, and Growth's convert stage turns it
// into the returned array. The array leaves the ledger as the run ends,
// so the peak the run reports covers it.
func (o Options) buildArray(build func(ctl *mine.Control) (*core.Tree, error)) (*core.Array, error) {
	var arr *core.Array
	err := o.contract(func(ctl *mine.Control) error {
		tree, err := build(ctl)
		if err != nil {
			return err
		}
		if arr, err = o.growth(ctl).Convert(tree); err != nil {
			return err
		}
		ctl.Free(arr.Bytes())
		return nil
	})
	return arr, err
}

type handlerSink struct{ fn Handler }

func (s handlerSink) Emit(items []uint32, support uint64) error {
	return s.fn(items, support)
}

// Mine finds every itemset whose support reaches the configured
// threshold and passes each to fn exactly once. Runs can be bounded in
// time and space via Options.Context, MaxBytes and MaxItemsets; a
// bounded run that trips its limit returns an error wrapping
// ErrCanceled or ErrBudgetExceeded, with all phases (and all workers,
// under Options.Parallel) stopped promptly.
func Mine(src Source, opts Options, fn Handler) error {
	return opts.run(src, handlerSink{fn: fn}, opts.miner)
}

// MineAll materializes every frequent itemset. Prefer Mine for large
// result sets.
func MineAll(src Source, opts Options) ([]Itemset, error) {
	var out []Itemset
	err := Mine(src, opts, func(items []Item, support uint64) error {
		cp := make([]Item, len(items))
		copy(cp, items)
		out = append(out, Itemset{Items: cp, Support: support})
		return nil
	})
	if err != nil {
		return nil, err
	}
	mine.Canonicalize(out)
	return out, nil
}

// Count tallies frequent itemsets without materializing them and
// returns the total and a per-cardinality breakdown (index = itemset
// size).
func Count(src Source, opts Options) (total uint64, byLen []uint64, err error) {
	var sink mine.CountSink
	if err := opts.run(src, &sink, opts.miner); err != nil {
		return 0, nil, err
	}
	return sink.N, sink.ByLen, nil
}

// CompressionStats reports how well the paper's data structures
// compress a given database — the per-node numbers behind Figure 6.
type CompressionStats struct {
	// FPTreeNodes is the number of nodes of the (C)FP-tree.
	FPTreeNodes int
	// FPTreeBytes is the footprint of the classic ternary FP-tree at
	// 28 bytes per node; BaselineBytes uses the 40-byte node of the
	// implementations the paper compares against.
	FPTreeBytes, BaselineBytes int64
	// CFPTreeBytes is the compressed ternary CFP-tree footprint;
	// CFPTreeAvgNode is bytes per logical node.
	CFPTreeBytes   int64
	CFPTreeAvgNode float64
	// CFPArrayBytes is the CFP-array footprint (triples + item index);
	// CFPArrayAvgNode is triple bytes per node.
	CFPArrayBytes   int64
	CFPArrayAvgNode float64
	// StdNodes, ChainNodes, EmbeddedLeaves break down the CFP-tree's
	// physical node kinds.
	StdNodes, ChainNodes, EmbeddedLeaves int
}

// AnalyzeCompression builds the CFP-tree and CFP-array for src at the
// given options and reports their sizes against the FP-tree baseline.
// Options.Context, MaxBytes and Observe bound and observe the analysis
// like they do Mine.
func AnalyzeCompression(src Source, opts Options) (CompressionStats, error) {
	minSup, err := opts.minSupport(src)
	if err != nil {
		return CompressionStats{}, err
	}
	var ts core.TreeStats
	arr, err := opts.buildArray(func(ctl *mine.Control) (*core.Tree, error) {
		tree, _, err := core.Build(src, minSup, opts.Tree.config(), ctl, opts.Observe)
		if err == nil {
			// Taken before the convert stage recycles the tree's arena.
			ts = tree.Stats()
		}
		return tree, err
	})
	if err != nil {
		return CompressionStats{}, err
	}
	as := arr.Stats()
	return CompressionStats{
		FPTreeNodes:     ts.Nodes,
		FPTreeBytes:     int64(ts.Nodes) * 28,
		BaselineBytes:   int64(ts.Nodes) * 40,
		CFPTreeBytes:    ts.Bytes,
		CFPTreeAvgNode:  ts.AvgNodeSize,
		CFPArrayBytes:   as.TotalBytes,
		CFPArrayAvgNode: as.AvgNodeSize,
		StdNodes:        ts.StdNodes,
		ChainNodes:      ts.ChainNodes,
		EmbeddedLeaves:  ts.EmbeddedLeaves,
	}, nil
}
