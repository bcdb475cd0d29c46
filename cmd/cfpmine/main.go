// Command cfpmine mines frequent itemsets from a FIMI-format file.
//
// Usage:
//
//	cfpmine -input data.fimi -minsup 0.01 [-algo cfpgrowth] [-out itemsets.txt]
//	cfpmine -input data.fimi -abssup 5000 -count
//
// With -count only the number of frequent itemsets per cardinality is
// printed; otherwise every itemset is written in the FIMI output
// convention "i1 i2 ... (support)".
//
// Observability: -trace FILE streams a JSONL trace of phase spans plus
// a final summary (schema: docs/FORMAT.md §6), -trace-out FILE writes a
// hierarchical Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, -sample INTERVAL polls runtime stats into the
// stream, -metrics-addr ADDR serves expvar, pprof, a JSON snapshot and
// a Prometheus text endpoint over HTTP for the run's duration, and
// -profile FILE writes a CPU profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cfpgrowth"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

func main() {
	var (
		input     = flag.String("input", "", "FIMI-format input file (required)")
		algo      = flag.String("algo", "cfpgrowth", "algorithm: "+strings.Join(cfpgrowth.Algorithms(), ", "))
		minsup    = flag.Float64("minsup", 0, "relative minimum support, e.g. 0.01 for 1%")
		abssup    = flag.Uint64("abssup", 0, "absolute minimum support (transactions)")
		countOnly = flag.Bool("count", false, "print itemset counts only")
		out       = flag.String("out", "", "output file (default stdout)")
		maxLen    = flag.Int("maxlen", 0, "suppress itemsets longer than this (0 = no limit)")
		noChain   = flag.Bool("nochains", false, "disable CFP-tree chain nodes")
		noEmbed   = flag.Bool("noembed", false, "disable CFP-tree embedded leaves")
		parallel  = flag.Int("parallel", 0, "mine with this many goroutines (cfpgrowth only)")
		closed    = flag.Bool("closed", false, "report only closed itemsets")
		maximal   = flag.Bool("maximal", false, "report only maximal itemsets")
		topk      = flag.Int("topk", 0, "report only the K highest-support itemsets of ≥2 items")
		saveIdx   = flag.String("saveindex", "", "also save the compressed CFP-array index to this file")
		loadIdx   = flag.String("loadindex", "", "mine from a saved index instead of -input")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration, e.g. 30s (0 = no limit)")
		maxBytes  = flag.Int64("max-bytes", 0, "abort when modeled mining memory exceeds this many bytes (0 = no limit)")
		maxSets   = flag.Uint64("max-itemsets", 0, "abort after emitting this many itemsets (0 = no limit)")
		trace     = flag.String("trace", "", "write a JSONL trace (phase spans + summary) to this file")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
		sample    = flag.Duration("sample", 0, "poll runtime stats at this interval into the trace stream, e.g. 100ms (0 = off)")
		metrics   = flag.String("metrics-addr", "", "serve expvar/pprof/metrics over HTTP on this address, e.g. localhost:6060")
		profile   = flag.String("profile", "", "write a CPU profile to this file")
	)
	flag.Parse()
	if *input == "" && *loadIdx == "" {
		fmt.Fprintln(os.Stderr, "cfpmine: -input or -loadindex is required")
		flag.Usage()
		os.Exit(2)
	}
	if *loadIdx != "" {
		// A loaded index is mined in full, serially and unbounded: a
		// flag that would shape or bound the run is refused, not ignored.
		var refused []string
		flag.Visit(func(f *flag.Flag) {
			if notForIndex[f.Name] {
				refused = append(refused, "-"+f.Name)
			}
		})
		if len(refused) > 0 {
			fmt.Fprintf(os.Stderr, "cfpmine: -loadindex does not take %s\n", strings.Join(refused, ", "))
			os.Exit(2)
		}
	}
	opts := cfpgrowth.Options{
		MinSupport:      *abssup,
		RelativeSupport: *minsup,
		Algorithm:       *algo,
		MaxLen:          *maxLen,
		Parallel:        *parallel,
		MaxBytes:        *maxBytes,
		MaxItemsets:     *maxSets,
		Tree: cfpgrowth.TreeConfig{
			DisableChains: *noChain,
			DisableEmbed:  *noEmbed,
		},
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}
	defer runCleanups()
	var rec *cfpgrowth.Recorder
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fail(err)
		}
		cleanup(func() { f.Close() })
		rec = cfpgrowth.NewRecorder(obs.NewJSONLSink(f))
	} else if *traceOut != "" || *sample > 0 || *metrics != "" {
		rec = cfpgrowth.NewRecorder(nil)
	}
	if rec != nil {
		opts.Observe = rec
		// LIFO: the summary event is written before the trace file
		// closes, on success and failure exits alike.
		cleanup(rec.EmitSummary)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		tr := obs.NewTrace(workers, 1<<14)
		rec.AttachTrace(tr)
		cleanup(func() {
			if _, dropped := tr.Events(); dropped > 0 {
				fmt.Fprintf(os.Stderr, "cfpmine: trace-out: %d spans lost to ring overwrites\n", dropped)
			}
			if err := tr.WriteChrome(f); err != nil {
				fmt.Fprintln(os.Stderr, "cfpmine: trace-out:", err)
			}
			f.Close()
		})
	}
	if *sample > 0 {
		// Registered after EmitSummary, so LIFO stops the sampler (one
		// final poll included) before the summary snapshots the gauges.
		cleanup(rec.StartSampler(*sample).Stop)
	}
	if *metrics != "" {
		rec.Publish("cfpmine")
		srv, err := obs.Serve(*metrics, rec)
		if err != nil {
			fail(err)
		}
		cleanup(func() { srv.Close() })
		fmt.Fprintf(os.Stderr, "cfpmine: metrics on http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n", srv.Addr())
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fail(err)
		}
		cleanup(func() { f.Close() })
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		cleanup(pprof.StopCPUProfile)
	}
	var ms cfpgrowth.MemoryStats
	opts.Memory = &ms
	start := time.Now()
	if *loadIdx != "" {
		ix, err := cfpgrowth.LoadIndex(*loadIdx)
		if err != nil {
			fail(err)
		}
		// Rounded up like -input's support, so an index saved at
		// -minsup loads at the same -minsup.
		sup := *abssup
		if sup == 0 {
			sup = dataset.AbsoluteSupport(*minsup, ix.NumTx)
		}
		n := writeItemsets(*out, func(h cfpgrowth.Handler) error { return ix.Mine(sup, h) })
		fmt.Fprintf(os.Stderr, "cfpmine: %d itemsets from index (%d nodes, %s) in %.2fs\n",
			n, ix.NumNodes(), human(ix.Bytes()), time.Since(start).Seconds())
		return
	}
	src := openSource(*input)
	if *saveIdx != "" {
		ix, err := cfpgrowth.BuildIndex(src, opts)
		if err != nil {
			fail(err)
		}
		if err := cfpgrowth.SaveIndex(*saveIdx, ix); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "cfpmine: saved index: %d nodes, %s\n", ix.NumNodes(), human(ix.Bytes()))
	}
	if *closed || *maximal || *topk > 0 {
		var sets []cfpgrowth.Itemset
		var err error
		var kind string
		switch {
		case *topk > 0:
			sets, err = cfpgrowth.MineTopK(src, opts, *topk, 2)
			kind = "top-k"
		case *closed:
			sets, err = cfpgrowth.MineClosed(src, opts)
			kind = "closed"
		default:
			sets, err = cfpgrowth.MineMaximal(src, opts)
			kind = "maximal"
		}
		if err != nil {
			fail(err)
		}
		writeItemsets(*out, func(h cfpgrowth.Handler) error {
			for _, s := range sets {
				if err := h(s.Items, s.Support); err != nil {
					return err
				}
			}
			return nil
		})
		fmt.Fprintf(os.Stderr, "cfpmine: %d %s itemsets in %.2fs\n", len(sets), kind, time.Since(start).Seconds())
		return
	}
	if *countOnly {
		total, byLen, err := cfpgrowth.Count(src, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("frequent itemsets: %d (%.2fs)\n", total, time.Since(start).Seconds())
		for l, c := range byLen {
			if c > 0 {
				fmt.Printf("  |I| = %2d: %d\n", l, c)
			}
		}
		return
	}
	n := writeItemsets(*out, func(h cfpgrowth.Handler) error { return cfpgrowth.Mine(src, opts, h) })
	fmt.Fprintf(os.Stderr, "cfpmine: %d itemsets in %.2fs, peak memory %s\n",
		n, time.Since(start).Seconds(), human(ms.PeakBytes))
}

// notForIndex names the mining flags a -loadindex run has no use for,
// and the observability flags its mine does not feed.
var notForIndex = map[string]bool{
	"count": true, "closed": true, "maximal": true, "topk": true, "maxlen": true,
	"parallel": true, "timeout": true, "max-bytes": true, "max-itemsets": true,
	"trace": true, "trace-out": true, "sample": true, "metrics-addr": true,
}

// writeItemsets runs a mine with a handler that writes every itemset
// to the -out destination path, and returns how many it wrote. The
// output is flushed only once the mine succeeds; on error the process
// exits.
func writeItemsets(path string, run func(cfpgrowth.Handler) error) uint64 {
	sink := mine.NewWriterSink(outWriter(path))
	var n uint64
	if err := run(func(items []uint32, s uint64) error {
		n++
		return sink.Emit(items, s)
	}); err != nil {
		fail(err)
	}
	if err := sink.Flush(); err != nil {
		fail(err)
	}
	return n
}

// openSource sniffs the input format by its magic bytes: the binary
// transaction format ("CFPT", see docs/FORMAT.md) or FIMI text.
func openSource(path string) cfpgrowth.Source {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	var magic [4]byte
	n, _ := f.Read(magic[:])
	f.Close()
	if n == 4 && string(magic[:]) == "CFPT" {
		return &dataset.BinaryFile{Path: path}
	}
	return cfpgrowth.File(path)
}

// outWriter opens the output destination; the process exits on error
// and the returned file is intentionally left to process teardown.
func outWriter(path string) *os.File {
	if path == "" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	return f
}

func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// cleanups holds teardown for the observability exporters (trace
// summary + file, metrics server, CPU profile). A plain defer would
// be skipped by fail's os.Exit, losing the summary event of exactly
// the runs most worth diagnosing — so both exit paths drain this
// stack explicitly, LIFO like defer.
var cleanups []func()

func cleanup(f func()) { cleanups = append(cleanups, f) }

func runCleanups() {
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

func fail(err error) {
	runCleanups()
	fmt.Fprintln(os.Stderr, "cfpmine:", err)
	os.Exit(1)
}
