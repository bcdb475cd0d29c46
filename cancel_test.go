package cfpgrowth

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
)

// randomDB builds a database large enough that mining it takes many
// emissions, so mid-run cancellation has something to interrupt.
func randomDB(seed int64, numTx, numItems int) Transactions {
	rng := rand.New(rand.NewSource(seed))
	db := make(Transactions, numTx)
	for i := range db {
		tx := make([]Item, 3+rng.Intn(12))
		for j := range tx {
			tx[j] = Item(1 + rng.Intn(numItems))
		}
		db[i] = tx
	}
	return db
}

func TestMineAlreadyCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := randomDB(3, 200, 25)
	for _, name := range Algorithms() {
		var emitted atomic.Uint64
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Context: ctx},
			func([]Item, uint64) error {
				emitted.Add(1)
				return nil
			})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if n := emitted.Load(); n != 0 {
			t.Errorf("%s: %d itemsets emitted from a canceled run", name, n)
		}
	}
}

func TestMineCancelMidRun(t *testing.T) {
	db := randomDB(4, 400, 20)
	for _, name := range []string{"cfpgrowth", "cfpgrowth-par", "pfp", "fpgrowth", "eclat", "apriori"} {
		ctx, cancel := context.WithCancel(context.Background())
		var emitted atomic.Uint64
		var after atomic.Uint64
		var canceled atomic.Bool
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Parallel: 2, Context: ctx},
			func([]Item, uint64) error {
				if canceled.Load() {
					after.Add(1)
				}
				if emitted.Add(1) == 10 {
					cancel()
					// Give the watcher goroutine time to stop the
					// control; every later emission must then fail the
					// control check before reaching this handler.
					time.Sleep(300 * time.Millisecond)
					canceled.Store(true)
				}
				return nil
			})
		cancel()
		if emitted.Load() < 10 {
			// The run finished before the trigger; nothing to assert.
			continue
		}
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if a := after.Load(); a != 0 {
			t.Errorf("%s: %d emissions after cancellation", name, a)
		}
	}
}

// cancelingScan cancels its run's Context at transaction k of the
// build scan (its second), then waits long enough for the Control's
// watcher to see it, and counts the transactions the scan delivers
// past that point.
type cancelingScan struct {
	db           Transactions
	k            int
	cancel       func()
	scans, after int
	canceled     bool
}

func (s *cancelingScan) Scan(fn func(tx []Item) error) error {
	s.scans++
	for i, tx := range s.db {
		if s.scans == 2 && i == s.k {
			s.cancel()
			time.Sleep(100 * time.Millisecond)
			s.canceled = true
		}
		if err := fn(tx); err != nil {
			return err
		}
		if s.canceled {
			s.after++
		}
	}
	return nil
}

// TestMineCancelDuringBuildScan: a run canceled during its build scan
// stops the scan at its next transaction, before the scan ends, with
// every algorithm.
func TestMineCancelDuringBuildScan(t *testing.T) {
	for _, name := range Algorithms() {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelingScan{db: randomDB(6, 2000, 20), k: 100, cancel: cancel}
		err := Mine(src, Options{MinSupport: 2, Algorithm: name, Parallel: 2, Context: ctx}, func([]Item, uint64) error { return nil })
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if src.after != 0 {
			t.Errorf("%s: the build scan took %d transactions after the cancel", name, src.after)
		}
	}
}

func TestMineDeadline(t *testing.T) {
	// A deadline that has already passed behaves like a canceled context.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Mine(randomDB(5, 100, 15), Options{MinSupport: 2, Context: ctx},
		func([]Item, uint64) error { return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestMineMaxBytes(t *testing.T) {
	db := randomDB(6, 500, 30)
	for _, name := range []string{"cfpgrowth", "cfpgrowth-par"} {
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Parallel: 2, MaxBytes: 64},
			func([]Item, uint64) error { return nil })
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
	}
	// A generous budget must not trip.
	if err := Mine(db, Options{MinSupport: 2, MaxBytes: 1 << 30},
		func([]Item, uint64) error { return nil }); err != nil {
		t.Errorf("1 GiB budget tripped: %v", err)
	}
}

// TestMineMaxBytesFitsPaperLayout sets a byte budget of 1.5x the
// modeled peak of the paper's own mine-phase layout (the CFP-array
// with byte-chased pattern bases, Config.DisableFlatDecode) on Quest1
// data, whose thousands of frequent items put the flat decoding in its
// wide 8-byte layout. A decoding that would not fit the headroom must
// not fail the run: that array is mined by the byte chase, and the
// result is the unbudgeted one.
func TestMineMaxBytesFitsPaperLayout(t *testing.T) {
	db := quest.Generate(quest.Quest1(8000))
	minSup := dataset.AbsoluteSupport(0.012, uint64(len(db)))
	paper := &mine.Control{}
	var n mine.CountSink
	if err := (core.Growth{Config: core.Config{DisableFlatDecode: true}, Ctl: paper}).Mine(db, minSup, &n); err != nil {
		t.Fatal(err)
	}
	want, err := MineAll(db, Options{MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	budget := paper.PeakBytes() * 3 / 2
	got, err := MineAll(db, Options{MinSupport: minSup, MaxBytes: budget})
	if err != nil {
		t.Fatalf("MaxBytes %d (1.5x the paper layout's %d B peak): %v", budget, paper.PeakBytes(), err)
	}
	if uint64(len(want)) != n.N {
		t.Fatalf("flat mine found %d itemsets, byte chase %d", len(want), n.N)
	}
	mine.Canonicalize(want)
	mine.Canonicalize(got)
	if d := mine.Diff("budgeted", got, "unbudgeted", want); d != "" {
		t.Fatal(d)
	}
}

func TestMineMaxItemsets(t *testing.T) {
	db := randomDB(7, 300, 20)
	for _, name := range []string{"cfpgrowth", "cfpgrowth-par"} {
		var emitted atomic.Uint64
		err := Mine(db, Options{MinSupport: 2, Algorithm: name, Parallel: 2, MaxItemsets: 25},
			func([]Item, uint64) error {
				emitted.Add(1)
				return nil
			})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
		if n := emitted.Load(); n > 25 {
			t.Errorf("%s: handler saw %d itemsets, limit was 25", name, n)
		}
	}
}

func TestMineUncontrolledUnchanged(t *testing.T) {
	// The control plumbing must not change results when unused.
	want, err := MineAll(exampleDB, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineAll(exampleDB, Options{MinSupport: 2, Context: context.Background(), MaxBytes: 1 << 40, MaxItemsets: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("controlled run found %d itemsets, uncontrolled %d", len(got), len(want))
	}
}

func TestCountCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Count(exampleDB, Options{MinSupport: 2, Context: ctx}); !errors.Is(err, ErrCanceled) {
		t.Errorf("Count err = %v, want ErrCanceled", err)
	}
}

func TestAnalyzeCompressionCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeCompression(exampleDB, Options{MinSupport: 1, Context: ctx}); !errors.Is(err, ErrCanceled) {
		t.Errorf("AnalyzeCompression err = %v, want ErrCanceled", err)
	}
}

// buildIndexVia builds db into an Index with BuildIndex or a Builder,
// the two entry points that share the CFP build stage.
var buildIndexVia = map[string]func(db Transactions, opts Options) (*Index, error){
	"BuildIndex": func(db Transactions, opts Options) (*Index, error) { return BuildIndex(db, opts) },
	"Builder": func(db Transactions, opts Options) (*Index, error) {
		b, err := NewBuilder(opts, "")
		if err != nil {
			return nil, err
		}
		for _, tx := range db {
			if err := b.Add(tx); err != nil {
				b.Discard()
				return nil, err
			}
		}
		return b.Finish()
	},
}

func TestBuildIndexCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, build := range buildIndexVia {
		if _, err := build(exampleDB, Options{MinSupport: 2, Context: ctx}); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s err = %v, want ErrCanceled", name, err)
		}
	}
}

func TestBuildIndexMaxBytes(t *testing.T) {
	// Over 1024 transactions, so the build's periodic probe of the
	// growing tree runs: the build stops before conversion starts.
	db := randomDB(8, 3000, 20)
	for name, build := range buildIndexVia {
		rec := NewRecorder(nil)
		if _, err := build(db, Options{MinSupport: 2, MaxBytes: 1, Observe: rec}); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s err = %v, want ErrBudgetExceeded", name, err)
		}
		if n := rec.Snapshot().Phases["convert"].Count; n != 0 {
			t.Errorf("%s: over-budget build went on to convert (%d convert spans)", name, n)
		}
		// A generous budget must not trip.
		if _, err := build(db, Options{MinSupport: 2, MaxBytes: 1 << 30}); err != nil {
			t.Errorf("%s: 1 GiB budget tripped: %v", name, err)
		}
	}
}

func TestBuildIndexObserve(t *testing.T) {
	// The entry points that build a CFP-array without mining it, each
	// returning the array's bytes.
	builds := map[string]func(db Transactions, opts Options) (int64, error){
		"AnalyzeCompression": func(db Transactions, opts Options) (int64, error) {
			st, err := AnalyzeCompression(db, opts)
			return st.CFPArrayBytes, err
		},
	}
	for name, build := range buildIndexVia {
		builds[name] = func(db Transactions, opts Options) (int64, error) {
			ix, err := build(db, opts)
			if err != nil {
				return 0, err
			}
			return ix.Bytes(), nil
		}
	}
	for _, db := range []Transactions{randomDB(9, 300, 20), randomDB(12, 3000, 20)} {
		for name, build := range builds {
			rec := NewRecorder(nil)
			var ms MemoryStats
			arrBytes, err := build(db, Options{MinSupport: 2, Observe: rec, Memory: &ms})
			if err != nil {
				t.Fatal(err)
			}
			snap := rec.Snapshot()
			for _, want := range []string{"pass2-build", "convert"} {
				if snap.Phases[want].Count != 1 {
					t.Errorf("%s: phase %q recorded %d times, want once", name, want, snap.Phases[want].Count)
				}
			}
			// The convert stage retires the tree the build charged, then
			// charges the array.
			if got, want := snap.Phases["convert"].Bytes, arrBytes-snap.Phases["pass2-build"].Bytes; got != want {
				t.Errorf("%s: convert bytes_delta %d, want array %d - tree %d = %d",
					name, got, arrBytes, snap.Phases["pass2-build"].Bytes, want)
			}
			if snap.CurBytes != 0 {
				t.Errorf("%s: %d bytes still charged after the build", name, snap.CurBytes)
			}
			if ms.PeakBytes == 0 || ms.PeakBytes != snap.PeakBytes {
				t.Errorf("%s: Memory.PeakBytes %d, recorder peak %d; want one non-zero number", name, ms.PeakBytes, snap.PeakBytes)
			}
		}
	}
	// Only BuildIndex counts; a Builder counted while Add ran.
	rec := NewRecorder(nil)
	if _, err := BuildIndex(randomDB(9, 300, 20), Options{MinSupport: 2, Observe: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot().Phases["pass1"].Count != 1 {
		t.Error("BuildIndex recorded no pass1 span")
	}
}

// TestRunContract: every public run honours Options.Context and
// MaxBytes. A canceled Context fails the run with ErrCanceled before
// anything is scanned or emitted, and a one-byte budget fails it with
// ErrBudgetExceeded.
func TestRunContract(t *testing.T) {
	db := randomDB(12, 3000, 20)
	runs := map[string]func(Options) error{
		"Mine": func(o Options) error {
			return Mine(db, o, func([]Item, uint64) error { return nil })
		},
		"MineAll":            func(o Options) error { _, err := MineAll(db, o); return err },
		"Count":              func(o Options) error { _, _, err := Count(db, o); return err },
		"AnalyzeCompression": func(o Options) error { _, err := AnalyzeCompression(db, o); return err },
		"BuildIndex":         func(o Options) error { _, err := buildIndexVia["BuildIndex"](db, o); return err },
		"Builder":            func(o Options) error { _, err := buildIndexVia["Builder"](db, o); return err },
		"MineClosed":         func(o Options) error { _, err := MineClosed(db, o); return err },
		"MineMaximal":        func(o Options) error { _, err := MineMaximal(db, o); return err },
		"MineTopK":           func(o Options) error { _, err := MineTopK(db, o, 5, 2); return err },
		"MineSampled":        func(o Options) error { _, err := MineSampled(db, o, 0.5, 1); return err },
		"MineSampledCertified": func(o Options) error {
			_, _, err := MineSampledCertified(db, o, 0.5, 1)
			return err
		},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range runs {
		if err := run(Options{MinSupport: 2, Context: canceled}); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s with a canceled Context: err = %v, want ErrCanceled", name, err)
		}
		if err := run(Options{MinSupport: 2, MaxBytes: 1}); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s with MaxBytes 1: err = %v, want ErrBudgetExceeded", name, err)
		}
	}
	for _, algo := range Algorithms() {
		if err := runs["Mine"](Options{MinSupport: 2, Algorithm: algo, Context: canceled}); !errors.Is(err, ErrCanceled) {
			t.Errorf("Mine %s with a canceled Context: err = %v, want ErrCanceled", algo, err)
		}
		if err := runs["Mine"](Options{MinSupport: 2, Algorithm: algo, MaxBytes: 1}); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("Mine %s with MaxBytes 1: err = %v, want ErrBudgetExceeded", algo, err)
		}
	}
	// A pooled, observed run under a generous budget reports one peak:
	// Memory and the recorder read the run's one ledger, which the run
	// leaves balanced.
	for _, name := range []string{"Mine", "BuildIndex", "AnalyzeCompression"} {
		rec := NewRecorder(nil)
		var ms MemoryStats
		if err := runs[name](Options{MinSupport: 2, Parallel: 2, Memory: &ms, Observe: rec, MaxBytes: 1 << 30}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ms.PeakBytes == 0 || ms.PeakBytes != rec.PeakBytes() {
			t.Errorf("%s: Memory.PeakBytes %d, recorder peak %d; want one non-zero number", name, ms.PeakBytes, rec.PeakBytes())
		}
		if rec.CurBytes() != 0 {
			t.Errorf("%s: %d bytes still charged after the run", name, rec.CurBytes())
		}
	}
	// MaxLen holds for every algorithm, not only the two that prune at
	// it: no itemset of length 3 or more is left to rank.
	top, err := MineTopK(db, Options{MinSupport: 2, MaxLen: 2, Algorithm: "apriori"}, 10, 3)
	if err != nil || len(top) != 0 {
		t.Errorf("MineTopK with MaxLen 2, minLen 3: %v, err %v; want none", top, err)
	}
	// Options the sampling miner cannot honour are rejected.
	for _, o := range []Options{{Algorithm: "eclat"}, {Parallel: 2}, {Observe: NewRecorder(nil)}} {
		o.MinSupport = 2
		if _, err := MineSampled(db, o, 0.5, 1); err == nil {
			t.Errorf("MineSampled accepted %+v", o)
		}
	}
}

// TestRunsJoinTheirGoroutines runs each path that starts goroutines —
// a pooled mine under a live Context (workers plus the Context
// watcher), a File scan aborted mid-read, and the runtime sampler —
// under a watchdog, then waits for the goroutine count to fall back to
// where it started. A worker that is never joined either blocks its
// pool, which the watchdog reports long before the test binary's
// timeout, or outlives the run.
func TestRunsJoinTheirGoroutines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.fimi")
	if err := dataset.WriteFile(path, randomDB(10, 3000, 20)); err != nil {
		t.Fatal(err)
	}
	runs := map[string]func() error{
		"pooled Count": func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, _, err := Count(randomDB(11, 500, 20), Options{MinSupport: 2, Parallel: 4, Context: ctx})
			return err
		},
		"aborted File scan": func() error {
			if _, _, err := Count(File(path), Options{MinSupport: 2, MaxBytes: 1}); !errors.Is(err, ErrBudgetExceeded) {
				return fmt.Errorf("err = %v, want ErrBudgetExceeded", err)
			}
			return nil
		},
		"sampler": func() error {
			NewRecorder(nil).StartSampler(time.Millisecond).Stop()
			return nil
		},
	}
	start := runtime.NumGoroutine()
	for name, run := range runs {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: still running after 20 s", name)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines running after the run, %d before", name, runtime.NumGoroutine(), start)
			}
		}
	}
}
