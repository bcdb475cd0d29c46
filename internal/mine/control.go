package mine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrCanceled reports a mining run aborted by its context (explicit
// cancellation or an exceeded deadline).
var ErrCanceled = errors.New("mine: run canceled")

// ErrBudgetExceeded reports a mining run aborted because a resource
// budget (modeled memory bytes or emitted itemsets) was exhausted.
var ErrBudgetExceeded = errors.New("mine: resource budget exceeded")

// Control is the shared cancellation point of one mining run. Every
// phase (build, convert, mine) and every parallel worker polls the same
// Control, so the first stop cause — a canceled context, a blown
// budget, or a failing sink — halts the whole run promptly, and that
// first cause is the error the run returns. It is also the run's one
// byte ledger: every miner charges its modeled structure bytes to it
// (Alloc, Free), and the run's peak, average and allocated totals are
// read from it. The zero value is a live,
// unlimited control; all methods tolerate a nil receiver (treated as
// "never stopped"), so plumbing is optional at every layer.
type Control struct {
	// MaxBytes, when positive, is the modeled-memory budget: the run is
	// stopped with ErrBudgetExceeded as soon as the charged footprint
	// (see Alloc/Probe) would exceed it. Set before the run starts.
	MaxBytes int64

	stopped atomic.Bool  // fast-path flag; cause below is authoritative
	bytes   atomic.Int64 // modeled bytes currently charged
	peak    atomic.Int64 // high-water mark of bytes; monotone
	alloc   atomic.Int64 // bytes passed to Alloc, summed; monotone
	updates atomic.Int64 // Alloc and Free calls
	sum     atomic.Int64 // bytes after each update, summed (AvgBytes)
	mu      sync.Mutex
	cause   error
}

// Bytes returns the modeled bytes currently charged.
func (c *Control) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes.Load()
}

// PeakBytes returns the high-water mark of the byte ledger: the
// largest footprint Alloc ever recorded. It is monotone for the
// Control's lifetime, also under concurrent Alloc/Free, and is
// maintained whether or not a MaxBytes budget is set — it is the
// run-summary peak the paper's Figures 7(b)/7(d) plot.
func (c *Control) PeakBytes() int64 {
	if c == nil {
		return 0
	}
	return c.peak.Load()
}

// TotalAlloc returns the bytes ever passed to Alloc, however many of
// them were freed since: the structure bytes the run built, which the
// paging model of Figures 7 and 8 takes for the bytes a mine touched.
// It never decreases.
func (c *Control) TotalAlloc() int64 {
	if c == nil {
		return 0
	}
	return c.alloc.Load()
}

// AvgBytes returns the ledger's footprint averaged over its updates:
// the mean of the charged bytes after each Alloc and Free, the run
// average of Figure 7(d).
func (c *Control) AvgBytes() int64 {
	if c == nil {
		return 0
	}
	if n := c.updates.Load(); n > 0 {
		return c.sum.Load() / n
	}
	return 0
}

// Err returns the stop cause, or nil while the run may continue. The
// not-stopped fast path is a single atomic load, cheap enough to poll
// from mining inner loops.
func (c *Control) Err() error {
	if c == nil || !c.stopped.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// Stopped reports whether the run has been stopped. It is the Err fast
// path in callback form, for use as a traversal abort check.
func (c *Control) Stopped() bool { return c != nil && c.stopped.Load() }

// Stop records cause and stops the run. Only the first call wins:
// later calls are no-ops, so concurrent failures always surface the
// error that actually happened first. Reports whether this call won.
func (c *Control) Stop(cause error) bool {
	if c == nil || cause == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cause != nil {
		return false
	}
	c.cause = cause
	c.stopped.Store(true)
	return true
}

// Alloc records that n bytes of modeled structure memory came into
// use: it adds them to the ledger and to TotalAlloc, advances the peak
// high-water mark, and stops the run with ErrBudgetExceeded when the
// total passes MaxBytes (the stop only applies when a budget is set;
// the ledger and peak are always maintained).
//
// The bytes are the modeled footprints of the paper's C layouts (40
// bytes per baseline FP-tree node, the exact compressed byte counts of
// the CFP structures), not Go heap sizes, so the ledger stays
// comparable to the paper's measurements and independent of the Go
// runtime.
func (c *Control) Alloc(n int64) {
	if c == nil {
		return
	}
	c.alloc.Add(n)
	cur := c.bytes.Add(n)
	c.sample(cur)
	for {
		peak := c.peak.Load()
		if cur <= peak || c.peak.CompareAndSwap(peak, cur) {
			break
		}
	}
	if c.MaxBytes > 0 && cur > c.MaxBytes {
		c.Stop(fmt.Errorf("%w: modeled memory %d B over MaxBytes %d B", ErrBudgetExceeded, cur, c.MaxBytes))
	}
}

// Free records that n previously charged bytes were released.
func (c *Control) Free(n int64) {
	if c != nil {
		c.sample(c.bytes.Add(-n))
	}
}

// sample adds one update's resulting footprint to the average.
func (c *Control) sample(cur int64) {
	c.updates.Add(1)
	c.sum.Add(cur)
}

// Probe stops the run if the charged footprint plus extra transient
// bytes would exceed the budget, without charging them. Phases whose
// structures grow incrementally (the CFP-tree build) probe their
// current extent so a runaway build is caught before its one-shot
// Alloc at phase end.
func (c *Control) Probe(extra int64) {
	if c == nil || c.MaxBytes <= 0 {
		return
	}
	if c.bytes.Load()+extra > c.MaxBytes {
		c.Stop(fmt.Errorf("%w: modeled memory %d B over MaxBytes %d B", ErrBudgetExceeded, c.bytes.Load()+extra, c.MaxBytes))
	}
}

// Watch arms the control to stop (with an error wrapping ErrCanceled)
// when ctx is canceled or its deadline passes. It returns a release
// function that must be called when the run ends; the watcher goroutine
// exits on whichever comes first. An already-canceled context stops the
// control synchronously before Watch returns.
func (c *Control) Watch(ctx context.Context) (release func()) {
	if c == nil || ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if err := ctx.Err(); err != nil {
		c.Stop(fmt.Errorf("%w: %v", ErrCanceled, err))
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			c.Stop(fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx)))
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// ControlSink gates emissions on a Control: once the run is stopped —
// by cancellation, a budget, or a previous emission's error — every
// Emit fails with the stop cause without reaching the inner sink, and
// an inner sink error stops the run itself, so no sibling worker can
// emit after the first failure. Max, when positive, bounds the number
// of itemsets passed through; the run stops with ErrBudgetExceeded at
// the first itemset past the limit. For parallel miners, wrap a
// ControlSink *inside* the SyncSink so the check-then-emit pair is
// atomic under the sink mutex.
type ControlSink struct {
	Inner Sink
	Ctl   *Control
	Max   uint64 // max itemsets (0 = unlimited)
	n     atomic.Uint64
}

// Emit implements Sink.
func (s *ControlSink) Emit(items []uint32, support uint64) error {
	if err := s.Ctl.Err(); err != nil {
		return err
	}
	if s.Max > 0 && s.n.Add(1) > s.Max {
		err := fmt.Errorf("%w: more than MaxItemsets=%d itemsets", ErrBudgetExceeded, s.Max)
		s.Ctl.Stop(err)
		return err
	}
	if err := s.Inner.Emit(items, support); err != nil {
		s.Ctl.Stop(err)
		return err
	}
	return nil
}
