package algo

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// faultySource fails on a chosen scan pass (and transaction offset),
// simulating IO errors mid-run. Prefix-tree miners scan twice; the
// fault must surface from whichever pass hits it.
type faultySource struct {
	db       dataset.Slice
	failPass int // 1-based pass to fail on
	failTx   int // fail after this many transactions of that pass
	pass     int
}

var errInjected = errors.New("injected IO failure")

func (f *faultySource) Scan(fn func(tx []uint32) error) error {
	f.pass++
	for i, tx := range f.db {
		if f.pass == f.failPass && i == f.failTx {
			return errInjected
		}
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// TestScanErrorsPropagate: every algorithm must return the underlying
// IO error (not panic, not swallow it) whether the failure hits the
// counting pass or the build pass.
func TestScanErrorsPropagate(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}}
	for _, name := range Names() {
		for _, failPass := range []int{1, 2} {
			src := &faultySource{db: db, failPass: failPass, failTx: 2}
			m, err := New(name, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = m.Mine(src, 2, &mine.CountSink{})
			if !errors.Is(err, errInjected) {
				t.Errorf("%s pass %d: error = %v, want injected failure", name, failPass, err)
			}
		}
	}
}

// TestScanErrorOnLaterPass covers algorithms that rescan more than
// twice (apriori scans once per level; fparray and sample make an extra
// pass).
func TestScanErrorOnLaterPass(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	for _, name := range []string{"apriori", "fparray"} {
		src := &faultySource{db: db, failPass: 3, failTx: 1}
		m, err := New(name, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = m.Mine(src, 2, &mine.CountSink{})
		if err != nil && !errors.Is(err, errInjected) {
			t.Errorf("%s: unexpected error %v", name, err)
		}
		// Some algorithms legitimately never reach a third pass; what
		// matters is that if they do, the failure propagates, and if
		// they don't, mining succeeds.
	}
}

// TestTrackerBalancedOnError: after a run aborted on any scan pass,
// every miner's ledger must be back at zero — each Alloc matched by a
// Free on the error path too. A pass the miner never reaches leaves
// the run successful, and a successful run must balance as well.
func TestTrackerBalancedOnError(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}}
	for _, name := range Names() {
		for _, failPass := range []int{1, 2, 3} {
			var tr mine.PeakTracker
			m, err := New(name, &tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			src := &faultySource{db: db, failPass: failPass, failTx: 2}
			err = m.Mine(src, 1, &mine.CountSink{})
			if err != nil && !errors.Is(err, errInjected) {
				t.Errorf("%s pass %d: unexpected error %v", name, failPass, err)
			}
			if tr.Cur != 0 {
				t.Errorf("%s pass %d: %d bytes still charged after the run (err = %v)", name, failPass, tr.Cur, err)
			}
		}
	}
}

var errStopped = errors.New("stopped by the sink")

// stopSink stops ctl on its k-th emission and counts every emission
// that arrives after it.
type stopSink struct {
	ctl      *mine.Control
	k        int64
	n, after atomic.Int64
}

func (s *stopSink) Emit([]uint32, uint64) error {
	switch n := s.n.Add(1); {
	case n == s.k:
		s.ctl.Stop(errStopped)
	case n > s.k:
		s.after.Add(1)
	}
	return nil
}

// TestNoEmissionAfterStop: once a run's Control is stopped, a miner
// that takes one emits nothing further and returns the stop cause. The
// sink is the caller's own, with no ControlSink in front of it, so
// every miner must check the Control before each emission itself. The
// six least frequent items only ever occur together: the prefix-tree
// miners mine them first, and each one's conditional tree is a single
// path, enumerated with no conversion or recursion step between the
// emissions to check the Control.
func TestNoEmissionAfterStop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := dataset.Slice{{200, 201, 202, 203, 204, 205}, {200, 201, 202, 203, 204, 205}, {200, 201, 202, 203, 204, 205}}
	for i := 0; i < 400; i++ {
		tx := make([]uint32, 2+rng.Intn(6))
		for j := range tx {
			tx[j] = uint32(rng.Intn(120))
		}
		db = append(db, tx)
	}
	miners := map[string]func(*mine.Control) mine.Miner{
		"cfpgrowth/DisableFlatDecode": func(ctl *mine.Control) mine.Miner {
			return core.Growth{Config: core.Config{DisableFlatDecode: true}, Ctl: ctl}
		},
	}
	for _, name := range []string{"cfpgrowth", "cfpgrowth-par", "pfp", "fpgrowth", "apriori", "eclat"} {
		miners[name] = func(ctl *mine.Control) mine.Miner {
			m, err := New(name, nil, ctl)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	for name, newMiner := range miners {
		for _, k := range []int64{1, 50} {
			ctl := &mine.Control{}
			sink := &stopSink{ctl: ctl, k: k}
			err := newMiner(ctl).Mine(db, 2, sink)
			if !errors.Is(err, errStopped) {
				t.Errorf("%s, stop at emission %d: err = %v, want the stop cause", name, k, err)
			}
			if n := sink.after.Load(); n != 0 {
				t.Errorf("%s, stop at emission %d: %d emissions after the stop", name, k, n)
			}
		}
	}
}
