package mine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardMetricsAccounting runs an observed pool and checks the
// ledger-style invariants the accounting must satisfy regardless of
// scheduling: per-shard jobs equal queue depths, shard and worker
// job totals agree, busy time is conserved across both views, and
// idle plus busy stays within each worker's pool lifetime.
func TestShardMetricsAccounting(t *testing.T) {
	shards := [][]int{{0, 1, 2}, {3, 4}, {5}, {}}
	const workers = 2
	m := NewShardMetrics(workers, shards)
	for i, jobs := range shards {
		if got := m.Shards[i].Queue; got != int64(len(jobs)) {
			t.Errorf("shard %d queue = %d, want %d", i, got, len(jobs))
		}
	}
	err := RunSharded(workers, shards, nil, m, func(worker, shard, job int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var shardJobs, shardBusy, shardSteals int64
	for i := range m.Shards {
		sc := &m.Shards[i]
		if got := sc.Jobs.Load(); got != sc.Queue {
			t.Errorf("shard %d executed %d of %d queued jobs", i, got, sc.Queue)
		}
		shardJobs += sc.Jobs.Load()
		shardBusy += sc.BusyNanos.Load()
		shardSteals += sc.Steals.Load()
	}
	var workerJobs, workerBusy, workerSteals int64
	for i, wc := range m.Workers {
		workerJobs += wc.Jobs
		workerBusy += wc.BusyNanos
		workerSteals += wc.Steals
		if wc.IdleNanos < 0 {
			t.Errorf("worker %d idle %d ns, want >= 0", i, wc.IdleNanos)
		}
		if wc.BusyNanos > m.WallNanos {
			t.Errorf("worker %d busy %d ns exceeds pool wall %d ns", i, wc.BusyNanos, m.WallNanos)
		}
	}
	if shardJobs != 6 || workerJobs != 6 {
		t.Errorf("job totals: shards %d, workers %d, want 6", shardJobs, workerJobs)
	}
	if shardBusy != workerBusy {
		t.Errorf("busy time diverges: shards %d ns, workers %d ns", shardBusy, workerBusy)
	}
	if shardSteals != workerSteals {
		t.Errorf("steal totals diverge: shards %d, workers %d", shardSteals, workerSteals)
	}
	if m.WallNanos <= 0 {
		t.Errorf("wall = %d ns, want > 0", m.WallNanos)
	}
}

// TestShardMetricsStealsAttributed forces stealing — one worker owns
// every shard, a second owns none — and checks that the thief's jobs
// count as steals on both the shard and the worker ledgers, and that
// probing an already-drained foreign shard records a steal failure.
func TestShardMetricsStealsAttributed(t *testing.T) {
	// All work sits in shard 0; shard 1 (worker 1's own) is empty, so
	// every job worker 1 executes is a steal. Whichever worker grabs
	// job 0 parks in it until three other jobs have run, forcing the
	// other worker to drain them — so at least one steal always happens.
	shards := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {}}
	m := NewShardMetrics(2, shards)
	var done atomic.Int64
	err := RunSharded(2, shards, nil, m, func(worker, shard, job int) error {
		if job == 0 {
			for done.Load() < 3 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		done.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &m.Shards[0]
	if sc.Jobs.Load() != 8 {
		t.Fatalf("shard 0 jobs = %d, want 8", sc.Jobs.Load())
	}
	if got, want := sc.Steals.Load(), m.Workers[1].Steals; got != want {
		t.Errorf("shard steals %d != worker-1 steals %d", got, want)
	}
	if sc.Steals.Load() == 0 {
		t.Error("no steals recorded despite a parked owner")
	}
	if m.Workers[1].Jobs != m.Workers[1].Steals {
		t.Errorf("worker 1 owns nothing, so jobs (%d) must equal steals (%d)",
			m.Workers[1].Jobs, m.Workers[1].Steals)
	}
}

// TestShardMetricsStealFailCounted: a worker probing a foreign shard
// that is already empty records a failed steal, not a job.
func TestShardMetricsStealFailCounted(t *testing.T) {
	// Worker 0 owns shard 0 (one job) and then probes shard 1, which is
	// empty: exactly one steal failure against shard 1.
	shards := [][]int{{42}, {}}
	m := NewShardMetrics(1, shards)
	if err := RunSharded(1, shards, nil, m, func(worker, shard, job int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Shards[1].StealFails.Load(); got != 1 {
		t.Errorf("empty foreign shard steal_fails = %d, want 1", got)
	}
	if got := m.Shards[0].StealFails.Load(); got != 0 {
		t.Errorf("own shard steal_fails = %d, want 0 (own drain is not a steal)", got)
	}
}

// TestShardMetricsUndersizedDisabled: accounting sized for a smaller
// pool is discarded rather than indexed out of range, and the run
// still completes.
func TestShardMetricsUndersizedDisabled(t *testing.T) {
	shards := [][]int{{1}, {2}, {3}}
	m := NewShardMetrics(1, shards[:1]) // too few shards and workers
	// Two workers run jobs concurrently, so the count is atomic.
	var ran atomic.Int32
	err := RunSharded(2, shards, nil, m, func(worker, shard, job int) error {
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 3 {
		t.Fatalf("err = %v, ran = %d, want nil and 3", err, ran.Load())
	}
	if m.Shards[0].Jobs.Load() != 0 {
		t.Error("undersized metrics were written to; must be discarded whole")
	}
}

// TestShardMetricsErrorPathStillAccounts: a failing job is still
// charged to its shard and worker before the pool stops.
func TestShardMetricsErrorPathStillAccounts(t *testing.T) {
	boom := errors.New("boom")
	shards := [][]int{{0, 1, 2, 3}}
	m := NewShardMetrics(1, shards)
	err := RunSharded(1, shards, nil, m, func(worker, shard, job int) error {
		if job == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Jobs 0 and 1 ran (the failure included); 2 and 3 must not have.
	if got := m.Shards[0].Jobs.Load(); got != 2 {
		t.Errorf("jobs after failure = %d, want 2 (failed job charged, rest skipped)", got)
	}
	if m.WallNanos <= 0 {
		t.Error("wall not recorded on the error path")
	}
}
