package mine

import (
	"sync"
	"sync/atomic"
	"time"
)

// ShardCounters is one shard's pool accounting. The atomic fields are
// updated by whichever worker executes the shard's jobs; Queue is
// written once at pool start.
type ShardCounters struct {
	// Queue is the shard's seeded queue depth (jobs assigned to it).
	Queue int64
	// Jobs counts jobs of this shard that executed (owner or thief).
	Jobs atomic.Int64
	// Steals counts this shard's jobs executed by a non-owner worker.
	Steals atomic.Int64
	// StealFails counts drain attempts by non-owner workers that found
	// the shard already empty (wasted steal probes).
	StealFails atomic.Int64
	// BusyNanos is the summed wall time of this shard's jobs.
	BusyNanos atomic.Int64
}

// WorkerCounters is one worker's pool accounting. Each struct is
// written only by its own worker goroutine and published by the pool's
// WaitGroup join, so the fields are plain.
type WorkerCounters struct {
	// Jobs counts jobs this worker executed.
	Jobs int64
	// Steals counts jobs this worker took from shards it does not own.
	Steals int64
	// BusyNanos is the summed wall time this worker spent inside jobs.
	BusyNanos int64
	// IdleNanos is the worker's pool lifetime minus its busy time:
	// scheduling gaps, steal probing, and the tail wait after the last
	// job it could reach.
	IdleNanos int64
}

// ShardMetrics accumulates per-shard and per-worker accounting of one
// RunSharded pool: jobs executed, steals and failed steal probes,
// busy/idle time, and the pool's wall time. Observing a pool costs two
// monotonic clock reads per job; a nil *ShardMetrics keeps the
// unobserved drain loop branch-identical to the bare one.
type ShardMetrics struct {
	Shards    []ShardCounters
	Workers   []WorkerCounters
	WallNanos int64
}

// NewShardMetrics sizes accounting for a pool of the given shape;
// shard queue depths are recorded immediately.
func NewShardMetrics(workers int, shards [][]int) *ShardMetrics {
	if workers < 1 {
		workers = 1
	}
	m := &ShardMetrics{
		Shards:  make([]ShardCounters, len(shards)),
		Workers: make([]WorkerCounters, workers),
	}
	for i, jobs := range shards {
		m.Shards[i].Queue = int64(len(jobs))
	}
	return m
}

// RunSharded executes a sharded, work-stealing parallel run: jobs are
// grouped into shards, each worker primarily drains the shard it owns
// (worker w owns shard w mod len(shards)), and a worker whose own
// shard is exhausted steals jobs from the other shards' cursors in
// ring order, so no worker idles while any job remains. Within one
// shard, jobs execute in slice order; the shard slices themselves must
// already be in the caller's deterministic order (sorted seeds), which
// makes job-to-shard attribution independent of scheduling.
//
// Error semantics match the parallel miners': the first failure
// anywhere stops ctl, every worker observes the stop before taking its
// next job, no worker drains remaining jobs after a stop, and the
// returned error is always the first failure — even when several
// workers fail concurrently. fn receives the executing worker's index
// (for per-worker state such as arenas), the shard index (for
// per-shard attribution such as observability recorders), and the job
// value.
//
// When m is non-nil, the pool is observed: every job's wall time is
// attributed to its shard and its executing worker, steals and failed
// steal probes are counted, and worker idle time and the pool wall time
// are recorded after the join. m must be sized for the pool
// (NewShardMetrics); a nil m runs the pool unobserved.
//
// The drain loop and the worker closures are the per-job dispatch path
// of every sharded mine: one iteration per conditional-pattern job, so
// per-iteration allocations multiply by the job count.
func RunSharded(workers int, shards [][]int, ctl *Control, m *ShardMetrics, fn func(worker, shard, job int) error) error {
	if ctl == nil {
		// A private control still gives first-error-wins semantics.
		ctl = &Control{}
	}
	numShards := len(shards)
	if numShards == 0 {
		return ctl.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if m != nil && (len(m.Shards) < numShards || len(m.Workers) < workers) {
		// Undersized accounting would index out of range mid-pool; an
		// unobserved run beats a crashed one.
		m = nil
	}
	poolStart := time.Now()
	// One cursor per shard: owners and thieves draw from the same
	// atomic counter, so a job is never executed twice and stealing
	// needs no deques or locks.
	cursors := make([]atomic.Int64, numShards)
	drain := func(worker, shard int, ws *WorkerCounters) bool {
		jobs := shards[shard]
		stealing := m != nil && shard != worker%numShards
		taken := int64(0)
		for {
			if ctl.Stopped() {
				return false
			}
			i := cursors[shard].Add(1) - 1
			if i >= int64(len(jobs)) {
				if stealing && taken == 0 {
					m.Shards[shard].StealFails.Add(1)
				}
				return true
			}
			if m == nil {
				if err := fn(worker, shard, jobs[i]); err != nil {
					// First Stop wins: if another worker already failed,
					// its earlier error stays the run's cause.
					ctl.Stop(err)
					return false
				}
				continue
			}
			taken++
			t0 := time.Now()
			err := fn(worker, shard, jobs[i])
			dt := int64(time.Since(t0))
			sc := &m.Shards[shard]
			sc.Jobs.Add(1)
			sc.BusyNanos.Add(dt)
			ws.Jobs++
			ws.BusyNanos += dt
			if stealing {
				sc.Steals.Add(1)
				ws.Steals++
			}
			if err != nil {
				ctl.Stop(err)
				return false
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ws *WorkerCounters
			if m != nil {
				ws = &m.Workers[w]
			}
			own := w % numShards
			// Own shard first, then steal around the ring.
			for i := 0; i < numShards; i++ {
				if !drain(w, (own+i)%numShards, ws) {
					break
				}
			}
			if ws != nil {
				ws.IdleNanos = int64(time.Since(poolStart)) - ws.BusyNanos
			}
		}(w)
	}
	wg.Wait()
	if m != nil {
		m.WallNanos = int64(time.Since(poolStart))
	}
	return ctl.Err()
}
