package mine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// collectJobs runs RunSharded and returns how many times each job
// value was executed.
func collectJobs(t *testing.T, workers int, shards [][]int, ctl *Control) map[int]int {
	t.Helper()
	var mu sync.Mutex
	counts := map[int]int{}
	err := RunSharded(workers, shards, ctl, nil, func(worker, shard, job int) error {
		mu.Lock()
		counts[job]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	return counts
}

func TestRunShardedZeroShards(t *testing.T) {
	called := false
	err := RunSharded(4, nil, nil, nil, func(worker, shard, job int) error {
		called = true
		return nil
	})
	if err != nil {
		t.Fatalf("RunSharded with no shards: %v", err)
	}
	if called {
		t.Error("fn called despite there being no shards")
	}
}

func TestRunShardedZeroJobs(t *testing.T) {
	// Shards exist but every one is empty: the workers spin up, drain
	// nothing, and join cleanly.
	counts := collectJobs(t, 3, [][]int{{}, {}, {}}, nil)
	if len(counts) != 0 {
		t.Errorf("jobs executed on empty shards: %v", counts)
	}
}

func TestRunShardedOneShardManyWorkers(t *testing.T) {
	// All workers share one cursor; every job still runs exactly once.
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	counts := collectJobs(t, 8, [][]int{jobs}, nil)
	if len(counts) != len(jobs) {
		t.Fatalf("executed %d distinct jobs, want %d", len(counts), len(jobs))
	}
	for j, n := range counts {
		if n != 1 {
			t.Errorf("job %d executed %d times, want 1", j, n)
		}
	}
}

func TestRunShardedStealsFromDrainedRing(t *testing.T) {
	// Shard 1 is empty, so worker 1 (whose own shard it is) can only
	// make progress by stealing around the ring. With more workers than
	// non-empty shards, completion of every job proves stealing works
	// even when a thief's first ring stops are already drained.
	shards := [][]int{{1, 2, 3, 4, 5}, {}, {6}, {}}
	counts := collectJobs(t, 4, shards, nil)
	if len(counts) != 6 {
		t.Fatalf("executed %d distinct jobs, want 6: %v", len(counts), counts)
	}
	for j, n := range counts {
		if n != 1 {
			t.Errorf("job %d executed %d times, want 1", j, n)
		}
	}
}

func TestRunShardedShardAttribution(t *testing.T) {
	// The shard index passed to fn must identify the shard the job came
	// from regardless of which worker (owner or thief) ran it.
	shards := [][]int{{10, 11}, {20}, {30, 31, 32}}
	var mu sync.Mutex
	from := map[int]int{}
	err := RunSharded(3, shards, nil, nil, func(worker, shard, job int) error {
		mu.Lock()
		from[job] = shard
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for s, jobs := range shards {
		for _, j := range jobs {
			if got, ok := from[j]; !ok || got != s {
				t.Errorf("job %d attributed to shard %d, want %d", j, got, s)
			}
		}
	}
}

func TestRunShardedFirstErrorWins(t *testing.T) {
	// Two jobs fail; the run must report whichever Stop landed first
	// and keep reporting it, no matter how many later failures race in.
	errA := errors.New("failure A")
	errB := errors.New("failure B")
	ctl := &Control{}
	shards := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	err := RunSharded(2, shards, ctl, nil, func(worker, shard, job int) error {
		if job == 0 {
			return errA
		}
		if job == 4 {
			return errB
		}
		return nil
	})
	if err == nil {
		t.Fatal("RunSharded returned nil, want a job error")
	}
	if !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("err = %v, want one of the injected failures", err)
	}
	if got := ctl.Err(); !errors.Is(got, err) {
		t.Errorf("ctl.Err() = %v, but RunSharded returned %v; the first Stop must win", got, err)
	}
}

func TestRunShardedStopsMidSteal(t *testing.T) {
	// A single worker makes the schedule deterministic: its own shard
	// is empty, so it steals around the ring and fails partway through
	// the stolen shard. No job after the failing one may run — a worker
	// must re-check Stopped before every take, stolen or owned.
	boom := errors.New("boom")
	ctl := &Control{}
	var mu sync.Mutex
	var ran []int
	err := RunSharded(1, [][]int{{}, {1, 2, 3, 4}}, ctl, nil, func(worker, shard, job int) error {
		mu.Lock()
		ran = append(ran, job)
		mu.Unlock()
		if job == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	want := []int{1, 2}
	if len(ran) != len(want) || ran[0] != 1 || ran[1] != 2 {
		t.Errorf("jobs executed = %v, want %v (nothing after the mid-steal failure)", ran, want)
	}
	if !ctl.Stopped() {
		t.Error("control not stopped after a failing job")
	}
}

func TestRunShardedClampsWorkers(t *testing.T) {
	// workers < 1 still runs the jobs (clamped to one worker).
	counts := collectJobs(t, 0, [][]int{{1, 2, 3}}, nil)
	if len(counts) != 3 {
		t.Errorf("executed %d distinct jobs, want 3", len(counts))
	}
}

func TestRunShardedPreStoppedControl(t *testing.T) {
	// A control stopped before the run starts: no job may execute and
	// the pre-existing error is returned.
	pre := errors.New("already stopped")
	ctl := &Control{}
	ctl.Stop(pre)
	ran := atomic.Int64{}
	err := RunSharded(4, [][]int{{1, 2, 3}}, ctl, nil, func(worker, shard, job int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, pre) {
		t.Fatalf("err = %v, want the pre-existing stop cause %v", err, pre)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d jobs executed on a pre-stopped control, want 0", n)
	}
}
