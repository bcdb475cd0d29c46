package core

import (
	"math"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// minePool is mineTop's sharded branch: the ranks are partitioned into
// one shard of deterministic seeds per worker (min(workers, len(ranks))
// of them) and mined by a work-stealing pool (mine.RunSharded) of
// those workers, each a private grower with its own tree arena and
// decode stack that processes whole conditional subproblems and steals
// from other shards once its own is drained. d, the flat decoding of
// a, is shared read-only. ranks must be non-empty. m
// supplies the run's settings and must carry a non-nil Control: the
// first failure anywhere stops it, and every worker observes the stop
// before its next job and its next emission.
func (m *cfpGrower) minePool(a *Array, d *Decode, ranks []uint32, workers int, sp obs.Span) error {
	workers = min(workers, len(ranks))
	// Deterministic shard seeds: ranks in the given order (least
	// frequent items, with the deepest pattern bases, lead for load
	// balance), dealt round-robin across the shards. The assignment
	// never depends on scheduling order.
	shards := make([][]int, workers)
	for i, rk := range ranks {
		shards[i%workers] = append(shards[i%workers], int(rk))
	}
	// One private recorder per shard: workers attribute structure
	// counters to the shard that owns the item, not to the goroutine
	// that happened to steal it, and the post-pool merge below runs in
	// shard order — the run's counter attribution is reproducible.
	var shardRecs []*obs.Recorder
	if m.rec != nil {
		shardRecs = make([]*obs.Recorder, workers)
		for s := range shardRecs {
			shardRecs[s] = obs.New(nil)
		}
	}
	// The ControlSink sits inside the SyncSink, so the stopped check
	// and the emission are atomic under the sink mutex: after the first
	// failing emission stops the Control, no later emission from any
	// worker can reach the caller's sink.
	ssink := &mine.SyncSink{Inner: &mine.ControlSink{Inner: m.sink, Ctl: m.ctl}}
	growers := make([]*cfpGrower, workers)
	for w := range growers {
		growers[w] = &cfpGrower{
			cfg:       m.cfg,
			minSup:    m.minSup,
			maxLen:    m.maxLen,
			sink:      ssink,
			track:     m.track,
			ctl:       m.ctl,
			treeArena: arena.New(),
		}
	}
	// Pool accounting (jobs, steals, busy/idle) is collected whenever a
	// recorder is attached; the per-job clock reads are noise against
	// whole conditional subproblems.
	var pool *mine.ShardMetrics
	if m.rec != nil {
		pool = mine.NewShardMetrics(workers, shards)
	}
	err := mine.RunShardedObserved(workers, shards, m.ctl, pool, func(worker, shard, rank int) error {
		g := growers[worker]
		if shardRecs != nil {
			g.rec = shardRecs[shard]
		}
		// One child span per top-level item: the trace's hierarchical
		// detail under the single mine phase span, attributed to the
		// executing worker's ring. Without a trace the span is inert.
		csp := m.rec.StartChild(sp, "mine-item").WithWorker(worker).
			With("shard", int64(shard)).With("rank", int64(rank))
		err := g.mineRank(a, d, uint32(int64(rank)&math.MaxUint32), nil)
		csp.End()
		return err
	})
	for _, sr := range shardRecs {
		m.rec.Merge(sr)
	}
	FoldPoolMetrics(m.rec, pool)
	return err
}

// FoldPoolMetrics converts a drained pool's accounting into the
// recorder's mine-pool stats; nil recorder or pool is a no-op.
func FoldPoolMetrics(rec *obs.Recorder, pool *mine.ShardMetrics) {
	if rec == nil || pool == nil {
		return
	}
	shards := make([]obs.ShardStat, len(pool.Shards))
	for i := range pool.Shards {
		sc := &pool.Shards[i]
		shards[i] = obs.ShardStat{
			Queue:      sc.Queue,
			Jobs:       sc.Jobs.Load(),
			Steals:     sc.Steals.Load(),
			StealFails: sc.StealFails.Load(),
			BusyNanos:  sc.BusyNanos.Load(),
		}
	}
	workers := make([]obs.WorkerStat, len(pool.Workers))
	for i, wc := range pool.Workers {
		workers[i] = obs.WorkerStat{
			Jobs:      wc.Jobs,
			Steals:    wc.Steals,
			BusyNanos: wc.BusyNanos,
			IdleNanos: wc.IdleNanos,
		}
	}
	rec.SetMinePool(shards, workers)
}
