package core

import (
	"runtime"
	"time"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// ParallelGrowth is CFP-growth with the mine phase sharded across the
// CFP-array's per-item partitions, the natural task decomposition of
// FP-growth's divide and conquer (the paper's related-work class (4),
// §5). The initial CFP-tree build and conversion stay single-threaded
// (the build is I/O-bound per §4.1); the top-level items are then
// partitioned into shards of deterministic, rank-sorted seeds, and a
// work-stealing pool (mine.RunSharded) mines them: each worker owns a
// private tree arena and decode stack and processes whole conditional
// subproblems, stealing from other shards once its own is drained.
// Workers share only the read-only initial CFP-array, its read-only
// flat decoding, and the (synchronized) sink.
type ParallelGrowth struct {
	// Config tunes the CFP-tree compression features.
	Config Config
	// Workers is the number of mining goroutines (0 = GOMAXPROCS).
	Workers int
	// Shards is the number of work-stealing partitions the top-level
	// items are divided into (0 = one per worker). Shard seeds are
	// assigned round-robin in descending rank order, so the
	// shard-to-item mapping — and with it per-shard observability
	// attribution — is a pure function of (n, Shards), never of
	// scheduling or map iteration order.
	Shards int
	// Track observes modeled memory; it is synchronized internally.
	Track mine.MemTracker
	// MaxLen, when positive, prunes the search at that cardinality.
	MaxLen int
	// Ctl, when non-nil, is the run's cancellation/budget point. The
	// miner also uses a (private) Control when none is supplied, so
	// first-error propagation between workers never depends on the
	// caller wiring one up.
	Ctl *mine.Control
	// Rec, when non-nil, records phase spans, structure counters, and
	// modeled-byte gauges. Byte gauges are fed directly by all workers
	// (they are atomic); structure counters are accumulated in one
	// private recorder per shard and merged in shard order after the
	// pool drains, so counter attribution is deterministic.
	Rec *obs.Recorder
}

// Name implements mine.Miner.
func (ParallelGrowth) Name() string { return "cfpgrowth-par" }

// Mine implements mine.Miner. Emission order is nondeterministic, but
// the emitted set is identical to the serial miner's.
//
// Error semantics: the first failure anywhere — a sink error, a
// canceled context, a blown budget — stops the shared Control, and
// every worker observes it before taking its next job and before its
// next emission, so surviving workers neither drain the remaining job
// queue nor emit further itemsets; the error returned is always that
// first failure, even when several workers fail concurrently.
func (g ParallelGrowth) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	ctl := g.Ctl
	if ctl == nil {
		ctl = &mine.Control{}
	}
	if err := ctl.Err(); err != nil {
		return err
	}
	if g.Rec != nil {
		// One sample per Mine call: the per-query latency a serving
		// layer reports (time.Now() binds at the defer, so the sample
		// covers the whole call on every return path).
		defer g.Rec.ObserveSince(obs.HistQuery, time.Now())
	}
	// The caller's tracker needs a mutex under concurrent workers; the
	// recorder is atomic and is teed in unsynchronized.
	var track mine.MemTracker
	if g.Track != nil {
		track = &mine.SyncTracker{Inner: g.Track}
	}
	track = ObservedTracker(track, g.Rec)
	tree, _, err := Build(src, minSupport, g.Config, ctl, track, g.Rec)
	if err != nil {
		return err
	}
	n := tree.NumItems()
	if n == 0 {
		// Nothing is frequent: retire the empty tree, nothing to mine.
		track.Free(tree.Extent())
		return nil
	}
	treeBytes := tree.Extent()
	sp := g.Rec.Start(obs.PhaseConvert)
	arr, err := ConvertCtl(tree, ctl)
	tree.arena.Reset()
	track.Free(treeBytes)
	if err != nil {
		sp.End()
		return err
	}
	track.Alloc(arr.Bytes())
	sp.End()

	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	numShards := g.Shards
	if numShards <= 0 {
		numShards = workers
	}
	if numShards > n {
		numShards = n
	}
	// Deterministic shard seeds: ranks in descending order (least
	// frequent items, with the deepest pattern bases, lead for load
	// balance), dealt round-robin across the shards. The assignment
	// never depends on map iteration or scheduling order.
	shards := make([][]int, numShards)
	per := (n + numShards - 1) / numShards
	for s := range shards {
		shards[s] = make([]int, 0, per)
	}
	for i := 0; i < n; i++ {
		shards[i%numShards] = append(shards[i%numShards], n-1-i)
	}
	// One private recorder per shard: workers attribute structure
	// counters to the shard that owns the item, not to the goroutine
	// that happened to steal it, and the post-pool merge below runs in
	// shard order — the run's counter attribution is reproducible.
	var shardRecs []*obs.Recorder
	if g.Rec != nil {
		shardRecs = make([]*obs.Recorder, numShards)
		for s := range shardRecs {
			shardRecs[s] = obs.New(nil)
		}
	}
	// The ControlSink sits inside the SyncSink, so the stopped check
	// and the emission are atomic under the sink mutex: after the first
	// failing emission stops the Control, no later emission from any
	// worker can reach the caller's sink.
	ssink := &mine.SyncSink{Inner: &mine.ControlSink{Inner: sink, Ctl: ctl}}
	growers := make([]*cfpGrower, workers)
	for w := range growers {
		growers[w] = &cfpGrower{
			cfg:       g.Config,
			minSup:    max(minSupport, 1),
			maxLen:    g.MaxLen,
			sink:      ssink,
			track:     track,
			ctl:       ctl,
			treeArena: arena.New(),
		}
	}
	// One mine span covers the whole worker pool: per-conditional
	// spans would swamp the trace, and the pool's wall time is the
	// phase the paper plots.
	sp = g.Rec.Start(obs.PhaseMine)
	// One shared flat decoding of the initial array serves every
	// worker read-only; each worker decodes its own conditional
	// arrays privately.
	// The decode's footprint is charged through an unconditional
	// Alloc/Free pair (zero when the decode is unavailable) so the
	// charge and its release pair up on every path.
	var topDec *Decode
	var topDecBytes int64
	if !g.Config.DisableFlatDecode {
		topDec = new(Decode)
		if topDec.From(arr) {
			topDecBytes = topDec.Bytes()
		} else {
			topDec = nil
		}
	}
	track.Alloc(topDecBytes)
	// Pool accounting (jobs, steals, busy/idle) is collected whenever a
	// recorder is attached; the per-job clock reads are noise against
	// whole conditional subproblems.
	var pool *mine.ShardMetrics
	if g.Rec != nil {
		pool = mine.NewShardMetrics(workers, shards)
	}
	tracing := g.Rec.Tracing()
	err = mine.RunShardedObserved(workers, shards, ctl, pool, func(worker, shard, rank int) error {
		m := growers[worker]
		if shardRecs != nil {
			m.rec = shardRecs[shard]
		}
		if tracing {
			// One child span per top-level item: the trace's
			// hierarchical detail under the single mine phase span,
			// attributed to the executing worker's ring.
			csp := g.Rec.StartChild(sp, "mine-item").WithWorker(worker).
				With("shard", int64(shard)).With("rank", int64(rank))
			err := m.mineTopItem(arr, topDec, uint32(rank&0xffffffff))
			csp.End()
			return err
		}
		return m.mineTopItem(arr, topDec, uint32(rank&0xffffffff))
	})
	track.Free(topDecBytes)
	track.Free(arr.Bytes())
	sp.End()
	for _, sr := range shardRecs {
		g.Rec.Merge(sr)
	}
	FoldPoolMetrics(g.Rec, pool)
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
