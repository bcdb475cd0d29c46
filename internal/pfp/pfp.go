// Package pfp implements partitioned CFP-growth in the style of PFP
// (Li et al., "PFP: Parallel FP-Growth for Query Recommendation",
// RecSys 2008), the approach the paper cites in related-work class (4)
// (§5). The frequent items are divided into groups; the database is
// re-sharded into "group-dependent transactions" — for each group, the
// longest transaction prefix ending at one of the group's items — and
// each shard is mined independently. An itemset's support is exact in
// the shard of its least frequent item's group, so each shard emits
// only its own group's itemsets and the union is exact and duplicate
// free.
//
// Shards are spilled to temporary files in a delta-varint binary
// format, so only one shard's CFP structures are in memory at a time
// (per worker): the scheme doubles as the out-of-core processing of
// related-work class (3), with sequential shard IO instead of random
// page faults.
package pfp

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Miner is the partitioned miner.
type Miner struct {
	// Groups is the number of item groups / shards (default 8).
	Groups int
	// Workers is the number of shards mined concurrently (default 1,
	// the pure out-of-core configuration).
	Workers int
	// TempDir receives the shard spill files (default os.TempDir()).
	TempDir string
	// Config tunes the per-shard CFP-trees.
	Config core.Config
	// Ctl, when non-nil, is the run's cancellation/budget point and byte
	// ledger; a private one is used otherwise so first-error propagation
	// between workers never depends on the caller wiring one up.
	Ctl *mine.Control
	// Rec, when non-nil, records phase spans (the shard pass appears
	// as "shard") and per-shard structure counters, shared by all
	// workers; its byte gauges read the run's ledger.
	Rec *obs.Recorder
}

// Name implements mine.Miner.
func (Miner) Name() string { return "pfp" }

// Mine implements mine.Miner. Emission order is nondeterministic when
// Workers > 1. As in core.Growth's worker pool, the first failure stops
// every worker before its next shard and before its next emission, and
// is the error returned.
func (m Miner) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	ctl := m.Ctl
	if ctl == nil {
		ctl = &mine.Control{}
	}
	if err := ctl.Err(); err != nil {
		return err
	}
	defer m.Rec.Bind(ctl)()
	if m.Rec != nil {
		// One sample per Mine call into the per-query latency histogram
		// (time.Now() binds at the defer, covering every return path).
		defer m.Rec.ObserveSince(obs.HistQuery, time.Now())
	}
	sp := m.Rec.Start(obs.PhasePass1)
	counts, err := dataset.CountItems(src)
	sp.End()
	if err != nil {
		return err
	}
	minSupport = max(minSupport, 1)
	rec := dataset.NewRecoder(counts, minSupport)
	n := rec.NumFrequent()
	if n == 0 {
		return nil
	}
	groups := m.Groups
	if groups <= 0 {
		groups = 8
	}
	groups = min(groups, n)
	dir, err := os.MkdirTemp(m.TempDir, "pfp-shards-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Shard pass: write group-dependent transactions.
	shards := make([]*shardWriter, groups)
	defer func() {
		for _, sw := range shards {
			if sw != nil {
				sw.close()
			}
		}
	}()
	for g := range shards {
		sw, err := newShardWriter(filepath.Join(dir, fmt.Sprintf("shard-%04d.bin", g)))
		if err != nil {
			return err
		}
		shards[g] = sw
	}
	var buf []uint32
	sp = m.Rec.Start(obs.PhaseShard)
	err = scanShards(src, rec, shards, groups, ctl, &buf)
	sp.End()
	if err != nil {
		return err
	}
	for _, sw := range shards {
		if err := sw.flush(); err != nil {
			return err
		}
	}

	// Mining pass: per shard, build a CFP-tree over the global rank
	// space, convert, and mine only the group's ranks.
	itemName, _ := rec.Frequent()
	workers := min(max(m.Workers, 1), groups)
	// ControlSink inside SyncSink: the stopped check and the emission
	// are atomic under the sink mutex, so nothing is emitted after the
	// first failure even with several workers in flight.
	var ssink mine.Sink = &mine.ControlSink{Inner: sink, Ctl: ctl}
	if workers > 1 {
		ssink = &mine.SyncSink{Inner: ssink}
	}
	// Singleton work-stealing shards: each group is its own partition,
	// so worker w leads with group w and steals whole groups in ring
	// order once its own is drained. RunSharded supplies the
	// first-error-wins stop semantics the old channel pool had.
	jobs := make([][]int, groups)
	for g := 0; g < groups; g++ {
		jobs[g] = []int{g}
	}
	arenas := make([]*arena.Arena, workers)
	for w := range arenas {
		arenas[w] = arena.New()
	}
	// One private recorder per group, folded into the run's in group
	// order once the pool has drained: a group's counters do not
	// depend on the worker that mined it. It is bound to no ledger: the
	// run's recorder reads the run's.
	var groupRecs []*obs.Recorder
	var pool *mine.ShardMetrics
	if m.Rec != nil {
		groupRecs = make([]*obs.Recorder, groups)
		for g := range groupRecs {
			groupRecs[g] = obs.New(nil)
		}
		// Pool accounting (jobs, whole-group steals, busy/idle).
		pool = mine.NewShardMetrics(workers, jobs)
	}
	// One mine span covers the whole worker pool, as in core.Growth's
	// pool; with a trace buffer attached each group's mine becomes one
	// child span under it.
	sp = m.Rec.Start(obs.PhaseMine)
	defer sp.End()
	err = mine.RunSharded(workers, jobs, ctl, pool, func(worker, _, g int) error {
		shard := core.Growth{Config: m.Config, Ctl: ctl}
		if groupRecs != nil {
			shard.Rec = groupRecs[g]
		}
		csp := m.Rec.StartChild(sp, "mine-group").WithWorker(worker).With("group", int64(g))
		err := m.mineShard(shards[g].path, g, groups, n, itemName, minSupport, ssink, shard, arenas[worker])
		csp.End()
		return err
	})
	for _, gr := range groupRecs {
		m.Rec.Merge(gr)
	}
	core.FoldPoolMetrics(m.Rec, pool)
	return err
}

// mineShard reads one shard file, builds its CFP-tree in a, charged to
// g's ledger, and mines the group's ranks with g's array mine, whose
// conditional trees reuse a.
func (m Miner) mineShard(path string, group, groups, numItems int, itemName []uint32, minSup uint64, sink mine.Sink, g core.Growth, a *arena.Arena) error {
	a.Reset()
	tree := core.NewTree(a, m.Config, itemName)
	tree.Observe(g.Rec)
	if err := scanShard(path, func(tx []uint32) error {
		if err := g.Ctl.Err(); err != nil {
			return err
		}
		tree.Insert(tx, 1)
		return nil
	}); err != nil {
		return err
	}
	if tree.NumNodes() == 0 {
		return nil
	}
	core.FoldTreeCounters(g.Rec, tree)
	g.Ctl.Alloc(tree.Extent())
	var ranks []uint32
	for rk := numItems - 1; rk >= 0; rk-- {
		if rk%groups == group {
			ranks = append(ranks, uint32(rk))
		}
	}
	// The shard's conversion runs inside the pool's mine span, so it
	// takes no convert span of its own.
	return g.MineTree(tree, minSup, ranks, sink)
}

// scanShards runs the sharding pass: for each transaction and each
// group, the longest prefix ending at one of the group's items is
// written to that group's shard.
func scanShards(src dataset.Source, rec *dataset.Recoder, shards []*shardWriter, groups int, ctl *mine.Control, bufp *[]uint32) error {
	return src.Scan(func(tx []dataset.Item) error {
		if err := ctl.Err(); err != nil {
			return err
		}
		buf := rec.Encode(tx, (*bufp)[:0])
		*bufp = buf
		// Walk from the least frequent item; the first time a group is
		// seen, it receives the prefix ending there.
		seen := uint64(0) // bitset over groups (groups ≤ 64 fast path)
		var seenMap map[int]bool
		if groups > 64 {
			seenMap = make(map[int]bool, 8)
		}
		for i := len(buf) - 1; i >= 0; i-- {
			g := int(buf[i]) % groups
			if seenMap != nil {
				if seenMap[g] {
					continue
				}
				seenMap[g] = true
			} else {
				if seen&(1<<g) != 0 {
					continue
				}
				seen |= 1 << g
			}
			if err := shards[g].write(buf[:i+1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// shardWriter spills rank-space transactions in the binary transaction
// encoding (dataset.AppendTx) of their ascending ranks.
type shardWriter struct {
	path string
	f    *os.File
	bw   *bufio.Writer
	buf  []byte
}

func newShardWriter(path string) (*shardWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &shardWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (s *shardWriter) write(ranks []uint32) error {
	s.buf = dataset.AppendTx(s.buf[:0], ranks)
	_, err := s.bw.Write(s.buf)
	return err
}

func (s *shardWriter) flush() error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

func (s *shardWriter) close() {
	_ = s.f.Close()
}

// scanShard streams a shard file's transactions.
func scanShard(path string, fn func(tx []uint32) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var tx []uint32
	for {
		if tx, err = dataset.ReadTx(br, tx); err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("pfp: corrupt shard %s: %w", path, err)
		}
		if err := fn(tx); err != nil {
			return err
		}
	}
}
