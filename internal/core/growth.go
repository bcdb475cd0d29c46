package core

import (
	"math"
	"slices"
	"time"
	"unsafe"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Growth is the CFP-growth miner: FP-growth running on the CFP-tree in
// every build phase and the CFP-array in every mine phase. There is
// exactly one CFP-tree alive at any moment (it is discarded right after
// conversion, and its arena is recycled, §3.5/§4.1), while CFP-arrays
// stack up along the recursion.
//
// With Workers set, the mine phase is sharded across the initial
// CFP-array's top-level items, the natural task decomposition of
// FP-growth's divide and conquer (the paper's related-work class (4),
// §5). The build and conversion stay single-threaded (the build is
// I/O-bound per §4.1); a work-stealing pool (mine.RunSharded) then
// mines whole conditional subproblems, each worker with a private tree
// arena and decode stack. Workers share only the read-only initial
// CFP-array, its read-only flat decoding, and the (synchronized) sink.
type Growth struct {
	// Config tunes the CFP-tree compression features (ablations).
	Config Config
	// Workers is the number of mining goroutines. Zero mines on the
	// calling goroutine, reusing the build tree's arena, with no pool.
	Workers int
	// Shards is the number of work-stealing partitions the top-level
	// items are divided into when Workers is set (0 = one per worker).
	// Shard seeds are assigned round-robin in descending rank order, so
	// the shard-to-item mapping — and with it per-shard observability
	// attribution — is a pure function of (items, Shards), never of
	// scheduling order.
	Shards int
	// Track observes modeled memory consumption; nil disables tracking.
	// Under Workers it is synchronized internally.
	Track mine.MemTracker
	// MaxLen, when positive, prunes the search at itemsets of that
	// cardinality: longer itemsets are neither emitted nor explored.
	MaxLen int
	// Ctl, when non-nil, is polled throughout the build, conversion and
	// mining phases: once stopped (cancellation, deadline, budget), the
	// run aborts promptly with the stop cause. Under Workers the miner
	// uses a private Control when none is supplied, so first-error
	// propagation between workers never depends on the caller.
	Ctl *mine.Control
	// Rec, when non-nil, records phase spans, structure counters, and
	// modeled-byte gauges for the run (nil disables all observability
	// at the cost of one nil check per instrumentation site).
	Rec *obs.Recorder
}

// Name implements mine.Miner.
func (g Growth) Name() string {
	if g.Workers > 0 {
		return "cfpgrowth-par"
	}
	return "cfpgrowth"
}

// Mine implements mine.Miner. Under Workers emission order is
// nondeterministic, but the emitted set is identical to the serial
// miner's, and the first failure anywhere — a sink error, a canceled
// context, a blown budget — stops every worker before its next job and
// its next emission and is the error returned.
func (g Growth) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	ctl, track := g.Ctl, ObservedTracker(g.Track, g.Rec)
	if g.Workers > 0 {
		if ctl == nil {
			ctl = &mine.Control{}
		}
		// The caller's tracker needs a mutex under concurrent workers.
		// It covers the teed recorder too, so both see one allocation
		// order and their high-water marks agree; a lone recorder is
		// atomic and needs none.
		if g.Track != nil {
			track = &mine.SyncTracker{Inner: track}
		}
	}
	if err := ctl.Err(); err != nil {
		return err
	}
	if g.Rec != nil {
		// One sample per Mine call: the per-query latency distribution
		// (time.Now() binds at the defer, covering every return path).
		defer g.Rec.ObserveSince(obs.HistQuery, time.Now())
	}
	tree, _, err := Build(src, minSupport, g.Config, ctl, track, g.Rec)
	if err != nil {
		return err
	}
	m := &cfpGrower{
		cfg:    g.Config,
		minSup: max(minSupport, 1),
		maxLen: g.MaxLen,
		sink:   sink,
		track:  track,
		ctl:    ctl,
		rec:    g.Rec,
	}
	if g.Workers <= 0 {
		// The calling goroutine is the only worker: it recycles the
		// build tree's arena, so one CFP-tree arena serves the whole
		// run. Pool workers get private arenas, and the build arena is
		// left to the collector.
		m.treeArena = tree.arena
	}
	// The build charged the tree inside its span; every charge below
	// sits inside the span whose phase owns the transition, so
	// per-phase byte deltas reflect the structures the phase
	// materializes and retires.
	treeBytes := tree.Extent()
	if tree.NumItems() == 0 {
		// Nothing is frequent: retire the empty tree, nothing to mine.
		track.Free(treeBytes)
		return nil
	}
	if path, ok := tree.SinglePath(); ok {
		sp := g.Rec.Start(obs.PhaseMine)
		tree.arena.Reset()
		track.Free(treeBytes)
		err := m.minePath(tree, path, nil)
		sp.End()
		return err
	}
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
	// One mine span covers the whole run, pool included: per-item spans
	// would swamp the aggregates, and the mine wall time is the phase
	// the paper plots.
	sp = g.Rec.Start(obs.PhaseMine)
	err = m.mineTop(arr, AllRanks(arr), g.Workers, g.Shards, sp)
	track.Free(arr.Bytes())
	sp.End()
	return err
}

// FoldTreeCounters folds a finished tree's composition into the run
// counters before it is converted and recycled; four atomic adds.
func FoldTreeCounters(rec *obs.Recorder, t *Tree) {
	if rec == nil {
		return
	}
	std, chains, embedded := t.PhysNodes()
	rec.Add(obs.CtrStdNodes, int64(std))
	rec.Add(obs.CtrChainNodes, int64(chains))
	rec.Add(obs.CtrEmbeddedLeaves, int64(embedded))
	rec.Add(obs.CtrLogicalNodes, int64(t.NumNodes()))
}

// ObservedTracker composes a caller-supplied tracker with an
// observability recorder so one allocation stream feeds both; either
// side may be nil, and the result never is.
func ObservedTracker(track mine.MemTracker, rec *obs.Recorder) mine.MemTracker {
	switch {
	case rec == nil && track == nil:
		return mine.NullTracker{}
	case rec == nil:
		return track
	case track == nil:
		return rec
	default:
		return &mine.TeeTracker{A: track, B: rec}
	}
}

// AllRanks returns every item rank of a, least frequent first: the
// order CFP-growth's own top level mines in.
func AllRanks(a *Array) []uint32 {
	ranks := make([]uint32, a.NumItems())
	var rk uint32
	for i := len(ranks) - 1; i >= 0; i-- {
		ranks[i] = rk
		rk++
	}
	return ranks
}

// MineArrayItems mines the given top-level item ranks of an
// already-materialized CFP-array (built, or deserialized with
// ReadArray) at any minimum support not below the one the array was
// built with: for each rank it emits the singleton and recurses into
// its conditional subproblem. Passing AllRanks mines the whole array
// exactly as Growth's own top level does; this is the
// persistent-index entry point, with the build phase skipped entirely.
// Passing a subset is the building block of partitioned mining
// (PFP-style group-dependent shards): an itemset's support in a shard
// is exact precisely when its least frequent item belongs to the
// shard's group, so each shard mines exactly its group's ranks. ctl,
// when non-nil, makes the recursion abort promptly once stopped. rec,
// when non-nil, receives the recursion's counters and byte gauges;
// pass track and rec separately (they are teed internally).
func MineArrayItems(a *Array, cfg Config, minSupport uint64, sink mine.Sink, track mine.MemTracker, maxLen int, ranks []uint32, ctl *mine.Control, rec *obs.Recorder) error {
	m := &cfpGrower{
		cfg:       cfg,
		minSup:    max(minSupport, 1),
		maxLen:    maxLen,
		sink:      sink,
		track:     ObservedTracker(track, rec),
		ctl:       ctl,
		rec:       rec,
		treeArena: arena.New(),
	}
	return m.mineTop(a, ranks, 0, 0, obs.Span{})
}

// mineTop is CFP-growth's one top level: it mines the given ranks of
// the initial CFP-array a, each through mineRank. One flat decoding of
// a serves every rank. With workers == 0 the ranks are mined in order
// on the calling goroutine by m itself; otherwise they are sharded
// across a work-stealing pool (minePool), m's decoding shared
// read-only, with sp the open mine span the per-item trace spans hang
// under.
func (m *cfpGrower) mineTop(a *Array, ranks []uint32, workers, shards int, sp obs.Span) error {
	d := m.acquireDecode(a)
	defer m.releaseDecode(d)
	if workers > 0 {
		return m.minePool(a, d, ranks, workers, shards, sp)
	}
	for _, rk := range ranks {
		if err := m.ctl.Err(); err != nil {
			return err
		}
		if err := m.mineRank(a, d, rk, nil); err != nil {
			return err
		}
	}
	return nil
}

// cfpGrower carries the recursion state of CFP-growth.
type cfpGrower struct {
	cfg       Config
	minSup    uint64
	maxLen    int
	sink      mine.Sink
	track     mine.MemTracker
	ctl       *mine.Control // nil = never canceled
	rec       *obs.Recorder // nil = no observability
	treeArena *arena.Arena  // one CFP-tree at a time (§4.1)
	emitBuf   []uint32
	pathBuf   []uint32
	// decodeFree recycles flat decodings across sibling subproblems:
	// each recursion level owns one Decode for the CFP-array it is
	// mining, taken from (and returned to) this stack, so the number
	// of live decodings equals the recursion depth — mirroring the
	// stack of CFP-arrays themselves.
	decodeFree []*Decode
	// laneBufs are the per-lane path accumulators of the interleaved
	// ancestor walk (one per in-flight chase).
	laneBufs [walkLanes][]uint32
	// runSup holds the counts of the run whose conditional is being
	// built (Array.runCounts); the flat decoding stores none.
	runSup []uint32
}

// walkLanes is the number of independent ancestor chases the pattern
// base walk keeps in flight. A pointer chase is a serial chain of
// cache misses, so a single walk leaves the memory system idle between
// steps; interleaving N independent walks overlaps their misses and
// multiplies throughput by nearly N until it saturates the machine's
// miss-level parallelism (~10 outstanding misses on current cores).
// Measured on the quest benchmarks: 8 lanes walk the same pattern
// bases ~11x faster than one.
const walkLanes = 8

// acquireDecode returns a flat decoding of a charged against the byte
// ledger, or nil when flat decoding is disabled (Config ablation), the
// array exceeds the flat index space, or the decoding would not fit
// the byte budget's headroom; a nil decode makes the growers below
// fall back to byte-at-a-time traversal, which needs no memory beyond
// the array itself.
func (m *cfpGrower) acquireDecode(a *Array) *Decode {
	if m.cfg.DisableFlatDecode {
		return nil
	}
	if c := m.ctl; c != nil && c.MaxBytes > 0 && c.Bytes()+decodeBytes(a.NumNodes(), a.NumItems()) > c.MaxBytes {
		return nil
	}
	var d *Decode
	if n := len(m.decodeFree); n > 0 {
		d = m.decodeFree[n-1]
		m.decodeFree = m.decodeFree[:n-1]
	} else {
		d = new(Decode)
	}
	if !d.From(a) {
		m.decodeFree = append(m.decodeFree, d)
		return nil
	}
	m.track.Alloc(d.Bytes())
	return d
}

// releaseDecode returns a decode obtained from acquireDecode to the
// free stack and releases its ledger charge; nil is a no-op.
func (m *cfpGrower) releaseDecode(d *Decode) {
	if d == nil {
		return
	}
	m.track.Free(d.Bytes())
	m.decodeFree = append(m.decodeFree, d)
}

// emit sorts prefix into ascending identifier order and forwards it
// to the sink.
//
//cfplint:hot
func (m *cfpGrower) emit(prefix []uint32, support uint64) error {
	if err := m.ctl.Err(); err != nil {
		return err
	}
	m.emitBuf = append(m.emitBuf[:0], prefix...)
	slices.Sort(m.emitBuf)
	if err := m.sink.Emit(m.emitBuf, support); err != nil {
		return err
	}
	// Counted only after a successful delivery, so the counter always
	// equals the number of itemsets the sink observed — also under
	// mid-run cancellation.
	m.rec.Add(obs.CtrItemsets, 1)
	return nil
}

// mineTree converts a freshly built conditional CFP-tree into a
// CFP-array and mines it. Single-path trees are enumerated directly,
// skipping conversion. In all cases the tree arena is released (reset)
// before recursing, so at most one tree is ever alive.
func (m *cfpGrower) mineTree(t *Tree, prefix []uint32) error {
	if m.rec != nil {
		// Fold this tree's composition into the run counters before it
		// is converted and recycled, and time the whole conditional
		// subproblem (this tree's conversion plus its entire recursion)
		// into the per-conditional-mine latency histogram. The deferred
		// sample covers error returns too; a disabled recorder pays
		// exactly this one nil check.
		FoldTreeCounters(m.rec, t)
		m.rec.Add(obs.CtrCondTrees, 1)
		m.rec.ObserveDepth(len(prefix))
		defer m.rec.ObserveSince(obs.HistCondMine, time.Now())
	}
	treeBytes := t.Extent()
	m.track.Alloc(treeBytes)
	if path, ok := t.SinglePath(); ok {
		m.treeArena.Reset()
		m.track.Free(treeBytes)
		return m.minePath(t, path, prefix)
	}
	arr, err := ConvertCtl(t, m.ctl)
	m.treeArena.Reset()
	m.track.Free(treeBytes)
	if err != nil {
		return err
	}
	m.track.Alloc(arr.Bytes())
	err = m.mineArray(arr, prefix)
	m.track.Free(arr.Bytes())
	return err
}

// minePath enumerates a single-path tree: every non-empty subset of the
// path is frequent with support equal to the full count of its deepest
// node; full counts along a path are suffix sums of the pcounts.
func (m *cfpGrower) minePath(t *Tree, path []PathNode, prefix []uint32) error {
	if len(path) == 0 {
		return nil
	}
	counts := make([]uint64, len(path))
	var acc uint64
	for i := len(path) - 1; i >= 0; i-- {
		acc += uint64(path[i].Pcount)
		counts[i] = acc
	}
	names := t.itemName
	var rec func(i int, prefix []uint32) error
	rec = func(i int, prefix []uint32) error {
		if m.maxLen > 0 && len(prefix) >= m.maxLen {
			return nil
		}
		for j := i; j < len(path); j++ {
			if counts[j] < m.minSup {
				// Counts are non-increasing with depth.
				return nil
			}
			prefix = append(prefix, names[path[j].Rank])
			if err := m.emit(prefix, counts[j]); err != nil {
				return err
			}
			if err := rec(j+1, prefix); err != nil {
				return err
			}
			prefix = prefix[:len(prefix)-1]
		}
		return nil
	}
	return rec(0, prefix)
}

// mineArray runs the divide-and-conquer over a conditional CFP-array:
// every item, from least to most frequent, goes through mineRank. The
// array is flat-decoded once up front; every conditional pattern base
// at this level walks the decoding instead of re-chasing varints
// through the byte region.
//
//cfplint:hot
func (m *cfpGrower) mineArray(a *Array, prefix []uint32) error {
	d := m.acquireDecode(a)
	ni := int64(a.NumItems())
	if debugChecks {
		assertf(ni <= math.MaxUint32, "core: item count %d overflows rank space", ni)
	}
	// Room for this level's item, so sibling ranks extend prefix in
	// place instead of each reallocating it.
	prefix = slices.Grow(prefix, 1)
	var err error
	for rk := ni - 1; rk >= 0 && err == nil; rk-- {
		if err = m.ctl.Err(); err == nil {
			err = m.mineRank(a, d, uint32(rk), prefix)
		}
	}
	m.releaseDecode(d)
	return err
}

// mineRank is the one per-item step of CFP-growth, shared by the top
// level (mineTop) and the recursion (mineArray): emit prefix extended
// by rank's item, then build rank's conditional CFP-tree and recurse
// into it. d is the flat decoding of a (read-only, so pool workers may
// share the top-level one), or nil to fall back to byte-at-a-time
// traversal.
//
//cfplint:hot
func (m *cfpGrower) mineRank(a *Array, d *Decode, rank uint32, prefix []uint32) error {
	if a.Nodes(rank) == 0 {
		return nil
	}
	sup := a.Support(rank)
	if sup < m.minSup {
		return nil
	}
	prefix = append(prefix, a.ItemName(rank))
	if err := m.emit(prefix, sup); err != nil {
		return err
	}
	if rank == 0 || (m.maxLen > 0 && len(prefix) >= m.maxLen) {
		return nil
	}
	cond := m.conditional(a, d, rank)
	if cond == nil {
		return nil
	}
	return m.mineTree(cond, prefix)
}

// conditional builds the conditional CFP-tree of item rank. With a
// flat decoding it walks decoded parent indexes; without one (ablation
// or oversized array) it falls back to the byte-chasing traversal.
// Returns nil when no conditional item is frequent.
func (m *cfpGrower) conditional(a *Array, d *Decode, rank uint32) *Tree {
	if d == nil {
		return m.conditionalScan(a, rank)
	}
	return m.conditionalFlat(a, d, rank)
}

// anyFrequent reports whether some conditional support reaches the
// minimum support, i.e. whether a conditional tree is worth building.
func (m *cfpGrower) anyFrequent(condCount []uint64) bool {
	for _, c := range condCount {
		if c >= m.minSup {
			return true
		}
	}
	return false
}

// conditionalFlat builds the conditional CFP-tree of item rank from
// the flat decoding in two interleaved walks over the rank's run: a
// pure counting chase accumulating conditional supports, and — only
// when something is conditionally frequent — a second chase that
// collects each element's already-filtered path and inserts it into
// the conditional tree at lane completion. Infrequent ranks (the
// common case at low supports, and the owners of the deepest pattern
// bases) pay for exactly one bare chase and materialize nothing. The
// run's counts are decoded once up front into the grower's runSup,
// charged to the ledger until the conditional is built.
//
//cfplint:hot
func (m *cfpGrower) conditionalFlat(a *Array, d *Decode, rank uint32) *Tree {
	m.runSup = a.runCounts(rank, m.runSup)
	supBytes := int64(len(m.runSup)) * 4
	m.track.Alloc(supBytes)
	defer m.track.Free(supBytes)
	condCount := make([]uint64, rank)
	lo, hi := d.Run(rank)
	if d.wide {
		condCounts(d.walkW, m.runSup, lo, hi, condCount)
	} else {
		condCounts(d.walk, m.runSup, lo, hi, condCount)
	}
	if !m.anyFrequent(condCount) {
		return nil
	}
	m.treeArena.Reset()
	// Presize the arena from the decoded run length: the tree holds at
	// most one path per run element, filtered paths are short at a few
	// bytes per logical node, and the reservation (retained across
	// resets) saves the grow-and-copy ramp on large conditionals.
	rn := hi - lo
	if debugChecks {
		assertf(rn >= 0, "core: inverted run bounds for rank %d", rank)
	}
	m.treeArena.Reserve(uint64(rn)*16 + 64)
	cond := NewTree(m.treeArena, m.cfg, a.itemName[:rank], condCount)
	cond.Observe(m.rec)
	if d.wide {
		insertBase(m, d.walkW, m.runSup, lo, hi, condCount, cond)
	} else {
		insertBase(m, d.walk, m.runSup, lo, hi, condCount, cond)
	}
	if cond.NumNodes() == 0 {
		return nil
	}
	return cond
}

// walkWord is a packed walk element of a Decode: the parent index in
// the high bits above the item rank — uint32 with 8 rank bits for the
// small layout, uint64 with 32 for the wide one. The chases below
// derive the rank width and root sentinel from W's size, so both fold
// to constants in each instantiation.
type walkWord interface{ uint32 | uint64 }

// condCounts accumulates the conditional item supports of the pattern
// base in run [lo, hi) of walk: for every element i of the run, every
// ancestor's rank receives the element's count sup[i-lo].
//
// The chase keeps walkLanes independent walks in flight: each lane
// owns one element, advances one ancestor step per round, and on
// reaching the root takes the next element. A pointer chase is a
// serial chain of cache misses, so a single walk leaves the memory
// system idle between steps; interleaving N independent walks overlaps
// their misses and multiplies throughput by nearly N until it
// saturates the machine's miss-level parallelism (~10 outstanding
// misses on current cores — measured ~11x with 8 lanes on the quest
// pattern bases). A lane's current pointer doubles as its state: a
// real index mid-chase, the layout's root sentinel between elements,
// one past it once the run is exhausted.
//
//cfplint:hot
func condCounts[W walkWord](walk []W, sup []uint32, lo, hi int32, condCount []uint64) {
	rankBits, root := uint(8), W(smallRoot)
	if unsafe.Sizeof(root) == 8 {
		rankBits, root = 32, W(uint64(wideRoot))
	}
	rankMask := W(1)<<rankBits - 1
	var cur [walkLanes]W
	var cnt [walkLanes]uint64
	for l := range cur {
		cur[l] = root
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p >= root {
				if p > root {
					continue // lane retired, run exhausted
				}
				if i < hi {
					cur[l] = walk[i] >> rankBits
					cnt[l] = uint64(sup[i-lo])
					i++
					alive = true
				} else {
					cur[l] = root + 1
				}
				continue
			}
			w := walk[p]
			condCount[w&rankMask] += cnt[l]
			cur[l] = w >> rankBits
			alive = true
		}
		if !alive {
			break
		}
	}
}

// insertBase re-walks the pattern base in run [lo, hi) of walk and
// inserts every non-empty conditionally-frequent path into cond, with
// counts sup indexed from lo as in condCounts. Lanes
// accumulate already-filtered ancestor ranks nearest-first; a completed
// lane reverses its path root-first into the shared path buffer and
// inserts it with the owning element's count, then takes the next
// element. Insertion order is the deterministic lane-completion order,
// which is a pure function of the decoding (tree content is
// insertion-order independent).
//
//cfplint:hot
func insertBase[W walkWord](m *cfpGrower, walk []W, sup []uint32, lo, hi int32, condCount []uint64, cond *Tree) {
	rankBits, root := uint(8), W(smallRoot)
	if unsafe.Sizeof(root) == 8 {
		rankBits, root = 32, W(uint64(wideRoot))
	}
	rankMask := W(1)<<rankBits - 1
	minSup := m.minSup
	var cur [walkLanes]W
	var own [walkLanes]int32
	for l := range cur {
		cur[l] = root
		own[l] = -1
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p >= root {
				if p > root {
					continue // lane retired, run exhausted
				}
				if own[l] >= 0 && len(m.laneBufs[l]) > 0 {
					seg := m.laneBufs[l]
					buf := m.pathBuf[:0]
					for j := len(seg) - 1; j >= 0; j-- {
						buf = append(buf, seg[j])
					}
					m.pathBuf = buf
					cond.Insert(buf, sup[own[l]-lo])
				}
				if i < hi {
					cur[l] = walk[i] >> rankBits
					own[l] = i
					m.laneBufs[l] = m.laneBufs[l][:0]
					i++
					alive = true
				} else {
					cur[l] = root + 1
					own[l] = -1
				}
				continue
			}
			w := walk[p]
			if r := uint32(w & rankMask); condCount[r] >= minSup {
				m.laneBufs[l] = append(m.laneBufs[l], r)
			}
			cur[l] = w >> rankBits
			alive = true
		}
		if !alive {
			break
		}
	}
}

// conditionalScan is the byte-chasing reference construction of the
// conditional CFP-tree: two sequential scans of the rank's subarray,
// each walking parent paths backward a varint at a time. It is kept as
// the Config.DisableFlatDecode ablation and as the fallback for arrays
// past the flat index space; differential tests hold it and
// conditionalFlat to identical trees.
//
//cfplint:hot
func (m *cfpGrower) conditionalScan(a *Array, rank uint32) *Tree {
	condCount := make([]uint64, rank)
	a.ScanItem(rank, func(e Element) bool {
		m.pathBuf = a.PathTo(e, m.pathBuf[:0])
		for _, ar := range m.pathBuf {
			condCount[ar] += e.Count
		}
		return true
	})
	if !m.anyFrequent(condCount) {
		return nil
	}
	m.treeArena.Reset()
	cond := NewTree(m.treeArena, m.cfg, a.itemName[:rank], condCount)
	cond.Observe(m.rec)
	a.ScanItem(rank, func(e Element) bool {
		m.pathBuf = a.PathTo(e, m.pathBuf[:0])
		// PathTo yields ranks nearest-first; reverse to root-first,
		// then insert the conditionally frequent items.
		for i, j := 0, len(m.pathBuf)-1; i < j; i, j = i+1, j-1 {
			m.pathBuf[i], m.pathBuf[j] = m.pathBuf[j], m.pathBuf[i]
		}
		m.insertFiltered(cond, m.pathBuf, condCount, e.Count)
		return true
	})
	if cond.NumNodes() == 0 {
		return nil
	}
	return cond
}

// insertFiltered filters the root-first path in place to its
// conditionally frequent items and, if any remain, inserts them into
// cond with count c.
func (m *cfpGrower) insertFiltered(cond *Tree, path []uint32, condCount []uint64, c uint64) {
	w := 0
	for _, it := range path {
		if condCount[it] >= m.minSup {
			path[w] = it
			w++
		}
	}
	if w > 0 {
		if debugChecks {
			assertf(c <= math.MaxUint32, "core: path count %d overflows uint32", c)
		}
		cond.Insert(path[:w], uint32(c&0xffffffff))
	}
}
