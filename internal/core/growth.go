package core

import (
	"encoding/binary"
	"math"
	"math/bits"
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
// conversion, §3.5/§4.1), while CFP-arrays stack up along the
// recursion. The build tree's arena is dropped with it; the conditional
// trees of a serial mine, or of one pool worker, recycle one arena.
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
	// calling goroutine, with no pool.
	Workers int
	// MaxLen, when positive, prunes the search at itemsets of that
	// cardinality: longer itemsets are neither emitted nor explored.
	MaxLen int
	// Ctl, when non-nil, is polled throughout the build, conversion and
	// mining phases: once stopped (cancellation, deadline, budget), the
	// run aborts promptly with the stop cause. It is also the run's byte
	// ledger, charged the modeled memory of every structure the run
	// holds. Under Workers the miner uses a private Control when none is
	// supplied, so first-error propagation between workers never depends
	// on the caller.
	Ctl *mine.Control
	// Rec, when non-nil, records phase spans and structure counters for
	// the run, and Mine binds its byte gauges to Ctl (nil disables all
	// observability at the cost of one nil check per instrumentation
	// site).
	Rec *obs.Recorder
}

// Name implements mine.Miner.
func (g Growth) Name() string {
	if g.Workers > 0 {
		return "cfpgrowth-par"
	}
	return "cfpgrowth"
}

// Mine implements mine.Miner: the build stage (Build), the convert
// stage (Convert) and the array mine (MineArray) over every rank, with
// the array charged from its conversion to the end of the mine span.
// Under Workers emission order is nondeterministic, but the emitted set
// is identical to the serial miner's, and the first failure anywhere —
// a sink error, a canceled context, a blown budget — stops every worker
// before its next job and its next emission and is the error returned.
func (g Growth) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	if err := g.Ctl.Err(); err != nil {
		return err
	}
	if g.Rec != nil {
		// One sample per Mine call: the per-query latency distribution
		// (time.Now() binds at the defer, covering every return path).
		defer g.Rec.ObserveSince(obs.HistQuery, time.Now())
	}
	defer g.Rec.Bind(g.Ctl)()
	tree, _, err := Build(src, minSupport, g.Config, g.Ctl, g.Rec)
	if err != nil {
		return err
	}
	if tree.NumItems() == 0 {
		// Nothing is frequent: retire the empty tree, nothing to mine.
		g.Ctl.Free(tree.Extent())
		return nil
	}
	arr, err := g.Convert(tree)
	if err != nil {
		return err
	}
	// One mine span covers the whole run, pool included: per-item spans
	// would swamp the aggregates, and the mine wall time is the phase
	// the paper plots. The serial mine's conditional trees get a fresh
	// arena: Reset keeps a buffer sized for the build tree, many times
	// the largest conditional's, and the mine would hold it to the end.
	sp := g.Rec.Start(obs.PhaseMine)
	err = g.mineArray(arr, minSupport, AllRanks(arr), sink, sp, arena.New())
	g.Ctl.Free(arr.Bytes())
	sp.End()
	return err
}

// Convert is CFP-growth's convert stage (§3.5, §4.1): inside the
// convert span it turns t, a built tree charged to the ledger, into its
// CFP-array, polling Ctl. The tree is retired before the array is
// charged (convertRetired), so t's arena is free for the next tree. The
// array stays charged; the caller releases it (Free of its Bytes) when
// the run is done with it.
func (g Growth) Convert(t *Tree) (*Array, error) {
	sp := g.Rec.Start(obs.PhaseConvert)
	defer sp.End()
	return convertRetired(t, g.Ctl)
}

// convertRetired converts t, charged to ctl's ledger, into its
// CFP-array and retires t: its arena is reset and its charge released,
// and only then is the array charged, so the ledger never holds both.
// On error nothing stays charged.
func convertRetired(t *Tree, ctl *mine.Control) (*Array, error) {
	treeBytes := t.Extent()
	arr, err := ConvertCtl(t, ctl)
	t.arena.Reset()
	ctl.Free(treeBytes)
	if err != nil {
		return nil, err
	}
	ctl.Alloc(arr.Bytes())
	return arr, nil
}

// MineArray is CFP-growth's array mine: it mines the given top-level
// ranks of a materialized CFP-array (converted, or read with ReadArray)
// at any minimum support not below the one the array was built with,
// emitting each rank's singleton and recursing into its conditional
// subproblem. AllRanks mines the whole array; a subset is a PFP-style
// shard, exact for the itemsets whose least frequent item it holds.
//
// Under Workers the ranks go to a work-stealing pool, with a private
// Control when none is supplied. The array's own charge is the
// caller's.
func (g Growth) MineArray(a *Array, minSupport uint64, ranks []uint32, sink mine.Sink) error {
	return g.mineArray(a, minSupport, ranks, sink, obs.Span{}, arena.New())
}

// MineTree is MineArray over t, a built tree charged to the ledger: t
// is converted without a convert span of its own (the caller's span
// covers it), the given ranks of its array are mined with the
// conditional trees in t's arena, and the array is released.
func (g Growth) MineTree(t *Tree, minSupport uint64, ranks []uint32, sink mine.Sink) error {
	arr, err := convertRetired(t, g.Ctl)
	if err != nil {
		return err
	}
	defer g.Ctl.Free(arr.Bytes())
	return g.mineArray(arr, minSupport, ranks, sink, obs.Span{}, t.arena)
}

// mineArray is MineArray under the open mine span sp, which a pool's
// per-item trace spans hang under, with the serial mine's conditional
// trees in treeArena. One flat decoding of a serves every rank; a pool
// (minePool) shares it read-only.
func (g Growth) mineArray(a *Array, minSupport uint64, ranks []uint32, sink mine.Sink, sp obs.Span, treeArena *arena.Arena) error {
	ctl := g.Ctl
	if g.Workers > 0 {
		if ctl == nil {
			ctl = &mine.Control{}
		}
		// Pool workers get private arenas; the caller's is left to the
		// collector.
		treeArena = nil
	}
	m := &cfpGrower{
		cfg:       g.Config,
		minSup:    max(minSupport, 1),
		maxLen:    g.MaxLen,
		sink:      sink,
		ctl:       ctl,
		rec:       g.Rec,
		treeArena: treeArena,
	}
	d := m.acquireDecode(a)
	defer m.releaseDecode(d)
	if g.Workers > 0 {
		return m.minePool(a, d, ranks, g.Workers, sp)
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

// MineArrayItems is MineArray with the miner's settings as arguments,
// serially, charging ctl's ledger. The fifth argument is accepted and
// ignored, so that callers of the earlier form, which took a separate
// memory tracker there, still compile.
func MineArrayItems(a *Array, cfg Config, minSupport uint64, sink mine.Sink, _ any, maxLen int, ranks []uint32, ctl *mine.Control, rec *obs.Recorder) error {
	return Growth{Config: cfg, MaxLen: maxLen, Ctl: ctl, Rec: rec}.MineArray(a, minSupport, ranks, sink)
}

// cfpGrower carries the recursion state of CFP-growth.
type cfpGrower struct {
	cfg       Config
	minSup    uint64
	maxLen    int
	sink      mine.Sink
	ctl       *mine.Control // nil = never canceled; the byte ledger
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
	// condBuf backs the conditional item supports of the rank being
	// mined (condCount), by the parent's rank. A leaf mined from them
	// retains the slice, but every leaf is emitted before the next
	// conditional at any level reuses the buffer.
	condBuf []uint64
	// condRank maps each conditionally frequent rank of the conditional
	// being built to its dense rank in the conditional tree
	// (compactRanks); it is dead once the tree is built.
	condRank []uint32
	// nameFree recycles the item names of conditional trees, like
	// decodeFree: a tree, and the CFP-array converted from it, retain
	// their names until the conditional's mine returns, so the number of
	// live name buffers equals the recursion depth.
	nameFree [][]uint32
	// pairRow maps each conditionally frequent rank to its row of the
	// leaf test's pair matrix, pairCells (leafVerdict), which the pair
	// batch, pairs, fills; pairVisit is addPath, bound once per grower so
	// a chase allocates no closure.
	pairRow   []uint8
	pairCells []uint64
	pairs     pairBatch
	pairVisit func(path []uint32, c uint64) bool
	// pathSup and pathSet back the full counts of the single path being
	// enumerated (minePath) and the itemsets it extends prefix to; the
	// enumeration emits and never recurses into a conditional.
	pathSup []uint64
	pathSet []uint32
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
	if c := m.ctl; c != nil && c.MaxBytes > 0 && c.Bytes()+decodeBytes(a) > c.MaxBytes {
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
	m.ctl.Alloc(d.Bytes())
	return d
}

// releaseDecode returns a decode obtained from acquireDecode to the
// free stack and releases its ledger charge; nil is a no-op.
func (m *cfpGrower) releaseDecode(d *Decode) {
	if d == nil {
		return
	}
	m.ctl.Free(d.Bytes())
	m.decodeFree = append(m.decodeFree, d)
}

// emit sorts prefix into ascending identifier order and forwards it
// to the sink.
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
	treeBytes := t.Extent()
	m.ctl.Alloc(treeBytes)
	if path, ok := t.SinglePath(); ok {
		m.treeArena.Reset()
		m.ctl.Free(treeBytes)
		return m.minePath(t, path, prefix)
	}
	arr, err := convertRetired(t, m.ctl)
	if err != nil {
		return err
	}
	err = m.mineArray(arr, prefix)
	m.ctl.Free(arr.Bytes())
	return err
}

// mineLeaf mines a leaf conditional (leafVerdict) with no tree: each
// conditionally frequent item extends prefix alone, with its
// conditional support, in descending rank — the order in which the
// conditional's CFP-array mine would emit them.
func (m *cfpGrower) mineLeaf(condCount []uint64, names []uint32, prefix []uint32) error {
	prefix = slices.Grow(prefix, 1)
	for r := len(condCount) - 1; r >= 0; r-- {
		if c := condCount[r]; c >= m.minSup {
			if err := m.emit(append(prefix, names[r]), c); err != nil {
				return err
			}
		}
	}
	return nil
}

// minePath enumerates a single-path tree: every non-empty subset of the
// path is frequent with support equal to the full count of its deepest
// node; full counts along a path are suffix sums of the pcounts.
func (m *cfpGrower) minePath(t *Tree, path []PathNode, prefix []uint32) error {
	if len(path) == 0 {
		return nil
	}
	m.pathSup = resize(m.pathSup, len(path))
	counts := m.pathSup
	var acc uint64
	for i := len(path) - 1; i >= 0; i-- {
		acc += uint64(path[i].Pcount)
		counts[i] = acc
	}
	names := t.itemName
	m.pathSet = slices.Grow(append(m.pathSet[:0], prefix...), len(path))
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
	return rec(0, m.pathSet)
}

// mineArray runs the divide-and-conquer over a conditional CFP-array:
// every item, from least to most frequent, goes through mineRank. The
// array is flat-decoded once up front; every conditional pattern base
// at this level walks the decoding instead of re-chasing varints
// through the byte region.
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
// level (Growth.mineArray) and the recursion (mineArray): emit prefix
// extended by rank's item, then mine rank's conditional, as a leaf
// (mineLeaf) or by building its conditional CFP-tree and recursing into
// it. d is the flat decoding of a (read-only, so pool workers may share
// the top-level one), or nil to fall back to byte-at-a-time traversal.
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
	// At the MaxLen boundary the conditional's itemsets cannot be
	// extended, so it is a leaf whatever its pairs.
	boundary := m.maxLen > 0 && len(prefix)+1 >= m.maxLen
	cond, leaf := m.conditional(a, d, rank, sup, boundary)
	if cond == nil && !leaf {
		return nil
	}
	if m.rec != nil {
		// A leaf is a conditional subproblem too: it is counted, its
		// depth observed and its mine timed like a built tree's. Only a
		// built tree's composition is folded into the run counters. The
		// deferred sample covers error returns too; a disabled recorder
		// pays exactly this one nil check.
		if cond != nil {
			FoldTreeCounters(m.rec, cond)
		}
		m.rec.Add(obs.CtrCondTrees, 1)
		m.rec.ObserveDepth(len(prefix))
		defer m.rec.ObserveSince(obs.HistCondMine, time.Now())
	}
	if leaf {
		return m.mineLeaf(m.condBuf, a.itemName[:rank], prefix)
	}
	err := m.mineTree(cond, prefix)
	m.nameFree = append(m.nameFree, cond.itemName)
	return err
}

// conditional builds the conditional CFP-tree of item rank, whose
// support is sup, or decides that the conditional is a leaf
// (leafVerdict; boundary forces one). With a flat decoding it walks
// decoded parent indexes; without one (ablation or oversized array) it
// falls back to the byte-chasing traversal. Both builders return the
// same verdict: a tree; nil and leaf, with the conditional supports
// left in condBuf; or nil and no leaf when no conditional item is
// frequent.
func (m *cfpGrower) conditional(a *Array, d *Decode, rank uint32, sup uint64, boundary bool) (*Tree, bool) {
	if d == nil {
		return m.conditionalScan(a, rank, sup, boundary)
	}
	return m.conditionalFlat(a, d, rank, sup, boundary)
}

// condCounts returns the grower's zeroed conditional-support buffer
// for the ranks below rank.
func (m *cfpGrower) condCounts(rank uint32) []uint64 {
	m.condBuf = resize(m.condBuf, int(rank))
	clear(m.condBuf)
	return m.condBuf
}

// Verdicts of leafVerdict on a counted conditional.
const (
	condEmpty = iota // no conditional item is frequent
	condLeaf         // no conditional pair is frequent: mined with no tree
	condTree         // the conditional tree is built
)

// maxPairItems bounds the pair matrix of the leaf test: a conditional
// with more frequent items builds its tree untested. 64 items make
// 2,016 cells, 16 KB. It must stay a power of two no greater than 64:
// flushPairs marks the batch's rows in one word, and addPath masks a
// row with maxPairItems-1.
const maxPairItems = 64

// batchPaths is the capacity of a pairBatch: one path per bit of a
// column word.
const batchPaths = 64

// pairBatch is the leaf test's bit-sliced batch of up to batchPaths
// filtered paths: batch path e is bit e of every word. It is fixed-size
// grower scratch (800 bytes), outside the modeled footprint like
// pairRow.
type pairBatch struct {
	// cols holds one word per matrix row, with bit e set when batch path
	// e holds the row's rank; the words past the matrix's rows stay 0.
	cols [maxPairItems]uint64
	// planes slices the batch paths' counts, which fit 32 bits: bit e of
	// plane b is bit b of path e's count. used, the OR of the counts,
	// marks the non-zero planes.
	planes [32]uint64
	used   uint64
	n      int    // paths in the batch
	sum    uint64 // the sum of their counts
	// maxCell is the largest pair matrix cell as of the last flush.
	maxCell uint64
}

// leafVerdict decides from the conditional supports of a conditional
// whose support is sup whether its tree is worth building. k, the
// number of conditionally frequent items, decides first: none is
// condEmpty, one (or any at the MaxLen boundary) condLeaf. Then, by
// inclusion–exclusion, two items whose conditional supports sum to at
// least sup + minSup share a frequent pair: condTree. Otherwise, for k
// up to maxPairItems, chase runs the pair chase: it hands each element
// of the pattern base, as its filtered path nearest-first and its
// count, to a visitor until the visitor stops it, and reports whether
// it was stopped. The visitor (addPath) counts every pair of the paths
// in a triangular k×k matrix, charged to the ledger while live, 64
// paths at a time, and stops at the path that makes the first cell
// reach minSup: condTree. A chase that runs out finds no frequent pair:
// condLeaf. Its last, partial batch is never flushed, because the
// visitor flushes every batch that could make a cell reach minSup.
func (m *cfpGrower) leafVerdict(condCount []uint64, sup uint64, boundary bool, chase func(visit func(path []uint32, c uint64) bool) bool) int {
	var k int
	var c1, c2 uint64
	for _, c := range condCount {
		if c < m.minSup {
			continue
		}
		k++
		if c > c1 {
			c1, c2 = c, c1
		} else if c > c2 {
			c2 = c
		}
	}
	switch {
	case k == 0:
		return condEmpty
	case k == 1 || boundary:
		return condLeaf
	case c1+c2 >= sup+m.minSup || k > maxPairItems:
		return condTree
	}
	// Rows in ascending rank: a path nearest-first descends in rank,
	// so every pair of it lands below the diagonal.
	m.pairRow = resize(m.pairRow, len(condCount))
	var row uint8
	for r, c := range condCount {
		if c >= m.minSup {
			m.pairRow[r] = row
			row++
		}
	}
	m.pairCells = resize(m.pairCells, k*(k-1)/2)
	clear(m.pairCells)
	m.pairs = pairBatch{}
	cellBytes := int64(len(m.pairCells)) * 8
	m.ctl.Alloc(cellBytes)
	if m.pairVisit == nil {
		m.pairVisit = m.addPath
	}
	found := chase(m.pairVisit)
	if debugChecks && !found {
		assertf(!m.flushPairs(), "core: the last pair batch of a chase holds a frequent pair")
	}
	m.ctl.Free(cellBytes)
	if found {
		return condTree
	}
	return condLeaf
}

// addPath is leafVerdict's pair visitor: it adds path, a filtered path
// in descending rank, and its count c to the pair batch, and reports
// whether a pair matrix cell reached minSup. A cell counts at most
// maxCell plus the counts batched since the last flush, so addPath
// flushes (flushPairs) only when that bound reaches minSup or the batch
// is full; no cell can reach minSup between two flushes, and the chase
// stops at exactly the path that makes the first pair frequent. A path
// of one rank holds no pair and is not batched.
func (m *cfpGrower) addPath(path []uint32, c uint64) bool {
	if len(path) < 2 {
		return false
	}
	if debugChecks {
		assertf(c <= math.MaxUint32, "core: path count %d overflows uint32", c)
	}
	b := &m.pairs
	rows, bit := m.pairRow, uint64(1)<<b.n
	for _, r := range path {
		// Rows are below maxPairItems: the mask drops the bounds check.
		b.cols[rows[r]&(maxPairItems-1)] |= bit
	}
	for p := c; p != 0; p &= p - 1 {
		b.planes[bits.TrailingZeros64(p)] |= bit
	}
	b.used |= c
	b.n++
	b.sum += c
	if b.n < batchPaths && b.maxCell+b.sum < m.minSup {
		return false
	}
	return m.flushPairs()
}

// flushPairs adds the batch to the pair matrix, empties it, and reports
// whether a cell reached minSup. The paths holding both rows i and j
// are the set bits of cols[i] & cols[j], and their counts sum to
// Σ_b popcount(cols[i] & cols[j] & planes[b]) << b over the non-zero
// planes: one popcount per plane stands for up to 64 single-cell
// additions.
func (m *cfpGrower) flushPairs() bool {
	b := &m.pairs
	cells, used, maxCell := m.pairCells, b.used, b.maxCell
	var touched uint64
	for i, w := range b.cols {
		if w != 0 {
			touched |= 1 << i
		}
	}
	// Rows descending, so each row's column is cleared once every row
	// above it has paired with it.
	for hi := touched; hi != 0; {
		i := 63 - bits.LeadingZeros64(hi)
		hi &^= 1 << i
		wi := b.cols[i]
		b.cols[i] = 0
		row := cells[i*(i-1)/2:]
		for lo := hi; lo != 0; lo &= lo - 1 {
			j := bits.TrailingZeros64(lo)
			w := wi & b.cols[j]
			if w == 0 {
				continue
			}
			var s uint64
			for p := used; p != 0; p &= p - 1 {
				pl := bits.TrailingZeros64(p)
				s += uint64(bits.OnesCount64(w&b.planes[pl])) << pl
			}
			row[j] += s
			maxCell = max(maxCell, row[j])
		}
	}
	for p := used; p != 0; p &= p - 1 {
		b.planes[bits.TrailingZeros64(p)] = 0
	}
	b.used, b.n, b.sum, b.maxCell = 0, 0, 0, maxCell
	return maxCell >= m.minSup
}

// conditionalFlat builds the conditional CFP-tree of item rank from
// the flat decoding in two interleaved walks over the rank's run: a
// pure counting chase accumulating conditional supports, and — only
// when leafVerdict wants the tree — a second chase that collects each
// element's already-filtered path and inserts it into the conditional
// tree at lane completion. Infrequent ranks (the common case at low
// supports, and the owners of the deepest pattern bases) pay for
// exactly one bare chase and materialize nothing; leaves pay at most a
// second, pair-counting chase over the same filtered paths. The run's
// counts are decoded once up front into the grower's runSup, charged to
// the ledger until the conditional is built.
func (m *cfpGrower) conditionalFlat(a *Array, d *Decode, rank uint32, sup uint64, boundary bool) (*Tree, bool) {
	m.runSup = a.runCounts(rank, m.runSup)
	supBytes := int64(len(m.runSup)) * 4
	m.ctl.Alloc(supBytes)
	defer m.ctl.Free(supBytes)
	condCount := m.condCounts(rank)
	lo, hi := d.Run(rank)
	d.countRun(m.runSup, lo, hi, condCount)
	paths := func(visit func(path []uint32, c uint64) bool) bool {
		return d.pathsRun(m, m.runSup, lo, hi, condCount, m.frequentFloor(condCount), visit)
	}
	if v := m.leafVerdict(condCount, sup, boundary, paths); v != condTree {
		return nil, v == condLeaf
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
	cond := NewTree(m.treeArena, m.cfg, m.compactRanks(a.itemName[:rank], condCount))
	cond.Observe(m.rec)
	paths(func(path []uint32, c uint64) bool {
		m.insertNearestFirst(cond, path, c)
		return false
	})
	return cond, false
}

// walkWord is a packed walk element of a Decode (walkLayout): uint32
// for the small and 4-byte rank-local words, uint64 for the 8-byte
// rank-local one. The rank-local chases derive the field split from W's
// size (wordShift), so it folds to a constant in each instantiation.
type walkWord interface{ uint32 | uint64 }

// wordShift is the parent-local field width of the rank-local layout
// whose words are of type W.
func wordShift[W walkWord]() uint {
	if unsafe.Sizeof(W(0)) == 8 {
		return localShift(layoutLocal8)
	}
	return localShift(layoutLocal4)
}

// countRun runs the count chase of d's layout over the pattern base in
// run [lo, hi): every ancestor's rank receives the element's count
// sup[i-lo].
func (d *Decode) countRun(sup []uint32, lo, hi int32, condCount []uint64) {
	switch d.layout {
	case layoutSmall:
		countSmall(d.walk, sup, lo, hi, condCount)
	case layoutLocal3:
		countLocal3(d.walk3, d.start, sup, lo, hi, condCount)
	case layoutLocal4:
		countLocal(d.walk, d.start, sup, lo, hi, condCount)
	default:
		countLocal(d.walkW, d.start, sup, lo, hi, condCount)
	}
}

// pathsRun runs the path chase of d's layout over the pattern base in
// run [lo, hi), handing each element's filtered path to visit; ranks
// below floor, a rank, are never frequent, so a lane's path ends there.
func (d *Decode) pathsRun(m *cfpGrower, sup []uint32, lo, hi int32, condCount []uint64, floor uint32, visit func(path []uint32, c uint64) bool) bool {
	switch d.layout {
	case layoutSmall:
		return pathsSmall(m, d.walk, sup, lo, hi, condCount, uint32(d.start[floor]), visit)
	case layoutLocal3:
		return pathsLocal3(m, d.walk3, d.start, sup, lo, hi, condCount, floor, visit)
	case layoutLocal4:
		return pathsLocal(m, d.walk, d.start, sup, lo, hi, condCount, floor, visit)
	default:
		return pathsLocal(m, d.walkW, d.start, sup, lo, hi, condCount, floor, visit)
	}
}

// frequentFloor returns the lowest conditionally frequent rank of
// condCount, or len(condCount) when no rank is. Ranks fall strictly
// along a walk toward the root, so once a path chase passes below it,
// the rest of the path filters away.
func (m *cfpGrower) frequentFloor(condCount []uint64) uint32 {
	for r, c := range condCount {
		if c >= m.minSup {
			return uint32(r)
		}
	}
	return uint32(len(condCount))
}

// countSmall accumulates the conditional item supports of the pattern
// base in run [lo, hi) of a layoutSmall walk: for every element i of
// the run, every ancestor's rank receives the element's count
// sup[i-lo].
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
// real index mid-chase, smallRoot between elements, one past it once
// the run is exhausted.
func countSmall(walk []uint32, sup []uint32, lo, hi int32, condCount []uint64) {
	var cur [walkLanes]uint32
	var cnt [walkLanes]uint64
	for l := range cur {
		cur[l] = smallRoot
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p >= smallRoot {
				if p > smallRoot {
					continue // lane retired, run exhausted
				}
				if i < hi {
					cur[l] = walk[i] >> 8
					cnt[l] = uint64(sup[i-lo])
					i++
					alive = true
				} else {
					cur[l] = smallRoot + 1
				}
				continue
			}
			w := walk[p]
			condCount[w&0xff] += cnt[l]
			cur[l] = w >> 8
			alive = true
		}
		if !alive {
			break
		}
	}
}

// countLocal is countSmall over a rank-local walk: a lane holds the
// walk word of its current element, which names the parent's rank r and
// its index in r's run, so one step adds the count to r and loads the
// parent's word from start[r] + local. A lane at the root takes the
// next element, and idles there once the run is exhausted.
func countLocal[W walkWord](walk []W, start []int32, sup []uint32, lo, hi int32, condCount []uint64) {
	shift := wordShift[W]()
	root := ^W(0) >> shift
	mask := W(1)<<shift - 1
	var cur [walkLanes]W
	var cnt [walkLanes]uint64
	for l := range cur {
		cur[l] = ^W(0)
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			w := cur[l]
			if r := w >> shift; r != root {
				condCount[r] += cnt[l]
				cur[l] = walk[start[r]+int32(w&mask)]
				alive = true
			} else if i < hi {
				cur[l] = walk[i]
				cnt[l] = uint64(sup[i-lo])
				i++
				alive = true
			}
		}
		if !alive {
			break
		}
	}
}

// countLocal3 is countLocal over layoutLocal3's 3-byte words (word3),
// with the field split fixed at 12/12.
func countLocal3(walk []byte, start []int32, sup []uint32, lo, hi int32, condCount []uint64) {
	var cur [walkLanes]uint32
	var cnt [walkLanes]uint64
	for l := range cur {
		cur[l] = local3Root
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			w := cur[l]
			if r := w >> local3Shift; r != local3Root>>local3Shift {
				condCount[r] += cnt[l]
				cur[l] = word3(walk, start[r]+int32(w&(1<<local3Shift-1)))
				alive = true
			} else if i < hi {
				cur[l] = word3(walk, i)
				cnt[l] = uint64(sup[i-lo])
				i++
				alive = true
			}
		}
		if !alive {
			break
		}
	}
}

// word3 loads element i's layoutLocal3 word with one unaligned 4-byte
// load masked to 24 bits; the pad byte that ends walk keeps the last
// word's load in bounds.
func word3(walk []byte, i int32) uint32 {
	j := 3 * int(i)
	return binary.LittleEndian.Uint32(walk[j:j+4]) & local3Root
}

// pathsSmall re-walks the pattern base in run [lo, hi) of a
// layoutSmall walk and hands every element's non-empty
// conditionally-frequent path to visit, nearest-first, with its count
// from sup indexed from lo as in countSmall. Lanes accumulate
// already-filtered ancestor ranks nearest-first; a lane whose walk
// reaches the root, or an ancestor stored below element floor (the
// first element of the lowest frequent rank, frequentFloor: ranks are
// stored ascending), hands its path over (visitLane), then takes the
// next element. One unsigned compare tests both, before the load. The
// order is the deterministic lane-completion order, which is a pure
// function of the decoding and floor (tree content is insertion-order
// independent). A visit that returns true stops the walk, and
// pathsSmall reports it.
func pathsSmall(m *cfpGrower, walk []uint32, sup []uint32, lo, hi int32, condCount []uint64, floor uint32, visit func(path []uint32, c uint64) bool) bool {
	minSup := m.minSup
	var cur [walkLanes]uint32
	var own [walkLanes]int32
	for l := range cur {
		cur[l] = smallRoot
		own[l] = -1
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p-floor >= smallRoot-floor {
				if p > smallRoot {
					continue // lane retired, run exhausted
				}
				if own[l] >= 0 && m.visitLane(l, sup[own[l]-lo], visit) {
					return true
				}
				if i < hi {
					cur[l] = walk[i] >> 8
					own[l] = i
					i++
					alive = true
				} else {
					cur[l] = smallRoot + 1
					own[l] = -1
				}
				continue
			}
			w := walk[p]
			if r := w & 0xff; condCount[r] >= minSup {
				m.laneBufs[l] = append(m.laneBufs[l], r)
			}
			cur[l] = w >> 8
			alive = true
		}
		if !alive {
			return false
		}
	}
}

// pathsLocal is pathsSmall over a rank-local walk, with the lane
// states of countLocal. A lane's word names the next ancestor's rank,
// so floor is a rank here, and a lane ends at it without the load.
func pathsLocal[W walkWord](m *cfpGrower, walk []W, start []int32, sup []uint32, lo, hi int32, condCount []uint64, floor uint32, visit func(path []uint32, c uint64) bool) bool {
	shift := wordShift[W]()
	root := ^W(0) >> shift
	mask := W(1)<<shift - 1
	minSup := m.minSup
	var cur [walkLanes]W
	var own [walkLanes]int32
	for l := range cur {
		cur[l] = ^W(0)
		own[l] = -1
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			w := cur[l]
			if r := w >> shift; r != root && r >= W(floor) {
				if condCount[r] >= minSup {
					m.laneBufs[l] = append(m.laneBufs[l], uint32(r))
				}
				cur[l] = walk[start[r]+int32(w&mask)]
				alive = true
				continue
			}
			if own[l] >= 0 {
				if m.visitLane(l, sup[own[l]-lo], visit) {
					return true
				}
				own[l] = -1
			}
			if i < hi {
				cur[l] = walk[i]
				own[l] = i
				i++
				alive = true
			}
		}
		if !alive {
			return false
		}
	}
}

// pathsLocal3 is pathsLocal over layoutLocal3's 3-byte words.
func pathsLocal3(m *cfpGrower, walk []byte, start []int32, sup []uint32, lo, hi int32, condCount []uint64, floor uint32, visit func(path []uint32, c uint64) bool) bool {
	minSup := m.minSup
	var cur [walkLanes]uint32
	var own [walkLanes]int32
	for l := range cur {
		cur[l] = local3Root
		own[l] = -1
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			w := cur[l]
			if r := w >> local3Shift; r != local3Root>>local3Shift && r >= floor {
				if condCount[r] >= minSup {
					m.laneBufs[l] = append(m.laneBufs[l], r)
				}
				cur[l] = word3(walk, start[r]+int32(w&(1<<local3Shift-1)))
				alive = true
				continue
			}
			if own[l] >= 0 {
				if m.visitLane(l, sup[own[l]-lo], visit) {
					return true
				}
				own[l] = -1
			}
			if i < hi {
				cur[l] = word3(walk, i)
				own[l] = i
				i++
				alive = true
			}
		}
		if !alive {
			return false
		}
	}
}

// visitLane hands lane l's completed path, accumulated nearest-first,
// to visit with count c and empties the lane; an empty path is not
// handed over. When visit stops the walk, every lane is emptied for the
// next one.
func (m *cfpGrower) visitLane(l int, c uint32, visit func(path []uint32, c uint64) bool) bool {
	seg := m.laneBufs[l]
	if len(seg) == 0 {
		return false
	}
	m.laneBufs[l] = seg[:0]
	if !visit(seg, uint64(c)) {
		return false
	}
	for j := range m.laneBufs {
		m.laneBufs[j] = m.laneBufs[j][:0]
	}
	return true
}

// compactRanks names the conditional tree of a conditional whose
// supports, by parent rank, are condCount: the conditionally frequent
// ranks, in their existing order, become the dense ranks 0..k-1 of the
// tree (condRank), and it returns their names, taken from names by
// parent rank into a buffer from nameFree. The order is kept, so the
// tree has the shape, and its mine the emission order, of a tree over
// every parent rank below the conditional's, while its CFP-array, flat
// decoding and every per-rank table span k ranks instead of all of them.
func (m *cfpGrower) compactRanks(names []uint32, condCount []uint64) []uint32 {
	var buf []uint32
	if n := len(m.nameFree); n > 0 {
		buf = m.nameFree[n-1][:0]
		m.nameFree = m.nameFree[:n-1]
	}
	m.condRank = resize(m.condRank, len(condCount))
	for r, c := range condCount {
		if c >= m.minSup {
			m.condRank[r] = uint32(len(buf))
			buf = append(buf, names[r])
		}
	}
	return buf
}

// insertNearestFirst inserts path, filtered and nearest-first by parent
// rank, into cond root-first with count c, each rank mapped to its dense
// rank (compactRanks). It reorders and renames path in place.
func (m *cfpGrower) insertNearestFirst(cond *Tree, path []uint32, c uint64) {
	if debugChecks {
		assertf(c <= math.MaxUint32, "core: path count %d overflows uint32", c)
	}
	slices.Reverse(path)
	for j, r := range path {
		path[j] = m.condRank[r]
	}
	cond.Insert(path, uint32(c&0xffffffff))
}

// conditionalScan is the byte-chasing reference construction of the
// conditional CFP-tree: sequential scans of the rank's subarray (a
// count, at most one pair count, and the insert), each walking parent
// paths backward a varint at a time. It is kept as the
// Config.DisableFlatDecode ablation and as the fallback for arrays past
// the flat index space; differential tests hold it and conditionalFlat
// to identical trees and identical leaf verdicts.
func (m *cfpGrower) conditionalScan(a *Array, rank uint32, sup uint64, boundary bool) (*Tree, bool) {
	condCount := m.condCounts(rank)
	a.ScanItem(rank, func(e Element) bool {
		m.pathBuf = a.PathTo(e, m.pathBuf[:0])
		for _, ar := range m.pathBuf {
			condCount[ar] += e.Count
		}
		return true
	})
	pairs := func(visit func(path []uint32, c uint64) bool) bool {
		stopped := false
		a.ScanItem(rank, func(e Element) bool {
			// PathTo yields ranks nearest-first, as visit takes them.
			path := m.filterFrequent(a.PathTo(e, m.pathBuf[:0]), condCount)
			m.pathBuf = path
			stopped = visit(path, e.Count)
			return !stopped
		})
		return stopped
	}
	if v := m.leafVerdict(condCount, sup, boundary, pairs); v != condTree {
		return nil, v == condLeaf
	}
	m.treeArena.Reset()
	cond := NewTree(m.treeArena, m.cfg, m.compactRanks(a.itemName[:rank], condCount))
	cond.Observe(m.rec)
	a.ScanItem(rank, func(e Element) bool {
		m.pathBuf = m.filterFrequent(a.PathTo(e, m.pathBuf[:0]), condCount)
		m.insertNearestFirst(cond, m.pathBuf, e.Count)
		return true
	})
	return cond, false
}

// filterFrequent filters path in place to its conditionally frequent
// items.
func (m *cfpGrower) filterFrequent(path []uint32, condCount []uint64) []uint32 {
	w := 0
	for _, it := range path {
		if condCount[it] >= m.minSup {
			path[w] = it
			w++
		}
	}
	return path[:w]
}
